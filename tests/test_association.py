"""k-association scans and unfaithful-triple detection."""

import itertools
from fractions import Fraction as F
from unittest import mock

import pytest

from kassoc.association import (
    AssociationBudget,
    UNBOUNDED,
    find_unfaithful_triples,
    first_separating_set,
    is_1_associated,
    is_2_associated,
    is_strictly_2_associated,
    is_weakly_associated,
    subsets_by_size,
    weak_associations,
)
from kassoc.distribution import DiscreteJoint
from kassoc.graph import Dag
from kassoc.oracle import DiscreteOracle, GraphOracle, GTestOracle, OracleError
from kassoc.scenarios import BUILTINS, builtin, noisy_xor
from references import enumerate_dags, mutually_independent


class TestSubsetOrder:
    def test_smallest_first(self):
        subs = list(subsets_by_size(["A", "B", "C"], 3))
        sizes = [len(s) for s in subs]
        assert sizes == sorted(sizes)
        assert subs[0] == ()
        assert subs[1:4] == [("A",), ("B",), ("C",)]

    def test_budget_truncates(self):
        subs = list(subsets_by_size(["A", "B", "C"], 1))
        assert max(len(s) for s in subs) == 1

    def test_ties_follow_pool_order(self):
        subs = list(subsets_by_size(["C", "A", "B"], 2))
        assert subs == [(), ("C",), ("A",), ("B",), ("C", "A"), ("C", "B"), ("A", "B")]


class TestFirstSeparatingSet:
    CHAIN = GraphOracle(Dag(["X", "Y", "Z", "W"], [("X", "Y"), ("Y", "Z")]))
    COLLIDER = GraphOracle(Dag(["X", "Y", "Z", "W"], [("X", "Y"), ("Z", "Y")]))

    def test_first_set_in_enumeration_order(self):
        o = self.CHAIN
        assert first_separating_set(o, "X", "Z", frozenset(), ["W", "Y"], 2) == {"Y"}

    def test_core_is_part_of_every_set(self):
        o = self.CHAIN
        got = first_separating_set(o, "X", "Z", frozenset({"W"}), ["Y"], 1)
        assert got == {"W", "Y"}

    def test_none_when_dependent_given_every_set(self):
        o = self.COLLIDER
        assert first_separating_set(o, "X", "Z", frozenset({"Y"}), ["W"], 1) is None

    def test_max_size_bounds_the_scan(self):
        o = self.CHAIN
        assert first_separating_set(o, "X", "Z", frozenset(), ["W", "Y"], 0) is None


class TestExampleOne:
    """The noisy-xor triple: every node strictly 2-associated to the rest."""

    def test_no_one_associations(self, example1):
        o = DiscreteOracle(example1.joint)
        for x, y in itertools.combinations("XYZ", 2):
            assert not is_1_associated(o, x, y).holds

    @pytest.mark.parametrize("x,pair", [("X", "YZ"), ("Y", "XZ"), ("Z", "XY")])
    def test_strict_two_associations(self, example1, x, pair):
        o = DiscreteOracle(example1.joint)
        rep = is_strictly_2_associated(o, x, pair[0], pair[1])
        assert rep.holds
        assert rep.kind == "strict-two"

    def test_witness_names_the_separating_set(self, example1):
        o = DiscreteOracle(example1.joint)
        rep = is_1_associated(o, "X", "Y")
        assert rep.witness["independent"] is True
        assert rep.witness["given"] == []


class TestStrictReadings:
    def test_collider_control_is_2_but_not_strict(self):
        o = DiscreteOracle(builtin("collider").joint)
        assert is_2_associated(o, "Y", "X", "Z").holds
        rep = is_strictly_2_associated(o, "Y", "X", "Z")
        assert not rep.holds
        assert "one_associated_to" in rep.witness

    def test_strict_on_example1(self, all_builtins):
        o = DiscreteOracle(all_builtins["example1"].joint)
        assert is_strictly_2_associated(o, "X", "Y", "Z").holds

    def test_one_sided_case_is_not_strict(self, all_builtins):
        o = all_builtins["cancel3"].oracle()
        # X is 1-associated to Z, not to Y; 2-association over {Y, Z} holds
        assert is_2_associated(o, "X", "Y", "Z").holds
        assert not is_strictly_2_associated(o, "X", "Y", "Z").holds


class TestWeakAssociation:
    def test_dispatch(self, example1):
        o = DiscreteOracle(example1.joint)
        assert is_weakly_associated(o, "X", ["Y", "Z"]).holds
        assert not is_weakly_associated(o, "X", ["Y"]).holds
        with pytest.raises(OracleError):
            is_weakly_associated(o, "X", ["Y", "Z", "X"])

    def test_budget_is_monotone(self, example2):
        """Anything refuted at a small budget stays refuted when more
        conditioning sets are examined."""
        o = example2.oracle()
        for x, y in itertools.combinations(o.variables, 2):
            small = is_1_associated(o, x, y, AssociationBudget(max_size=0))
            full = is_1_associated(o, x, y, UNBOUNDED)
            if not small.holds:
                assert not full.holds

    def test_capped_flag(self, example2):
        o = example2.oracle()
        rep = is_1_associated(o, "X", "Y", AssociationBudget(max_size=0))
        # refutations are definitive, so the flag only marks accepted scans
        if rep.holds:
            assert rep.up_to_budget


def per_candidate_scan(o, x, budget):
    """Reference: the holding reports of every candidate checked on its own,
    1-associations first, then strict 2-associations (``assoc``'s old loop)."""
    others = [v for v in o.variables if v != x]
    found = [is_1_associated(o, x, y, budget) for y in others]
    found += [is_strictly_2_associated(o, x, y1, y2, budget)
              for y1, y2 in itertools.combinations(others, 2)]
    return [r for r in found if r.holds]


class TestWeakAssociations:
    """``weak_associations`` against the per-candidate scan: the same
    reports in the same order, from no more backend calls (a pair with a
    1-associated partner cannot be strict, so its scan is skipped)."""

    @staticmethod
    def assert_agrees(make_oracle, x, budget):
        ref, got = make_oracle(), make_oracle()
        want = per_candidate_scan(ref, x, budget)
        assert weak_associations(got, x, budget) == want
        assert got.query_count <= ref.query_count
        return want

    def test_backend_calls_over_every_builtin_node(self):
        """The skipped scans, pinned: 351 backend calls over every node of
        every builtin on a fresh exact oracle (402 when every pair was
        scanned)."""
        total = 0
        for name in sorted(BUILTINS):
            s = builtin(name)
            for x in s.dag.nodes:
                o = s.oracle()
                weak_associations(o, x)
                total += o.query_count
        assert total == 351

    @pytest.mark.parametrize("budget", [UNBOUNDED, AssociationBudget(max_size=1)],
                             ids=["unbounded", "budget-1"])
    def test_every_builtin_node(self, budget):
        kinds = set()
        for name in sorted(BUILTINS):
            s = builtin(name)
            for x in s.dag.nodes:
                kinds |= {r.kind for r in self.assert_agrees(s.oracle, x, budget)}
        assert kinds == {"one", "strict-two"}

    @pytest.mark.parametrize("name", ["example2", "xor_chain"])
    def test_gtest_oracle(self, name):
        data = builtin(name).joint.sample(400, 3)
        for x in data.names:
            self.assert_agrees(lambda: GTestOracle(data), x, UNBOUNDED)

    def test_partner_order_is_kept(self, example1):
        o = DiscreteOracle(example1.joint.marginalize(["X", "Z", "Y"]))
        got = weak_associations(o, "X")
        assert [r.partners for r in got] == [("Z", "Y")]


class TestUnfaithfulTriples:
    def test_example1_minimal_triple(self, example1):
        o = DiscreteOracle(example1.joint)
        triples = find_unfaithful_triples(o)
        assert len(triples) == 1
        t = triples[0]
        assert t.nodes == ("X", "Y", "Z")
        assert t.minimal

    def test_faithful_controls_have_none(self, all_builtins):
        for name in ("chain", "fork", "collider", "coins"):
            o = DiscreteOracle(all_builtins[name].joint)
            assert find_unfaithful_triples(o) == []

    def test_xor_chain_minimal_triple_is_uwz(self, all_builtins):
        o = DiscreteOracle(all_builtins["xor_chain"].joint)
        triples = find_unfaithful_triples(o)
        minimal = [frozenset(t.nodes) for t in triples if t.minimal]
        assert minimal == [frozenset({"U", "W", "Z"})]
        non_minimal = [frozenset(t.nodes) for t in triples if not t.minimal]
        assert frozenset({"X", "Y", "Z"}) in non_minimal

    def test_mutual_independence_is_a_counted_set_query(self, example1):
        """The search asks whether x is independent of (y, z) through the
        oracle, so ``query_count`` counts that set query with every other
        backend call."""
        o = DiscreteOracle(example1.joint)
        with mock.patch.object(DiscreteJoint, "_independent", autospec=True,
                               side_effect=DiscreteJoint._independent) as backend:
            triples = find_unfaithful_triples(o)
        assert [t.nodes for t in triples] == [("X", "Y", "Z")]
        bit = {v: 1 << i for i, v in enumerate(o.variables)}
        assert mock.call(o.joint, bit["X"], bit["Y"] | bit["Z"], 0) in backend.call_args_list
        assert o.query_count == backend.call_count

    def test_one_set_query_agrees_with_full_factorisation(self, all_builtins):
        """Given y and z independent, x independent of (y, z) is mutual
        independence: the search's set query against the cell-by-cell
        reference, on every pairwise-independent triple."""
        joints = [s.joint for s in all_builtins.values() if s.kind == "discrete"]
        joints += [noisy_xor(F(k, 12)).joint for k in range(6)]
        verdicts = set()
        for joint in joints:
            for x, y, z in itertools.combinations(joint.names, 3):
                if not all(joint.is_independent(a, b) for a, b in ((x, y), (x, z), (y, z))):
                    continue
                want = mutually_independent(joint, x, y, z)
                assert joint.is_independent_sets([x], [y, z]) == want, (x, y, z)
                verdicts.add(want)
        assert verdicts == {True, False}


class TestColliderTheoremExhaustive:
    """Any triple matching the all-subsets dependence pattern contains a
    two-edge collider path; exhaustive over all 3-node DAGs."""

    @staticmethod
    def _has_collider_path(dag, x, y, z):
        for a, m, b in itertools.permutations((x, y, z)):
            if a < b and m in dag.children(a) and m in dag.children(b):
                return True
        return False

    def test_all_three_node_dags(self):
        for dag in enumerate_dags(3):
            o = GraphOracle(dag)
            x, y, z = dag.nodes
            if is_2_associated(o, x, y, z).holds:
                assert self._has_collider_path(dag, x, y, z), dag.edges
