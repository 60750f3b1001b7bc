"""k-association scans and unfaithful-triple detection."""

import itertools
from fractions import Fraction as F
from unittest import mock

import pytest

from kassoc.association import (
    AssociationBudget,
    AssociationReport,
    UNBOUNDED,
    _first_independent,
    find_unfaithful_triples,
    is_1_associated,
    is_2_associated,
    is_strictly_2_associated,
    is_weakly_associated,
    weak_associations,
)
from kassoc.distribution import DiscreteJoint
from kassoc.graph import Dag
from kassoc.oracle import (DiscreteOracle, GraphOracle, GTestOracle, IndependenceOracle,
                           OracleError)
from kassoc.scenarios import BUILTINS, builtin, noisy_xor
from references import enumerate_dags, mutually_independent


class RecordingOracle(IndependenceOracle):
    """Says "dependent" to every question and records, in the order asked,
    each question's (x, y, conditioning set) decoded from its masks."""

    backend = "recording"

    def __init__(self, variables):
        super().__init__(variables)
        self._index = {v: i for i, v in enumerate(self.variables)}
        self.asked = []

    def _names(self, mask):
        return {v for v, i in self._index.items() if mask >> i & 1}

    def _query(self, mx, my, ms):
        (x,), (y,) = self._names(mx), self._names(my)
        self.asked.append((x, y, self._names(ms)))
        return False


class TestSubsetOrder:
    """``_first_independent`` asks the subsets of its pool smallest first,
    lexicographic in pool order, and every clause in order under each."""

    @staticmethod
    def conditioning_sets(pool, max_size):
        o = RecordingOracle(["X", "Y", "A", "B", "C"])
        assert _first_independent(o, [("X", "Y", ())], pool, max_size) is None
        return [given for _, _, given in o.asked]

    def test_smallest_first(self):
        subs = self.conditioning_sets(["A", "B", "C"], 3)
        assert subs == [set(), {"A"}, {"B"}, {"C"}, {"A", "B"}, {"A", "C"}, {"B", "C"},
                        {"A", "B", "C"}]

    def test_budget_truncates(self):
        subs = self.conditioning_sets(["A", "B", "C"], 1)
        assert subs == [set(), {"A"}, {"B"}, {"C"}]

    def test_ties_follow_pool_order(self):
        subs = self.conditioning_sets(["C", "A", "B"], 2)
        assert subs == [set(), {"C"}, {"A"}, {"B"}, {"C", "A"}, {"C", "B"}, {"A", "B"}]

    def test_clauses_in_order_under_each_subset(self):
        o = RecordingOracle(["X", "Y", "Z", "A"])
        clauses = [("X", "Y", ("Z",)), ("X", "Z", ("Y",)), ("Y", "Z", ("X",))]
        assert _first_independent(o, clauses, ["A"], 1) is None
        assert o.asked == [("X", "Y", {"Z"}), ("X", "Z", {"Y"}), ("Y", "Z", {"X"}),
                           ("X", "Y", {"Z", "A"}), ("X", "Z", {"Y", "A"}),
                           ("Y", "Z", {"X", "A"})]


class TestFirstSeparatingSet:
    CHAIN = GraphOracle(Dag(["X", "Y", "Z", "W"], [("X", "Y"), ("Y", "Z")]))
    COLLIDER = GraphOracle(Dag(["X", "Y", "Z", "W"], [("X", "Y"), ("Z", "Y")]))

    def test_first_set_in_enumeration_order(self):
        o = self.CHAIN
        assert _first_independent(o, [("X", "Z", ())], ["W", "Y"], 2) == ("X", "Z", ("Y",))

    def test_core_is_part_of_every_set(self):
        o = self.CHAIN
        got = _first_independent(o, [("X", "Z", ("W",))], ["Y"], 1)
        assert got == ("X", "Z", ("W", "Y"))

    def test_none_when_dependent_given_every_set(self):
        o = self.COLLIDER
        assert _first_independent(o, [("X", "Z", ("Y",))], ["W"], 1) is None

    def test_max_size_bounds_the_scan(self):
        o = self.CHAIN
        assert _first_independent(o, [("X", "Z", ())], ["W", "Y"], 0) is None

    def test_first_independent_clause_wins(self):
        o = self.CHAIN
        clauses = [("X", "Y", ()), ("X", "Z", ("W",)), ("Y", "W", ())]
        assert _first_independent(o, clauses, [], 0) == ("Y", "W", ())

    def test_clause_names_are_checked_once_with_the_query_wording(self):
        o = self.CHAIN
        for clause, text in [(("X", "Q", ()), "unknown variable 'Q'"),
                             (("X", "X", ()), "query sets must be pairwise disjoint"),
                             (("X", "Z", ("Z",)), "query sets must be pairwise disjoint")]:
            with pytest.raises(OracleError, match=text):
                _first_independent(o, [("X", "Z", ()), clause], ["W"], 1)


class TestUnknownNames:
    """An unknown name is refused with the oracle's own wording, wherever
    it stands in the call."""

    @pytest.mark.parametrize("scan", [
        lambda o: is_1_associated(o, "Q", "X"),
        lambda o: is_1_associated(o, "X", "Q", AssociationBudget(0)),
        lambda o: is_2_associated(o, "Q", "X", "Z"),
        lambda o: is_2_associated(o, "X", "Z", "Q"),
        lambda o: is_strictly_2_associated(o, "Q", "X", "Z"),
        lambda o: is_strictly_2_associated(o, "X", "Q", "Z"),
        lambda o: is_weakly_associated(o, "Q", ["X"]),
        lambda o: is_weakly_associated(o, "X", ["Z", "Q"]),
        lambda o: weak_associations(o, "Q"),
    ], ids=["1", "1-partner", "2", "2-partner", "strict", "strict-partner",
            "weak-one", "weak-pair", "weak-associations"])
    def test_oracle_error(self, example2, scan):
        with pytest.raises(OracleError) as err:
            scan(example2.oracle())
        assert str(err.value) == "unknown variable 'Q'"


class TestBudget:
    @pytest.mark.parametrize("value", [1.5, 2.0, True, False, "2"])
    def test_refuses_a_size_that_is_not_an_int(self, value):
        with pytest.raises(ValueError) as err:
            AssociationBudget(value)
        assert str(err.value) == f"budget must be an int or None, not {value!r}"

    def test_refuses_a_negative_size(self):
        with pytest.raises(ValueError) as err:
            AssociationBudget(-1)
        assert str(err.value) == "budget must be non-negative"


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
        for partners in ([], ["Y", "Z", "X"]):
            with pytest.raises(OracleError, match="^partner set must have one or two nodes$"):
                is_weakly_associated(o, "X", partners)

    @pytest.mark.parametrize("kind, partners, message", [
        ("three", ("Y",), "^unknown association kind 'three'$"),
        ("one", (), "^partner set must have one or two nodes$"),
        ("one", ("Y", "Z", "W"), "^partner set must have one or two nodes$"),
        ("two", ("Y",), "^two association needs two partners$"),
        ("strict-two", ("Y",), "^strict-two association needs two partners$"),
    ])
    def test_a_report_checks_its_kind_and_partners(self, kind, partners, message):
        with pytest.raises(ValueError, match=message):
            AssociationReport("X", partners, kind, True)

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
