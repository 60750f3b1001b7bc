"""Collider orientation rule: soundness, preconditions, failure detection."""

import itertools
import subprocess
import sys

import pytest
from conftest import child_env

from kassoc.association import (
    UNBOUNDED,
    AssociationBudget,
    _ci_statement,
)
from kassoc.orientation import (
    OrientationQuery,
    PreconditionError,
    _rule_defeat,
    check_nonadjacency,
    detect_of_failure,
    orient,
)
from kassoc.oracle import DiscreteOracle
from kassoc.scenarios import BUILTINS, builtin
from references import rule_defeat


def q(scenario, center, left, right):
    return OrientationQuery(center, tuple(left), tuple(right), scenario.oracle())


class TestQueryValidation:
    def test_side_size_limits(self, example2):
        with pytest.raises(PreconditionError):
            q(example2, "Y", ("X", "Z", "W"), ("W",))

    def test_disjoint_sides(self, example2):
        with pytest.raises(PreconditionError):
            q(example2, "Y", ("X",), ("X",))

    @pytest.mark.parametrize("left,right", [(("X", "X"), ("W",)), (("X",), ("W", "W"))])
    def test_no_repeated_node_within_a_side(self, example2, left, right):
        with pytest.raises(PreconditionError, match="repeat no node"):
            q(example2, "Y", left, right)

    def test_center_not_in_sides(self, example2):
        with pytest.raises(PreconditionError):
            q(example2, "Y", ("Y",), ("W",))

    def test_unknown_variable(self, example2):
        with pytest.raises(PreconditionError):
            q(example2, "Y", ("Q",), ("W",))

    def test_first_unknown_name_in_the_callers_order_under_every_hash_seed(self):
        # of several unknown names, the first of (center, *left, *right) is
        # named, as query_masks names the first of (xs, ys, s)
        script = (
            "from kassoc.orientation import OrientationQuery, PreconditionError\n"
            "from kassoc.scenarios import builtin\n"
            "o = builtin('example2').oracle()\n"
            "for center, left, right in [('Q', ('R',), ('S',)), ('Y', ('X', 'R'), ('S',)),\n"
            "                            ('Y', ('X',), ('S', 'Q')), ('Y', ('P', 'R'), ('S', 'Q'))]:\n"
            "    try:\n"
            "        OrientationQuery(center, left, right, o)\n"
            "    except PreconditionError as exc:\n"
            "        print(exc)\n"
        )
        want = "".join(f"unknown variable {v!r}\n" for v in "QRSP")
        for seed in range(1, 7):
            proc = subprocess.run([sys.executable, "-c", script],
                                  env=child_env(PYTHONHASHSEED=str(seed)),
                                  capture_output=True, text=True, timeout=300)
            assert (proc.returncode, proc.stderr) == (0, "")
            assert proc.stdout == want, f"PYTHONHASHSEED={seed}"


class TestExampleTwoCollider:
    def test_pair_and_singleton_sides_orient_into_y(self, example2):
        v = orient(q(example2, "Y", ("X", "Z"), ("W",)))
        assert v.outcome == "collider"
        assert set(v.edges) == {("X", "Y"), ("Z", "Y"), ("W", "Y")}
        assert v.rule_i_holds and not v.rule_ii_holds

    def test_unassociated_side_is_a_precondition_failure(self, example2):
        with pytest.raises(PreconditionError):
            orient(q(example2, "Y", ("X",), ("W",)))

    def test_one_associated_cross_pair_rejected(self):
        chain = builtin("chain")  # X->Y->Z: X,Z adjacent to Y and 1-assoc
        with pytest.raises(PreconditionError):
            orient(q(chain, "X", ("Y",), ("Z",)))


class TestNonCollider:
    def test_fork_witnessed(self):
        fork = builtin("fork")
        v = orient(q(fork, "Y", ("X",), ("Z",)))
        assert v.outcome == "non-collider"
        assert v.edges == ()

    def test_collider_control(self):
        collider = builtin("collider")
        v = orient(q(collider, "Y", ("X",), ("Z",)))
        assert v.outcome == "collider"
        assert set(v.edges) == {("X", "Y"), ("Z", "Y")}


class TestRuleExclusivity:
    """Under an exact oracle both rules never hold simultaneously on the
    scenario suite."""

    @pytest.mark.parametrize(
        "name", ["example1", "example2", "chain", "fork", "collider"]
    )
    def test_never_both(self, all_builtins, name):
        s = all_builtins[name]
        o = s.oracle()
        nodes = s.dag.nodes
        for center in nodes:
            others = [v for v in nodes if v != center]
            for x, z in itertools.combinations(others, 2):
                try:
                    v = orient(OrientationQuery(center, (x,), (z,), o))
                except PreconditionError:
                    continue
                assert not (v.rule_i_holds and v.rule_ii_holds)


class TestMirroredNonCollider:
    """Shielded-lookalike graph: rule i must not fire on the xor triple."""

    def test_rule_i_does_not_fire(self, all_builtins):
        s = all_builtins["noncollider_xor"]
        v = orient(q(s, "Y", ("X", "Z"), ("W",)))
        assert not v.rule_i_holds
        assert v.outcome != "collider"


class TestOfFailureDetection:
    def test_transitivity_failure_detected(self, all_builtins):
        s = all_builtins["transitivity_failure"]
        query = q(s, "Y", ("X",), ("Z",))
        assert detect_of_failure(query)
        v = orient(query)
        assert v.outcome == "inconclusive"
        assert v.of_failure_detected

    def test_no_false_alarm_on_faithful_scenarios(self, all_builtins):
        for name in ("chain", "fork", "collider"):
            s = all_builtins[name]
            for center in s.dag.nodes:
                others = [v for v in s.dag.nodes if v != center]
                try:
                    query = q(s, center, (others[0],), (others[1],))
                    assert not detect_of_failure(query)
                except PreconditionError:
                    pass


class TestNonadjacency:
    def test_example2_cross_pairs(self, example2):
        o = example2.oracle()
        # X and W: no 1-association and no strict-2 evidence -> certified
        assert check_nonadjacency(o, "X", "W")
        # X and Z are non-adjacent but strictly 2-associated with Y as the
        # third node, so the conservative check refuses to certify them
        assert not check_nonadjacency(o, "X", "Z")

    def test_chain_certifies_distant_pair(self):
        o = DiscreteOracle(builtin("chain").joint)
        assert not check_nonadjacency(o, "X", "Y")  # adjacent, 1-associated

    def test_rejects_identical_nodes(self, example2):
        with pytest.raises(PreconditionError):
            check_nonadjacency(example2.oracle(), "X", "X")


def reference_rule_defeat(q, with_center):
    """The rule scan as ``orient`` ran it on the query alone: the CI
    statement defeating rule i (``with_center``) or rule ii, or None."""
    found = rule_defeat(q.oracle, q.center, q.left, q.right, with_center,
                        q.oracle.variables, q.budget)
    return found and _ci_statement(*found, True)


def every_query(scenario, budget):
    """Every query the constructor accepts: a centre and two disjoint,
    ordered side sets of one or two nodes."""
    o = scenario.oracle()
    for center in scenario.dag.nodes:
        rest = [v for v in scenario.dag.nodes if v != center]
        sides = [c for k in (1, 2) for c in itertools.combinations(rest, k)]
        for left, right in itertools.permutations(sides, 2):
            if not set(left) & set(right):
                yield OrientationQuery(center, left, right, o, budget)


class TestRuleScanAgreement:
    """The shared rule scan, given the oracle's variable order, agrees with
    the per-query reference on every query, and ``orient`` reports it."""

    @pytest.mark.parametrize(
        "budget", [UNBOUNDED, AssociationBudget(1)], ids=["unbounded", "one"]
    )
    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_every_query_on_builtin(self, name, budget):
        scans = 0
        for query in every_query(builtin(name), budget):
            want = [reference_rule_defeat(query, wc) for wc in (True, False)]
            for with_center, expected in zip((True, False), want):
                got = _rule_defeat(query.oracle, query.center, query.left, query.right,
                                   with_center, query.oracle.variables, budget)
                assert (got and _ci_statement(*got, True)) == expected, query
                scans += 1
            try:
                v = orient(query)
            except PreconditionError:
                continue
            assert v.rule_i_holds == (want[0] is None)
            assert v.rule_ii_holds == (want[1] is None)
            assert list(v.witnesses) == ([] if want[0] is None else [w for w in want if w])
        assert scans > 0
