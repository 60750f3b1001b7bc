"""Acceptance suite: eleven end-to-end criteria, one pass/fail line each.

Every criterion is exact (rational identities, exhaustive enumeration) or
property-based at a fixed seed; the only float tolerances live in
criterion 10, whose thresholds were frozen after a 100-seed power
simulation (both checks passed 100/100 at n=10^4, alpha=0.01).
"""

import contextlib
import itertools
import random
from fractions import Fraction as F

import pytest

from kassoc.association import (find_unfaithful_triples, is_2_associated,
                                is_strictly_2_associated, weak_associations)
from kassoc.audit import audit_scenario
from kassoc.graph import Dag
from kassoc.gaussian import partial_correlation_zero
from kassoc.growshrink import markov_blanket
from kassoc.gtest import GTestConfig, g_test
from kassoc.oracle import DiscreteOracle, GraphOracle
from kassoc.orientation import OrientationQuery, PreconditionError, orient
from kassoc.scenarios import BUILTINS, Scenario, builtin
from kassoc.sparsest import dag_from_permutation, sparsest_permutations

from conftest import planted_xor_net
from references import d_separated_bruteforce, enumerate_dags, prob, random_dag
from test_graphoid import AXIOMS, SEMI_GRAPHOID, run_axiom_sweep


@contextlib.contextmanager
def criterion(capsys, number, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number:02d} {label}: FAIL")
        raise
    with capsys.disabled():
        print(f"criterion {number:02d} {label}: PASS")


def test_criterion_01_example1_exact_identities(capsys):
    with criterion(capsys, 1, "example-1 exact identities"):
        s = builtin("example1")
        j = s.joint
        assert prob(j, {"X": 1, "Z": 1, "Y": 1}) == F(1, 16)
        assert prob(j, {"X": 1, "Z": 1}) * prob(j, {"Y": 1}) == F(1, 8)
        o = DiscreteOracle(j)
        assert o.query("X", "Y") and o.query("Z", "Y") and o.query("X", "Z")
        assert not o.query("X", "Z", {"Y"})
        assert not o.query("X", "Y", {"Z"})
        assert not o.query("Y", "Z", {"X"})


def test_criterion_02_example2_exact_identities(capsys):
    with criterion(capsys, 2, "example-2 exact identities"):
        j = builtin("example2").joint
        assert prob(j, {"Y": 1}) == F(3, 8)
        assert prob(j, {"W": 1, "Y": 1}) == F(1, 4)
        assert prob(j, {"X": 1, "W": 1, "Y": 1, "Z": 1}) == F(1, 32)
        assert not j.is_independent("W", "Y")
        assert not j.is_independent("X", "W", {"Y", "Z"})
        assert not j.is_independent("Z", "W", {"X", "Y"})
        assert j.is_independent("X", "W", {"Y"})
        assert j.is_independent("Z", "W", {"Y"})


def _orientation_configs(nodes):
    for center in nodes:
        others = [v for v in nodes if v != center]
        sides = [(v,) for v in others]
        sides += list(itertools.combinations(others, 2))
        for left, right in itertools.combinations(sides, 2):
            if not set(left) & set(right):
                yield center, left, right


def test_criterion_03_orientation_soundness(capsys):
    with criterion(capsys, 3, "orientation rule soundness"):
        ex2 = builtin("example2")
        v = orient(OrientationQuery("Y", ("X", "Z"), ("W",), ex2.oracle()))
        assert v.outcome == "collider"
        assert set(v.edges) == {("X", "Y"), ("Z", "Y"), ("W", "Y")}

        mirror = builtin("noncollider_xor")
        v = orient(OrientationQuery("Y", ("X", "Z"), ("W",), mirror.oracle()))
        assert not v.rule_i_holds

        # no false collider anywhere in the suite: every collider verdict
        # on truly non-adjacent cross pairs must match the ground truth
        for name in BUILTINS:
            s = builtin(name)
            o = s.oracle()
            for center, left, right in _orientation_configs(s.dag.nodes):
                if any(
                    s.dag.adjacent(x, z)
                    for x, z in itertools.product(left, right)
                ):
                    continue
                try:
                    v = orient(OrientationQuery(center, left, right, o))
                except PreconditionError:
                    continue
                if v.outcome == "collider":
                    for parent, child in v.edges:
                        assert child in s.dag.children(parent), (name, v)


def test_criterion_04_grow_shrink(capsys):
    with criterion(capsys, 4, "modified grow-shrink recovers blankets"):
        for name in BUILTINS:
            s = builtin(name)
            ann = audit_scenario(s)
            required = ("CMC", "2-AF", "spouse-condition")
            if not all(ann[a].holds for a in required):
                continue
            o = s.oracle()
            for t in s.dag.nodes:
                mb, _ = markov_blanket(o, t, mode="modified")
                assert mb == s.dag.markov_blanket(t), (name, t)
        # documented classic failure on the xor collider
        o = DiscreteOracle(builtin("example1").joint)
        mb, _ = markov_blanket(o, "Y", mode="classic")
        assert mb == set()


def test_criterion_05_sparsest_permutation(capsys):
    with criterion(capsys, 5, "sparsest-permutation walkthrough"):
        o = DiscreteOracle(builtin("example2").joint)
        minimizers = sparsest_permutations(o)
        assert minimizers[0][1].edge_count == 3
        causal = dag_from_permutation(o, ("X", "Z", "W", "Y"))
        assert set(causal.edges) == {("X", "Y"), ("Z", "Y"), ("W", "Y")}
        assert dag_from_permutation(o, ("X", "Z", "Y", "W")).edge_count == 5
        assert dag_from_permutation(o, ("Z", "W", "Y", "X")).edge_count == 4
        for perm, _ in minimizers:
            assert perm[-1] == "Y"


def _has_two_edge_collider(dag, triple):
    for a, m, b in itertools.permutations(triple, 3):
        if a < b and m in dag.children(a) and m in dag.children(b):
            return True
    return False


def test_criterion_06_collider_theorem_exhaustive(capsys):
    with criterion(capsys, 6, "2-association collider theorem (all 3/4-node DAGs)"):
        for n in (3, 4):
            for dag in enumerate_dags(n):
                o = GraphOracle(dag)
                for triple in itertools.combinations(dag.nodes, 3):
                    matched = any(
                        is_2_associated(o, t, *[v for v in triple if v != t]).holds
                        for t in triple
                    )
                    if matched:
                        assert _has_two_edge_collider(dag, triple), (
                            dag.edges, triple,
                        )


def test_criterion_07_dsep_oracle_equivalence(capsys):
    with criterion(capsys, 7, "d-separation kernel vs brute force (200 DAGs)"):
        rng = random.Random(1729)
        for _ in range(200):
            dag = random_dag(rng, rng.randint(2, 8))
            nodes = dag.nodes
            for x, y in itertools.combinations(nodes, 2):
                rest = [v for v in nodes if v not in (x, y)]
                for r in range(min(3, len(rest)) + 1):
                    for s in itertools.combinations(rest, r):
                        assert dag.d_separated({x}, {y}, s) == \
                            d_separated_bruteforce(dag, {x}, {y}, s), (
                                dag.edges, x, y, s,
                            )


def test_criterion_08_graphoid_suite(capsys):
    with criterion(capsys, 8, "graphoid axioms"):
        rng = random.Random(31337)
        checked = 0
        for _ in range(100):
            dag = random_dag(rng, rng.randint(4, 9))
            ind = lambda xs, ys, zs: dag.d_separated(xs, ys, zs)
            checked += run_axiom_sweep(ind, dag.nodes, AXIOMS, 30, rng)
        assert checked >= 10_000
        for name in BUILTINS:
            s = builtin(name)
            if s.kind != "discrete":
                continue
            joint = s.joint
            ind = lambda xs, ys, zs: joint.is_independent_sets(xs, ys, zs)
            run_axiom_sweep(ind, s.dag.nodes, SEMI_GRAPHOID, 60, rng)
        j = builtin("example1").joint
        assert j.is_independent_sets({"Y"}, {"X"}, ())
        assert j.is_independent_sets({"Y"}, {"Z"}, ())
        assert not j.is_independent_sets({"Y"}, {"X", "Z"}, ())


def test_criterion_09_gaussian_cancellation(capsys):
    with criterion(capsys, 9, "exact gaussian path cancellation"):
        sys3 = builtin("cancel3").gaussian
        cov = sys3.covariance()
        pos = {n: i for i, n in enumerate(sys3.nodes)}
        assert partial_correlation_zero(cov, pos["X"], pos["Y"], ())
        assert not partial_correlation_zero(cov, pos["X"], pos["Y"], (pos["Z"],))
        assert not partial_correlation_zero(cov, pos["X"], pos["Z"], ())

        sys4 = builtin("cancel4").gaussian
        cov = sys4.covariance()
        pos = {n: i for i, n in enumerate(sys4.nodes)}
        assert partial_correlation_zero(cov, pos["X"], pos["Y"], ())
        assert partial_correlation_zero(cov, pos["X"], pos["W"], (pos["Z"],))
        for a, b in (("X", "Z"), ("Z", "W"), ("W", "Y")):
            assert not partial_correlation_zero(cov, pos[a], pos[b], ())

        o = builtin("cancel4").oracle()
        assert is_strictly_2_associated(o, "X", "W", "Y").holds


def test_criterion_10_statistical_backend(capsys):
    with criterion(capsys, 10, "G-test level and power (100 seeds)"):
        j = builtin("example1").joint
        cfg = GTestConfig(alpha=0.01)
        accept = reject = 0
        for seed in range(100):
            data = j.sample(10_000, seed)
            accept += g_test(data, "X", "Y", (), cfg).independent
            reject += not g_test(data, "X", "Z", ("Y",), cfg).independent
        assert accept >= 95, accept
        assert reject >= 95, reject


def weak_association_configs(o):
    """Every centre with two disjoint sets of its weak-association partners."""
    for y in o.variables:
        partners = [r.partners for r in weak_associations(o, y)]
        for xs, zs in itertools.combinations(partners, 2):
            if not set(xs) & set(zs):
                yield y, xs, zs


def test_criterion_11_grow_shrink_on_planted_xor_nets(capsys):
    with criterion(capsys, 11, "modified grow-shrink and orientation on 60 planted-XOR nets"):
        gated = ungated = classic_wrong = oriented = colliders = 0
        for seed in range(60):
            rng = random.Random(f"criterion-11:{seed}")
            dag, cpts, triple = planted_xor_net(rng, rng.randint(5, 7))
            s = Scenario(f"xor{seed}", dag, "discrete", cpts=tuple(cpts))
            report = audit_scenario(s)
            if not all(report[a].holds for a in ("CMC", "2-AF", "spouse-condition")):
                ungated += 1
                continue
            gated += 1
            o = s.oracle()
            for v in dag.nodes:
                mb, _ = markov_blanket(o, v, mode="modified")
                assert mb == dag.markov_blanket(v), (seed, v)
            classic_wrong += any(markov_blanket(o, v, mode="classic")[0] != dag.markov_blanket(v)
                                 for v in dag.nodes)
            # the planted triple is pairwise independent, not mutually
            assert triple in [set(t.nodes) for t in find_unfaithful_triples(o)], seed
            if not report["2-OF"].holds:
                continue
            oriented += 1
            for y, xs, zs in weak_association_configs(o):
                try:
                    v = orient(OrientationQuery(y, xs, zs, o))
                except PreconditionError:
                    continue
                if v.outcome == "collider":
                    colliders += 1
                    for parent, child in v.edges:
                        assert child in dag.children(parent), (seed, v)
        # the gate is not vacuous, and it is the paired clause that recovers
        assert gated and ungated, (gated, ungated)
        assert classic_wrong, classic_wrong
        assert oriented and colliders, (oriented, colliders)
