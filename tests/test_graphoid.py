"""Graphoid axioms for d-separation; semi-graphoid axioms for exact joints.

The helpers here are shared with the acceptance suite, which reruns them
at full scale.
"""

import itertools
import random

from kassoc.graph import Dag
from kassoc.scenarios import BUILTINS, builtin
from references import random_dag

AXIOMS = (
    "symmetry",
    "decomposition",
    "weak_union",
    "contraction",
    "intersection",
    "composition",
)
SEMI_GRAPHOID = AXIOMS[:4]


def sample_premise(rng, nodes):
    """Disjoint X, Y, W (nonempty) and conditioning set Z."""
    pool = list(nodes)
    rng.shuffle(pool)
    if len(pool) < 3:
        return None
    sizes = [1, 1, 1]
    for i in range(3):
        if len(pool) > 3 + sum(sizes) - 3 and rng.random() < 0.3:
            sizes[i] += 1
    cut1, cut2, cut3 = sizes[0], sizes[0] + sizes[1], sum(sizes)
    if cut3 > len(pool):
        return None
    xs, ys, ws = pool[:cut1], pool[cut1:cut2], pool[cut2:cut3]
    rest = pool[cut3:]
    zs = [v for v in rest if rng.random() < 0.4]
    return xs, ys, ws, zs


def check_axiom(ind, axiom, xs, ys, ws, zs) -> bool:
    """``ind(xs, ys, zs)`` is the set-independence predicate; returns
    whether the axiom's implication holds on this instantiation."""
    union = ys + ws
    if axiom == "symmetry":
        return (not ind(xs, ys, zs)) or ind(ys, xs, zs)
    if axiom == "decomposition":
        return (not ind(xs, union, zs)) or ind(xs, ys, zs)
    if axiom == "weak_union":
        return (not ind(xs, union, zs)) or ind(xs, ys, zs + ws)
    if axiom == "contraction":
        premise = ind(xs, ys, zs) and ind(xs, ws, zs + ys)
        return (not premise) or ind(xs, union, zs)
    if axiom == "intersection":
        premise = ind(xs, ys, zs + ws) and ind(xs, ws, zs + ys)
        return (not premise) or ind(xs, union, zs)
    if axiom == "composition":
        premise = ind(xs, ys, zs) and ind(xs, ws, zs)
        return (not premise) or ind(xs, union, zs)
    raise ValueError(axiom)


def run_axiom_sweep(ind, nodes, axioms, n_premises, rng):
    checked = 0
    for _ in range(n_premises):
        premise = sample_premise(rng, nodes)
        if premise is None:
            continue
        xs, ys, ws, zs = premise
        for axiom in axioms:
            assert check_axiom(ind, axiom, xs, ys, ws, zs), (
                axiom, xs, ys, ws, zs,
            )
            checked += 1
    return checked


class TestGraphOracleGraphoid:
    def test_all_axioms_on_random_dags(self):
        rng = random.Random(2024)
        total = 0
        for _ in range(20):
            dag = random_dag(rng, rng.randint(3, 8))
            ind = lambda xs, ys, zs: dag.d_separated(xs, ys, zs)
            total += run_axiom_sweep(ind, dag.nodes, AXIOMS, 50, rng)
        assert total > 1000

    def test_axioms_on_handmade_graphs(self):
        rng = random.Random(7)
        for edges in ([("A", "B"), ("B", "C"), ("C", "D")],
                      [("A", "C"), ("B", "C"), ("C", "D")]):
            dag = Dag(["A", "B", "C", "D"], edges)
            ind = lambda xs, ys, zs: dag.d_separated(xs, ys, zs)
            run_axiom_sweep(ind, dag.nodes, AXIOMS, 200, rng)


class TestDiscreteSemiGraphoid:
    def test_all_builtin_joints(self):
        rng = random.Random(99)
        for name in BUILTINS:
            s = builtin(name)
            if s.kind != "discrete":
                continue
            joint = s.joint
            ind = lambda xs, ys, zs: joint.is_independent_sets(xs, ys, zs)
            run_axiom_sweep(ind, s.dag.nodes, SEMI_GRAPHOID, 100, rng)


class TestCompositionCounterexample:
    """The noisy xor refutes composition for distributions: Y is
    independent of X and of Z separately, but not of the pair."""

    def test_example1(self, example1):
        j = example1.joint
        assert j.is_independent_sets({"Y"}, {"X"}, ())
        assert j.is_independent_sets({"Y"}, {"Z"}, ())
        assert not j.is_independent_sets({"Y"}, {"X", "Z"}, ())
