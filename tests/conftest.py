import itertools
import os
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from kassoc import scenarios
from kassoc.distribution import Cpt, DiscreteJoint
from kassoc.graph import Dag

SRC = Path(__file__).resolve().parents[1] / "src"


def child_env(**extra):
    """The environment for a child interpreter that imports this checkout."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture(scope="session")
def example1():
    return scenarios.builtin("example1")


@pytest.fixture(scope="session")
def example2():
    return scenarios.builtin("example2")


@pytest.fixture(scope="session")
def all_builtins():
    return {name: scenarios.builtin(name) for name in scenarios.BUILTINS}


def random_cpt_net(rng, n, edges, max_in, cards=(2,), denom=12):
    """Seeded DAG over V0..V{n-1} with ``edges`` edges (as the in-degree cap
    allows) drawn along a random topological order, and CPTs whose entries
    are multiples of 1/denom (zeros allowed) over cardinalities from ``cards``."""
    names = [f"V{i}" for i in range(n)]
    order = rng.sample(range(n), n)
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    indeg, chosen = [0] * n, []
    for a, b in pairs:
        if len(chosen) == edges:
            break
        if indeg[order[b]] < max_in:
            indeg[order[b]] += 1
            chosen.append((names[order[a]], names[order[b]]))
    dag = Dag(names, chosen)
    card = {v: rng.choice(cards) for v in names}
    cpts = []
    for v in names:
        parents = tuple(sorted(dag.parents(v)))
        pcards = tuple(card[p] for p in parents)
        rows = {}
        for pa in itertools.product(*(range(c) for c in pcards)):
            cuts = sorted(rng.randint(0, denom) for _ in range(card[v] - 1))
            bounds = [0, *cuts, denom]
            rows[pa] = tuple(F(hi - lo, denom) for lo, hi in zip(bounds, bounds[1:]))
        cpts.append(Cpt(v, card[v], parents, pcards, rows))
    return dag, cpts


@pytest.fixture(scope="session")
def cpt_nets():
    """(dag, cpts) pairs: the two ``perfbench`` discrete_exact shapes (8 binary
    nodes, 16 edges, in-degree <= 4; 7 binary nodes, 11 edges, in-degree <= 3)
    over four seeds each, plus small nets with cardinalities 1-3."""
    nets = []
    for seed in range(4):
        rng = random.Random(f"cpt_nets:{seed}")
        nets.append(random_cpt_net(rng, 8, 16, 4))
        nets.append(random_cpt_net(rng, 7, 11, 3))
        nets.append(random_cpt_net(rng, 5, 6, 2, cards=(1, 2, 3)))
    return nets


def zero_cell_nets():
    """(dag, cpts) pairs: four seeded nets with CPT entries in quarters,
    zeros among them."""
    return [random_cpt_net(random.Random(seed), 5, 6, 2, cards=(2, 3), denom=4)
            for seed in range(4)]


def zero_cell_joints():
    """Joints with zero cells: those of ``zero_cell_nets``, and two tables
    that end in zero cells after partial sums that round past 1.0
    (1.0000000000000002 from 5/9 + 4 * 1/9) or stop below it (ten tenths
    sum to 0.9999999999999999)."""
    joints = [DiscreteJoint.from_cpts(dag, cpts) for dag, cpts in zero_cell_nets()]
    joints.append(DiscreteJoint([("A", 7)], [F(w, 9) for w in (5, 1, 1, 1, 1, 0, 0)]))
    joints.append(DiscreteJoint([("A", 3), ("B", 4)], [F(w, 10) for w in [1] * 10 + [0, 0]]))
    return joints
