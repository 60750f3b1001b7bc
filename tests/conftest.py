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


def backend_log(o):
    """``o``, its backend ``_query`` wrapped to append each call's masks to
    the returned list, in call order."""
    log, query = [], o._query
    o._query = lambda mx, my, ms: log.append((mx, my, ms)) or query(mx, my, ms)
    return o, log


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


def planted_xor_net(rng, n):
    """A seeded binary net of n nodes (``random_cpt_net``, n to 2n - 2 edges,
    in-degree <= 3, so some node has two parents) with a noisy XOR planted at
    one such node c: c keeps two of its parents, a and b, which lose their
    own parents and become fair coins, and c is their XOR flipped with
    probability 1/4.  Every other CPT is the random one.  Returns the graph,
    the CPTs and the planted triple {a, b, c}."""
    dag, cpts = random_cpt_net(rng, n, rng.randint(n, 2 * n - 2), 3)
    c = rng.choice([v for v in dag.nodes if len(dag.parents(v)) >= 2])
    a, b = rng.sample(sorted(dag.parents(c)), 2)
    edges = [(p, q) for p, q in dag.edges if q not in (a, b, c)] + [(a, c), (b, c)]
    planted = {a: Cpt.coin(a, F(1, 2)), b: Cpt.coin(b, F(1, 2)),
               c: Cpt.noisy_function(c, [a, b], [2, 2], lambda x, y: x ^ y, F(1, 4))}
    return Dag(dag.nodes, edges), [planted.get(cpt.child, cpt) for cpt in cpts], {a, b, c}


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
