"""The marginal lattice (``distribution._Lattice``) against the sum-out loop
it replaced, and the one lattice each joint and dataset owns."""

import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_cpt_net
from kassoc import distribution
from kassoc.audit import audit_scenario, check_cmc
from kassoc.distribution import Dataset, DiscreteJoint, _Lattice, _index_map, _strides, _sum_out
from kassoc.gtest import g_test
from kassoc.oracle import GTestOracle
from kassoc.scenarios import Scenario, builtin


def reference_marginal(weights, cards, order):
    """Reference: the projection every query ran before the lattice.  It sums
    the full table over each dropped position, highest first, then scatters
    the ascending marginal into ``order``."""
    table, kept = weights, list(cards)
    keep = set(order)
    for p in range(len(cards) - 1, -1, -1):
        if p not in keep:
            table = _sum_out(table, kept, p)
            del kept[p]
    ascending = sorted(order)
    if list(order) == ascending:
        return list(table)
    strides, _ = _strides(cards, order)
    out = [0] * len(table)
    for k, w in zip(_index_map(kept, [strides[p] for p in ascending]), table):
        out[k] = w
    return out


def reference_is_independent(joint, xs, ys, s):
    """The exact CI criterion on the reference projection over (s, xs, ys),
    with s in the order given."""
    pos = [joint.names.index(n) for n in [*s, *xs, *ys]]
    w = reference_marginal(joint._weights, joint._cards, pos)
    ny = math.prod(joint.card(n) for n in ys)
    block = math.prod(joint.card(n) for n in xs) * ny
    for b in range(0, len(w), block):
        w_s = sum(w[b : b + block])
        w_ys = [sum(w[b + j : b + block : ny]) for j in range(ny)]
        for r in range(b, b + block, ny):
            row = w[r : r + ny]
            if any(v * w_s != sum(row) * w_y for v, w_y in zip(row, w_ys)):
                return False
    return True


@st.composite
def joints(draw):
    """Joints over 1-6 variables of cardinality 1-3: arbitrary small integer
    tables (zeros included), or products of one factor per variable, so
    that some conditional independences hold."""
    cards = draw(st.lists(st.integers(1, 3), min_size=1, max_size=6))
    size = math.prod(cards)
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    else:
        weights = [1]
        for c in cards:
            factor = draw(st.lists(st.integers(0, 3), min_size=c, max_size=c))
            weights = [w * f for w in weights for f in factor]
    if not any(weights):
        weights[-1] = 1
    variables = tuple((f"V{i}", c) for i, c in enumerate(cards))
    return DiscreteJoint._from_weights(variables, weights, sum(weights))


def orders(n):
    """A random ordered subset of range(n)."""
    return st.permutations(range(n)).flatmap(
        lambda perm: st.integers(0, n).map(lambda k: perm[:k]))


def queries(names):
    """(xs, ys, s): disjoint, xs and ys non-empty, each in random order."""
    def split(perm):
        n = len(perm)
        return st.tuples(st.integers(1, n - 1), st.integers(1, n - 1)).filter(
            lambda t: t[0] + t[1] <= n
        ).flatmap(lambda t: st.integers(t[0] + t[1], n).map(
            lambda end: (perm[: t[0]], perm[t[0] : t[0] + t[1]], perm[t[0] + t[1] : end])))
    return st.permutations(names).flatmap(split)


@settings(max_examples=150, deadline=None)
@given(joint=joints(), budget=st.sampled_from([None, 0, 1, 5, 20]), data=st.data())
def test_one_lattice_reused_matches_the_reference(joint, budget, data):
    """One lattice serves many projections; with a small budget it stops
    storing partway through and keeps answering exactly."""
    weights, cards = joint._weights, joint._cards
    with mock.patch.object(distribution, "MAX_CELLS", budget or distribution.MAX_CELLS):
        lattice = _Lattice(weights, cards)
        for _ in range(25):
            order = data.draw(orders(len(cards)))
            assert list(lattice.project(order)) == reference_marginal(weights, cards, order)
            assert lattice.marginals.cells <= distribution.MAX_CELLS
            assert lattice.marginals.cells == sum(map(len, lattice.marginals.values()))


@settings(max_examples=150, deadline=None)
@given(joint=joints(), budget=st.sampled_from([None, 0, 4]), data=st.data())
def test_ci_answers_match_the_reference_projection(joint, budget, data):
    """One joint, reused across many queries through its own lattice, gives
    the answer the reference projection gives, for s in any order."""
    if len(joint.names) < 2:
        return
    with mock.patch.object(distribution, "MAX_CELLS", budget or distribution.MAX_CELLS):
        for _ in range(15):
            xs, ys, s = data.draw(queries(joint.names))
            want = reference_is_independent(joint, xs, ys, s)
            assert joint.is_independent_sets(xs, ys, s) == want, (xs, ys, s)
            assert joint.is_independent_sets(xs, ys, s[::-1]) == want, (xs, ys, s)
        assert joint._lattice.marginals.cells <= distribution.MAX_CELLS


def seeded_scenario(n):
    rng = random.Random(f"lattice-ownership:{n}")
    dag, cpts = random_cpt_net(rng, n, n + 2, 3)
    return Scenario(f"net{n}", dag, "discrete", cpts=cpts)


def test_audit_lattice_stays_within_a_small_budget(monkeypatch):
    """A scenario built and fully audited under a 300-cell budget (its
    8-node table has 3**8 = 6561 cells) stores at most 300 cells in its
    joint's lattice and reports what an unbudgeted audit reports."""
    want = audit_scenario(seeded_scenario(8)).to_dict()
    monkeypatch.setattr(distribution, "MAX_CELLS", 300)
    scenario = seeded_scenario(8)
    assert audit_scenario(scenario).to_dict() == want
    marginals = scenario.joint._lattice.marginals
    assert 0 < marginals.cells <= 300
    assert marginals.cells == sum(map(len, marginals.values()))


@pytest.mark.parametrize("make", [
    lambda: builtin("example1"),
    lambda: builtin("example2"),
    lambda: builtin("xor_chain"),
    lambda: seeded_scenario(8),
], ids=["example1", "example2", "xor_chain", "net8"])
def test_markov_check_fills_the_lattice_the_oracle_reads(make):
    """The construction-time local-Markov check and the audit's CMC check
    ask the same statements of the same joint, so the audit adds no
    marginal to the lattice the scenario's check filled."""
    scenario = make()
    marginals = scenario.joint._lattice.marginals
    before = dict(marginals)
    assert before
    assert check_cmc(scenario.dag, scenario.oracle()).holds
    assert marginals.keys() == before.keys()
    assert all(marginals[k] is v for k, v in before.items())


def test_gtest_oracle_statistics_are_bit_identical():
    """The G-test projects (name-sorted s, x, y) through the dataset's
    reused lattice and gets the very statistic a fresh dataset gets."""
    data = seeded_scenario(7).joint.sample(500, 3)
    oracle = GTestOracle(data)
    names = data.names
    for i, x in enumerate(names):
        for y in names[i + 1 :]:
            rest = sorted(v for v in names if v not in (x, y))
            for s in (rest[:1], rest[1:4], rest[::-2]):
                got = g_test(data, x, y, sorted(s))
                assert got == g_test(Dataset(data.variables, data.rows), x, y, sorted(s))
                assert oracle.query(x, y, s) == got.independent
    assert data._lattice.marginals
