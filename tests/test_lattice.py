"""The marginal lattice (``distribution._Lattice``) and the CI kernel on it
against the Fraction references of ``references``, which share no helper
with them, and the one lattice each joint and dataset owns; and the
budgeted store it shares with the Gaussian minors lattice
(``distribution._MaskLattice``), on both."""

import itertools
import math
import random
import re
from fractions import Fraction as F
from operator import eq, mul
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_cpt_net
from kassoc import distribution
from kassoc.audit import audit_scenario, check_cmc
from kassoc.distribution import Dataset, DiscreteJoint, DistributionError, _Lattice
from kassoc.gaussian import _Minors, integer_scaled
from kassoc.graph import _bits
from kassoc.gtest import GTestConfig, _g_test, g_test
from kassoc.oracle import GTestOracle
from kassoc.scenarios import Scenario, builtin
from references import (comprehension_index_map, fraction_is_independent_sets,
                        fraction_marginal, random_sem, stride_walk_corners,
                        stride_walk_gathers)


def from_weights(variables, weights):
    """The joint of non-negative integer ``weights`` over ``variables``,
    built the way a copy is: one identity factor."""
    return DiscreteJoint._product(variables, [(range(len(variables)), sum(weights), weights)])


def ascending_marginal(joint, mask):
    """Reference: the marginal over the positions in ``mask``, in ascending
    order, as Fractions in row-major order."""
    kept = [(n, c) for p, (n, c) in enumerate(joint.variables) if mask >> p & 1]
    want = fraction_marginal(joint, [n for n, _ in kept])
    return [want[a] for a in itertools.product(*(range(c) for _, c in kept))]


@st.composite
def joints(draw, cards=st.lists(st.integers(1, 3), min_size=1, max_size=6)):
    """Joints over ``cards`` (by default 1-6 variables of cardinality 1-3):
    arbitrary small integer tables (zeros included), or products of one
    factor per variable, so that some conditional independences hold."""
    cards = draw(cards)
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
    return from_weights(variables, weights)


def queries(names):
    """(xs, ys, s): disjoint, xs and ys non-empty, each in random order."""
    def split(perm):
        n = len(perm)
        return st.tuples(st.integers(1, n - 1), st.integers(1, n - 1)).filter(
            lambda t: t[0] + t[1] <= n
        ).flatmap(lambda t: st.integers(t[0] + t[1], n).map(
            lambda end: (perm[: t[0]], perm[t[0] : t[0] + t[1]], perm[t[0] + t[1] : end])))
    return st.permutations(names).flatmap(split)


def held(lattice):
    """The entries a lattice keeps past its root, the full table, which it
    always holds and never counts."""
    return {k: v for k, v in lattice.items() if k != lattice.full}


def held_cells(lattice):
    """The cells of the distinct lists a lattice keeps past its root's: an
    entry that aliases a kept list (a cardinality-1 position summed out)
    holds no cell of its own."""
    root = lattice[lattice.full][0]
    kept = {id(table): table for table, _ in held(lattice).values() if table is not root}
    return sum(map(len, kept.values()))


def unless_none(budget):
    """The patched ``MAX_CELLS``: ``budget``, or the real one for None."""
    return distribution.MAX_CELLS if budget is None else budget


@settings(max_examples=150, deadline=None)
@given(joint=joints(), budget=st.sampled_from([None, 0, 1, 5, 20]), data=st.data())
def test_one_lattice_reused_matches_the_reference(joint, budget, data):
    """One lattice serves many marginals; with a small budget it stops
    storing partway through and keeps answering exactly."""
    weights, cards = joint._weights, joint._cards
    with mock.patch.object(distribution, "MAX_CELLS", unless_none(budget)):
        lattice = _Lattice(weights, cards)
        for _ in range(25):
            mask = data.draw(st.integers(0, (1 << len(cards)) - 1))
            got = [F(w, joint._denom) for w in lattice[mask][0]]
            assert got == ascending_marginal(joint, mask), mask
            assert lattice.cells <= distribution.MAX_CELLS
            assert lattice.cells == held_cells(lattice)


@settings(max_examples=150, deadline=None)
@given(joint=joints(), budget=st.sampled_from([None, 0, 4]), data=st.data())
def test_ci_answers_match_the_reference_projection(joint, budget, data):
    """One joint, reused across many queries through its own lattice, gives
    the Fraction criterion's answer, for s in any order."""
    if len(joint.names) < 2:
        return
    with mock.patch.object(distribution, "MAX_CELLS", unless_none(budget)):
        for _ in range(15):
            xs, ys, s = data.draw(queries(joint.names))
            want = fraction_is_independent_sets(joint, xs, ys, s)
            assert joint.is_independent_sets(xs, ys, s) == want, (xs, ys, s)
            assert joint.is_independent_sets(xs, ys, s[::-1]) == want, (xs, ys, s)
        assert joint._lattice.cells <= distribution.MAX_CELLS


def seeded_joint(seed, cards):
    """Integer weights over ``cards``, about half of them 0 (so that many
    conditioning values have P(s) = 0), or for odd seeds a product of one
    such factor per variable (so that independences hold)."""
    rng = random.Random(f"ci-kernel:{seed}")
    if seed % 2:
        weights = [1]
        for c in cards:
            factor = [rng.choice((0, 1, 2, 3)) for _ in range(c)]
            weights = [w * f for w in weights for f in factor]
    else:
        weights = [rng.choice((0, 0, 0, 1, 2, 5)) for _ in range(math.prod(cards))]
    weights[-1] += not any(weights)
    variables = tuple((f"V{i}", c) for i, c in enumerate(cards))
    return from_weights(variables, weights)


def every_query(names):
    """Every (xs, ys, s) with disjoint sides, xs and ys non-empty."""
    for roles in itertools.product("xys-", repeat=len(names)):
        xs, ys, s = ([n for n, r in zip(names, roles) if r == k] for k in "xys")
        if xs and ys:
            yield xs, ys, s


@pytest.mark.parametrize("budget", [None, 0], ids=["stored", "never-stored"])
@pytest.mark.parametrize("cards", [(2, 3, 1, 2), (3, 2, 2, 3), (1, 3, 2, 2, 2)])
def test_ci_kernel_matches_the_block_loop_on_every_query(cards, budget):
    """The one-pass four-marginal check gives the Fraction criterion's
    answer on every query of seeded joints with cardinalities 1-3 and zero
    cells, multi-variable sides included, also with marginals that are
    never stored (a budget of 0)."""
    seen = set()
    for seed in range(4):
        joint = seeded_joint(seed, cards)
        with mock.patch.object(distribution, "MAX_CELLS", unless_none(budget)):
            for xs, ys, s in every_query(joint.names):
                want = fraction_is_independent_sets(joint, xs, ys, s)
                assert joint.is_independent_sets(xs, ys, s) == want, (seed, xs, ys, s)
                seen.add((want, "multi") if len(xs) + len(ys) > 2 else (want, "single"))
                if 0 in fraction_marginal(joint, s).values():
                    seen.add((want, "P(s) = 0"))
        assert joint._lattice.cells <= unless_none(budget)
    assert seen == {(want, case) for want in (True, False)
                    for case in ("single", "multi", "P(s) = 0")}


@pytest.mark.parametrize("xs, ys, s, message", [
    (["Q"], ["V1"], [], "unknown variable 'Q'"),
    (["V0"], ["V1"], ["V2", "Q"], "unknown variable 'Q'"),
    ([], ["V1"], [], "query sets must be non-empty"),
    (["V0"], [], ["V1"], "query sets must be non-empty"),
    (["V0"], ["V0"], [], "query sets must be pairwise disjoint and repeat no variable"),
    (["V0"], ["V1"], ["V1"], "query sets must be pairwise disjoint and repeat no variable"),
    (["V0", "V0"], ["V1"], [], "query sets must be pairwise disjoint and repeat no variable"),
])
def test_ci_kernel_errors_keep_their_texts(xs, ys, s, message):
    joint = seeded_joint(0, (2, 3, 2))
    with pytest.raises(DistributionError, match=f"^{re.escape(message)}$"):
        joint.is_independent_sets(xs, ys, s)


def four_marginal_check(joint, mx, my, ms):
    """The slow twin of the 2x2 path: w_M * w_s == w_{s,x} * w_{s,y} on
    every cell of M, through ``_Lattice.ci_cells``."""
    w_m, w_s, w_sx, w_sy = joint._lattice.ci_cells(mx, my, ms)
    return all(map(eq, map(mul, w_m, w_s), map(mul, w_sx, w_sy)))


def pair_masks(joint, x, y, s):
    return 1 << joint.names.index(x), 1 << joint.names.index(y), sum(
        1 << joint.names.index(v) for v in s)


def binary_pair(joint, x, y):
    return joint._cards[joint.names.index(x)] == joint._cards[joint.names.index(y)] == 2


def ints_held(cache):
    """The ints a plan cache holds: every index list of every plan, four
    for a corner plan and three for a four-marginal plan."""
    return sum(sum(map(len, plan)) for plan in cache.values())


def test_gather_cache_starts_over_past_its_budget(monkeypatch):
    """Shared plans stay within ``MAX_CELLS``: a plan that would pass it
    empties the cache first, so the plan of the latest query is kept, if it
    fits at all, rather than the first ones ever seen, and every answer
    stays exact.  A binary pair reads the corner plan keyed by w_M's shape
    and the axes of x and y, which holds as many ints as w_M has cells; any
    other query reads the four-marginal plan keyed by the axes of xs and ys
    as bitmasks over w_M's axes and the shape, three times as many ints."""
    monkeypatch.setattr(distribution, "MAX_CELLS", 60)
    monkeypatch.setattr(distribution, "_GATHERS", distribution._Recent())
    joint = seeded_joint(1, (2, 3, 2, 2))
    gathers = distribution._GATHERS
    seen = set()
    for xs, ys, s in every_query(joint.names):
        before = gathers.cells
        assert joint.is_independent_sets(xs, ys, s) == fraction_is_independent_sets(joint, xs, ys, s)
        assert gathers.cells == ints_held(gathers) <= 60
        positions = sorted(joint.names.index(n) for n in [*xs, *ys, *s])
        shape = tuple(joint._cards[p] for p in positions)
        axis = {joint.names[p]: i for i, p in enumerate(positions)}
        if len(xs) == len(ys) == 1 and binary_pair(joint, xs[0], ys[0]):
            kind, key, ints = "corner", (shape, axis[xs[0]], axis[ys[0]]), math.prod(shape)
        else:
            bx, by = (sum(1 << axis[n] for n in side) for side in (xs, ys))
            kind, key, ints = "four", (bx, by, shape), 3 * math.prod(shape)
        # the plan it read is kept exactly when it fits
        assert (key in gathers) == (ints <= 60), (xs, ys, s)
        if key in gathers:
            assert ints_held({key: gathers[key]}) == ints
        seen.add((kind, key in gathers))
        if gathers.cells < before:
            seen.add("started over")
    assert seen == {("corner", True), ("four", True), ("four", False), "started over"}


def test_a_plan_past_the_whole_budget_leaves_the_cache_as_it_is(monkeypatch):
    """A plan bigger than ``MAX_CELLS`` alone is used and not kept, and the
    plans the cache holds stay: on ``xor_chain`` under a 40-int budget, the
    set query's four-marginal plan (3 * 32 ints) does not empty it."""
    scenario = builtin("xor_chain")
    oracle = scenario.oracle()
    monkeypatch.setattr(distribution, "MAX_CELLS", 40)
    monkeypatch.setattr(distribution, "_GATHERS", distribution._Recent())
    gathers = distribution._GATHERS
    oracle.query("X", "U")
    kept = dict(gathers)
    assert len(kept) == 1 and gathers.cells == ints_held(gathers)
    xs, ys, s = ["X"], ["U", "W", "Z"], ["Y"]
    want = fraction_is_independent_sets(scenario.joint, xs, ys, s)
    assert oracle.query_sets(xs, ys, s) == want
    assert gathers == kept and gathers.cells == ints_held(kept)


def reference_ci_cells(lattice, mx, my, ms):
    """``_Lattice.ci_cells`` read through the stride walk's gather lists."""
    g_s, g_sx, g_sy = stride_walk_gathers(lattice[lattice.full][1], mx, my, ms)
    w_s, w_sx, w_sy = lattice[ms][0], lattice[ms | mx][0], lattice[ms | my][0]
    return (lattice[mx | my | ms][0], [w_s[i] for i in g_s], [w_sx[i] for i in g_sx],
            [w_sy[i] for i in g_sy])


def query_bits(joint, xs, ys, s):
    return tuple(sum(1 << joint.names.index(n) for n in side) for side in (xs, ys, s))


@pytest.mark.parametrize("cards", [(2, 1, 4, 2, 3), (3, 2, 4, 2, 1), (4, 2, 2, 2, 3)])
def test_plans_match_the_stride_walk(cards):
    """On seeded joints with cardinalities 1-4 and zero cells, for every M
    and every x and y, single or set-valued: the plan a query reads, alone
    in a fresh cache, holds the stride walk's index lists, and the cells
    it reads, also through one cache that every query and both plan kinds
    share, are the cells read through those lists."""
    corner_pairs = 0
    for seed in range(2):
        joint = seeded_joint(seed, cards)
        lattice = joint._lattice
        shared = distribution._Recent()
        for xs, ys, s in every_query(joint.names):
            masks = query_bits(joint, xs, ys, s)
            want = [list(c) for c in reference_ci_cells(lattice, *masks)]
            reads = [(_Lattice.ci_cells, stride_walk_gathers(cards, *masks), want)]
            if len(xs) == len(ys) == 1 and binary_pair(joint, xs[0], ys[0]):
                corner_pairs += 1
                corners = stride_walk_corners(cards, *masks)
                reads.append((_Lattice.corner_cells, corners,
                              [[want[0][i] for i in c] for c in corners]))
            for read, lists, cells in reads:
                with mock.patch.object(distribution, "_GATHERS", distribution._Recent()) as fresh:
                    assert [list(c) for c in read(lattice, *masks)] == cells, (xs, ys, s)
                    (plan,) = fresh.values()
                assert plan == lists, (xs, ys, s)
                with mock.patch.object(distribution, "_GATHERS", shared):
                    assert [list(c) for c in read(lattice, *masks)] == cells, (xs, ys, s)
    assert corner_pairs


@pytest.mark.parametrize("seed", range(3))
def test_index_map_matches_the_comprehension(seed):
    """Random shapes of 0-5 axes with cardinalities 1-4 and strides that
    are 0 or not (row-major or arbitrary), the empty shape included: the
    index map built from the last axis up is the comprehension's."""
    rng = random.Random(f"index-map:{seed}")
    kinds = set()
    for _ in range(300):
        cards = [rng.randint(1, 4) for _ in range(rng.randint(0, 5))]
        if rng.random() < 0.3:
            kept = [p for p in range(len(cards)) if rng.random() < 0.6]
            strides = distribution._strides(cards, kept)[0]
        else:
            strides = [rng.choice((0, 0, 1, 2, 3, 7, 12)) for _ in cards]
        assert distribution._index_map(cards, strides) == comprehension_index_map(cards, strides)
        kinds.add("empty" if not cards else (0 in strides, any(strides)))
    assert kinds == {"empty", (True, True), (True, False), (False, True)}


@pytest.mark.parametrize("budget", [None, 0, 1, 18])
def test_a_miss_reads_any_stored_one_larger_superset(budget):
    """A miss sums one position out of a kept marginal over one more
    position, the highest such position first, and walks on through the
    highest missing position only when none is kept.  The queries run so
    that a miss finds a kept superset that is not the highest one when the
    budget keeps it (18 cells hold the marginals over V0-V2 and V0-V1);
    under every budget each marginal equals the Fraction one summed from
    the table, and each kept one is held with its shape."""
    cards = (2, 3, 2, 4)
    joint = seeded_joint(0, cards)
    lattice = joint._lattice
    masks = [0b0011, 0b0001, 0b0110, 0b0010, 0b0000, 0b1010, 0b1000]
    masks += random.Random("superset-miss").sample(range(16), 16)
    with mock.patch.object(distribution, "MAX_CELLS", unless_none(budget)), \
            mock.patch.object(distribution, "_sum_out", wraps=distribution._sum_out) as sum_out:
        for i, mask in enumerate(masks):
            stored = 0b0011 in lattice
            sum_out.reset_mock()
            got = [F(w, joint._denom) for w in lattice[mask][0]]
            assert got == ascending_marginal(joint, mask), mask
            assert all(shape == tuple(c for p, c in enumerate(cards) if k >> p & 1)
                       for k, (_, shape) in lattice.items())
            assert lattice.cells <= distribution.MAX_CELLS
            if i == 1:
                # V1 is summed out of the stored marginal over V0 and V1;
                # with nothing stored, V3 is summed out last, down from the
                # table through the marginals over V0, V2, V3 and V0, V3
                reads = [call.args[1:] for call in sum_out.call_args_list]
                assert stored == (budget in (None, 18))
                assert reads == ([((2, 3), 1)] if stored else
                                 [(cards, 1), ((2, 2, 4), 1), ((2, 4), 1)]), budget


@pytest.mark.parametrize("budget", [0, 3, 12])
def test_shapes_are_kept_only_with_their_marginals(budget):
    """Under a small budget, or none, a query's marginals past it are
    computed and not kept: every answer stays exact, and each entry the
    lattice holds is a marginal with its shape, the cardinalities of the
    mask's positions in ascending order; the full mask holds the table
    itself, which is not counted."""
    cards = (2, 3, 1, 2, 4)
    joint = seeded_joint(0, cards)
    lattice = joint._lattice
    with mock.patch.object(distribution, "MAX_CELLS", budget):
        for xs, ys, s in every_query(joint.names):
            want = fraction_is_independent_sets(joint, xs, ys, s)
            assert joint.is_independent_sets(xs, ys, s) == want, (xs, ys, s)
            assert lattice.cells == held_cells(lattice) <= budget
        for mask, (table, shape) in held(lattice).items():
            assert shape == tuple(c for p, c in enumerate(cards) if mask >> p & 1)
            assert len(table) == math.prod(shape)
        full = (1 << len(cards)) - 1
        assert lattice[full] == (joint._weights, cards)
        assert lattice.full == full
    assert bool(held_cells(lattice)) == bool(budget)
    if not budget:
        # position 2 has cardinality 1, so the marginal over every other
        # position is the table itself: the one entry a budget of 0 keeps
        assert list(held(lattice)) == [full ^ 0b100]
        assert lattice[full ^ 0b100][0] is lattice[full][0]


def test_an_alias_holds_no_cell():
    """Over A (2), B (1) and C (2), the marginal over A and C is the table
    itself: the lattice keeps it as the root's own list and counts no cell
    for it, and the marginal over A, one step further, counts its 2."""
    joint = from_weights((("A", 2), ("B", 1), ("C", 2)), [1, 2, 3, 4])
    lattice = joint._lattice
    table, shape = lattice[0b101]
    assert table is lattice[0b111][0] and shape == (2, 2)
    assert lattice.cells == 0
    assert lattice[0b001] == ([3, 7], (2,))
    assert lattice.cells == held_cells(lattice) == 2


def test_an_alias_of_a_marginal_past_the_budget_is_not_kept():
    """Over A (2), B (3) and C (1), the marginal over A is the marginal over
    A and C, which a budget of 1 cell does not keep: the alias holds its 2
    cells, so it is not kept either."""
    joint = from_weights((("A", 2), ("B", 3), ("C", 1)), [1, 2, 3, 4, 5, 6])
    lattice = joint._lattice
    with mock.patch.object(distribution, "MAX_CELLS", 1):
        assert lattice[0b001] == ([6, 15], (2,))
    assert held(lattice) == {} and lattice.cells == 0


@pytest.mark.parametrize("budget", [0, 2, 6, 12])
def test_cardinality_one_positions_spend_no_budget(budget):
    """With positions of cardinality 1 and a small budget, every answer is
    exact, the cells counted are those of the distinct lists kept, and a
    kept entry shares its list only with entries over the same positions
    of cardinality above 1."""
    cards = (1, 2, 1, 3, 2)
    ones = sum(1 << p for p, c in enumerate(cards) if c == 1)
    for seed in range(2):
        joint = seeded_joint(seed, cards)
        lattice = joint._lattice
        with mock.patch.object(distribution, "MAX_CELLS", budget):
            for xs, ys, s in every_query(joint.names):
                want = fraction_is_independent_sets(joint, xs, ys, s)
                assert joint.is_independent_sets(xs, ys, s) == want, (xs, ys, s)
                assert lattice.cells == held_cells(lattice) <= budget
        for mask, (table, _) in lattice.items():
            assert [F(w, joint._denom) for w in table] == ascending_marginal(joint, mask)
        for (m1, (t1, _)), (m2, (t2, _)) in itertools.combinations(lattice.items(), 2):
            assert t1 is not t2 or m1 & ~ones == m2 & ~ones


def leibniz_det(a):
    """Determinant by Leibniz's formula: a sum over permutations."""
    n = len(a)
    return sum((-1) ** sum(p[i] > p[j] for i, j in itertools.combinations(range(n), 2))
               * math.prod(a[i][p[i]] for i in range(n))
               for p in itertools.permutations(range(n)))


def discrete_store():
    """A joint's marginal lattice, an entry as Fractions, the reference
    entry of a mask (the Fraction marginal and its shape) and the cells an
    entry holds."""
    joint = seeded_joint(0, (2, 3, 2, 2, 3))

    def got(entry):
        return [F(w, joint._denom) for w in entry[0]], entry[1]

    def want(mask):
        return ascending_marginal(joint, mask), tuple(
            c for p, c in enumerate(joint._cards) if mask >> p & 1)
    return joint._lattice, got, want, lambda entry: len(entry[0])


def gaussian_store():
    """A system's minors lattice, an entry as it is, the reference entry
    of a mask S (det cov[S, S] and each det cov[S + i, S + j] for i, j
    outside S, by Leibniz) and the cells an entry holds."""
    cov = integer_scaled(random_sem(random.Random("mask-lattice"), 5).covariance())

    def minor(rows, cols):
        return leibniz_det([[cov[i][j] for j in cols] for i in rows])

    def want(ms):
        s = list(_bits(ms))
        out = [i for i in range(len(cov)) if not ms >> i & 1]
        return minor(s, s), [[minor(s + [i], s + [j]) for j in out] for i in out]
    return _Minors(cov), lambda entry: entry, want, lambda entry: len(entry[1]) ** 2 + 1


@pytest.mark.parametrize("budget", [0, 1, 40, None])
@pytest.mark.parametrize("make", [discrete_store, gaussian_store], ids=["discrete", "gaussian"])
def test_both_lattices_keep_one_budget(make, budget):
    """The contract of ``_MaskLattice``, on the marginal lattice of a joint
    and the minors lattice of a Gaussian system, each read at every mask
    in a seeded order: every entry equals its reference; the root is held
    and never counted, so ``cells`` is the sum over the other entries and
    stays within the budget; and a value past the budget is computed and
    not kept, so it is read at full price again."""
    store, got, want, size = make()
    (root, value), = store.items()
    masks = random.Random(f"mask-lattice:{budget}").sample(range(1 << 5), 1 << 5)
    seen = set()
    with mock.patch.object(distribution, "MAX_CELLS", unless_none(budget)):
        for mask in masks:
            entry = store[mask]
            assert got(entry) == want(mask), mask
            assert store[root] is value
            assert store.cells == sum(size(v) for k, v in store.items() if k != root)
            assert store.cells <= distribution.MAX_CELLS
            if mask != root:
                # the last step of a walk is the last that could keep a value
                assert mask in store or store.cells + size(entry) > distribution.MAX_CELLS
                seen.add(mask in store)
    assert seen == {None: {True}, 0: {False}}.get(budget, {True, False})


@pytest.mark.parametrize("cards", [(2, 3, 1, 2), (3, 2, 4, 2, 2)])
def test_gtest_through_the_stride_walk_is_bit_identical(cards):
    """Every pairwise G-test on datasets sampled from seeded joints gives
    the very statistic, df and verdict when its four marginals are read
    through the stride walk's gather lists."""
    for seed in range(2):
        data = seeded_joint(seed, cards).sample(300, seed)
        names = data.names
        for xs, ys, s in every_query(names):
            if len(xs) + len(ys) > 2:
                continue
            masks = query_bits(data, xs, ys, s)
            got = _g_test(data, *masks, GTestConfig())
            with mock.patch.object(_Lattice, "ci_cells", reference_ci_cells):
                want = _g_test(data, *masks, GTestConfig())
            assert (got.statistic.hex(), got.df, got.independent) == (
                want.statistic.hex(), want.df, want.independent), (xs, ys, s)


@pytest.mark.parametrize("budget", [None, 0], ids=["stored", "never-stored"])
@pytest.mark.parametrize("cards", [(2, 1, 2, 4, 3), (3, 2, 4, 2, 2, 1), (2, 2, 2, 4)])
def test_binary_pairs_agree_with_the_four_marginal_check(cards, budget):
    """Every pairwise query of seeded joints whose other variables have
    cardinalities 1-4, many with strata of probability 0: the kernel, the
    four-marginal check and the Fraction criterion agree, whether the
    marginals and plans are stored or not (a budget of 0)."""
    seen = set()
    for seed in range(4):
        joint = seeded_joint(seed, cards)
        with mock.patch.object(distribution, "MAX_CELLS", unless_none(budget)), \
                mock.patch.object(distribution, "_GATHERS", distribution._Recent()):
            for xs, ys, s in every_query(joint.names):
                if len(xs) + len(ys) > 2:
                    continue
                masks = pair_masks(joint, xs[0], ys[0], s)
                want = fraction_is_independent_sets(joint, xs, ys, s)
                assert joint._independent(*masks) == want, (seed, xs, ys, s)
                assert four_marginal_check(joint, *masks) == want, (seed, xs, ys, s)
                if binary_pair(joint, xs[0], ys[0]):
                    seen.add((want, "binary"))
                    if 0 in fraction_marginal(joint, s).values():
                        seen.add((want, "P(s) = 0"))
            assert distribution._GATHERS.cells <= unless_none(budget)
    assert seen == {(want, case) for want in (True, False) for case in ("binary", "P(s) = 0")}


@st.composite
def binary_pair_joints(draw):
    """A ``joints`` table over two binary variables and 0-3 more of
    cardinality 1-4, in random positions, and one pairwise query on two
    binary variables given a random subset of the others."""
    others = st.lists(st.integers(1, 4), max_size=3)
    joint = draw(joints(others.flatmap(lambda o: st.permutations([2, 2, *o]))))
    x, y = draw(st.permutations([n for n, c in joint.variables if c == 2]))[:2]
    rest = [n for n in joint.names if n not in (x, y)]
    s = draw(st.lists(st.sampled_from(rest), unique=True)) if rest else []
    return joint, x, y, s


@settings(max_examples=300, deadline=None)
@given(case=binary_pair_joints(), budget=st.sampled_from([None, 0, 8]))
def test_binary_pair_kernel_matches_its_slow_twin(case, budget):
    """On random small tables the 2x2 check answers as the four-marginal
    check and the Fraction criterion do, for either order of x and y."""
    joint, x, y, s = case
    masks = pair_masks(joint, x, y, s)
    with mock.patch.object(distribution, "MAX_CELLS", unless_none(budget)):
        got = joint._independent(*masks)
        assert got == four_marginal_check(joint, *masks)
        assert got == fraction_is_independent_sets(joint, [x], [y], s)
        assert got == joint._independent(masks[1], masks[0], masks[2])


def test_only_binary_pairs_skip_the_four_marginal_check():
    """A single binary x and y are checked on 2x2 tables; a set on either
    side, or a side with three states, goes through ``ci_cells``."""
    joint = seeded_joint(1, (2, 3, 2, 2))  # V1 has three states
    with mock.patch.object(_Lattice, "ci_cells", autospec=True,
                           side_effect=_Lattice.ci_cells) as ci_cells:
        for xs, ys, s in [(["V0"], ["V2"], []), (["V3"], ["V0"], ["V1", "V2"])]:
            joint.is_independent_sets(xs, ys, s)
        assert ci_cells.call_count == 0
        for xs, ys, s in [(["V0"], ["V1"], []), (["V1"], ["V2"], ["V3"]),
                          (["V0", "V2"], ["V3"], []), (["V0"], ["V2", "V3"], ["V1"])]:
            joint.is_independent_sets(xs, ys, s)
        assert ci_cells.call_count == 4


def test_a_binary_pair_reads_only_the_marginal_over_m():
    """One binary pairwise query on a fresh joint stores the marginal over
    M = s | x | y and none over s, s | x or s | y."""
    joint = seeded_joint(0, (2, 3, 2, 2, 3, 2))
    mx, my, ms = pair_masks(joint, "V2", "V0", ["V4", "V1"])
    joint._independent(mx, my, ms)
    lattice = joint._lattice
    assert mx | my | ms in lattice
    assert not {ms, ms | mx, ms | my} & lattice.keys()


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
    lattice = scenario.joint._lattice
    assert 0 < lattice.cells <= 300
    assert lattice.cells == held_cells(lattice)


@pytest.mark.parametrize("make", [
    lambda: builtin("example1"),
    lambda: builtin("example2"),
    lambda: builtin("xor_chain"),
    lambda: seeded_scenario(8),
], ids=["example1", "example2", "xor_chain", "net8"])
def test_the_lattice_belongs_to_the_table_not_the_oracle(make):
    """After one CMC check through ``scenario.oracle()``, a second through a
    fresh oracle (an empty answer cache) sums nothing out: it adds no
    marginal and reads the very lists the first check stored."""
    scenario = make()
    lattice = scenario.joint._lattice
    assert not held(lattice)
    assert check_cmc(scenario.dag, scenario.oracle()).holds
    before = dict(lattice)
    assert held(lattice)
    with mock.patch.object(distribution, "_sum_out", wraps=distribution._sum_out) as sum_out:
        assert check_cmc(scenario.dag, scenario.oracle()).holds
    assert sum_out.call_count == 0
    assert lattice.keys() == before.keys()
    assert all(lattice[k] is v for k, v in before.items())


def test_gtest_oracle_statistics_are_bit_identical():
    """The G-test reads its four marginals from the dataset's reused
    lattice and gets the very statistic a fresh dataset gets."""
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
    assert held(data._lattice)
