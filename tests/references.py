"""Reference implementations and graph generators that only the tests use.

* A second d-separation implementation, written from the definition: list
  every simple path between x and y and test it clause by clause.  It
  reads only ``dag.nodes`` and ``dag.edges`` and collects the ancestors of
  Z itself, so it shares no helper with the reachability kernel in
  :mod:`kassoc.graph` that it checks.
* :func:`ancestor_mask`, the reflexive-transitive closure of a mask over
  parent (or child) masks, one node at a time; the slow twin of the
  descendant masks ``Dag._descendants`` that the d-separation kernel
  reads.  :func:`ancestors`, :func:`descendants` and
  :func:`non_descendants` of one node are read through it.
* :func:`enumerate_dags` and :func:`random_dag`: every labelled DAG on a
  few nodes, and seeded random DAGs.
* :func:`first_separating_set` over :func:`subsets_by_size`: the subset
  scan on names, asking each conditioning set through ``query``; the slow
  twin of the mask-level scan ``association._first_independent``, and
  :func:`rule_defeat`, the orientation rule's scan written on it.
* :func:`replay_consistent`: asks every query of a grow-shrink trace again.
* :func:`grow_on_names`, :func:`shrink_on_names` and
  :func:`markov_blanket_on_names`: grow-shrink on names, each step's
  conditioning set built as a name set and asked through ``query``; the
  slow twin of ``kassoc.growshrink``, which asks ``_ask`` on position masks.
* Fraction readers of a discrete joint, written from the definitions on
  ``variables`` and ``probs`` alone, so they share no helper with the
  integer lattice in :mod:`kassoc.distribution` that they check:
  :func:`assignments` (every cell, row-major), :func:`prob` (a full or
  partial assignment), :func:`fraction_marginal` and the CI criterion
  :func:`fraction_is_independent_sets`; and
  :func:`integer_product`, ``from_cpts`` cell by cell on the CPTs' scaled
  integer entries.
* :func:`stride_walk_corners` and :func:`stride_walk_gathers`: the index
  lists that the lattice's CI reads use, found by walking every position
  of a query's M and listing cells one by one; the slow twins of the
  plans kept by shape (``distribution._corner_plan`` and ``_ci_plan``).
* :func:`comprehension_index_map`: a table's index map grown from the
  first axis down by one list comprehension per axis; the slow twin of
  ``distribution._index_map``, which grows it from the last axis up.
* :func:`row_by_row_factor`: a CPT's rows checked and scaled one at a time,
  each by its own lcm, then brought to one denominator; the slow twin of
  the whole-table check in ``Cpt.__post_init__``, error texts included.
* :func:`mutually_independent`: full factorisation of a three-variable
  marginal, checked cell by cell on the integer weights; the reference for
  the unfaithful-triple search's one set query.
* :func:`inverse_partial_correlation_zero`: the Gauss-Jordan criterion
  (the precision matrix of the submatrix over x, y and s) on Fractions,
  the slow twin of the minors lattice in :mod:`kassoc.gaussian`, with
  which it shares no code; and :func:`random_sem`, seeded linear-Gaussian
  systems.
* :func:`regularized_gamma_p`: the lower regularized incomplete gamma
  P(a, x) for any real a > 0, by series below x = a + 1 and by Lentz's
  continued fraction above; the slow twin of the finite-sum chi-squared
  tail ``gtest.chi2_sf``.  Each side runs at most ``_MAX_ITER`` steps, so
  it has converged only for moderate a (up to a few thousand), and its
  tail 1 - P carries the rounding of that one subtraction.
"""

import itertools
import math
import operator
import random
from fractions import Fraction as F
from typing import Iterable, Iterator, Sequence

from kassoc.distribution import DiscreteJoint, DistributionError, exact
from kassoc.gaussian import GaussianError, GaussianSystem
from kassoc.graph import Dag, GraphError, query_masks
from kassoc.growshrink import GsStep
from kassoc.oracle import IndependenceOracle, OracleError

# -- brute-force d-separation -------------------------------------------------


def check_path(dag: Dag, path: Sequence[str]) -> None:
    if len(path) < 2:
        raise GraphError("a path has at least two nodes")
    if len(set(path)) != len(path):
        raise GraphError("path nodes must be distinct")
    for a, b in zip(path, path[1:]):
        if (a, b) not in dag.edges and (b, a) not in dag.edges:
            raise GraphError(f"{a} and {b} are not adjacent")


def is_collider(dag: Dag, path: Sequence[str], position: int) -> bool:
    """True iff both path neighbours point into path[position]."""
    check_path(dag, path)
    if not 0 < position < len(path) - 1:
        raise GraphError("collider status is undefined at path endpoints")
    c = path[position]
    return (path[position - 1], c) in dag.edges and (path[position + 1], c) in dag.edges


def simple_paths(dag: Dag, x: str, y: str) -> Iterator[tuple[str, ...]]:
    """All simple paths between x and y, ignoring edge direction."""
    for v in (x, y):
        if v not in dag.nodes:
            raise GraphError(f"unknown node {v!r}")
    neighbours = {v: [] for v in dag.nodes}
    for a, b in dag.edges:
        neighbours[a].append(b)
        neighbours[b].append(a)
    path = [x]

    def walk(cur: str) -> Iterator[tuple[str, ...]]:
        for nxt in neighbours[cur]:
            if nxt in path:
                continue
            path.append(nxt)
            if nxt == y:
                yield tuple(path)
            else:
                yield from walk(nxt)
            path.pop()

    yield from walk(x)


def _ancestors(dag: Dag, zs: set[str]) -> set[str]:
    """The nodes of zs and every node with a directed path into one of them."""
    anc = set(zs)
    frontier = list(zs)
    while frontier:
        v = frontier.pop()
        for a, b in dag.edges:
            if b == v and a not in anc:
                anc.add(a)
                frontier.append(a)
    return anc


def _path_d_connecting(dag: Dag, path, zs, anc_z) -> bool:
    for pos in range(1, len(path) - 1):
        node = path[pos]
        if is_collider(dag, path, pos):
            if node not in anc_z:
                return False
        elif node in zs:
            return False
    return True


def d_separated_bruteforce(
    dag: Dag, xs: Iterable[str], ys: Iterable[str], zs: Iterable[str] = ()
) -> bool:
    """Enumerate the simple paths from xs to ys and test the definition."""
    if len(dag.nodes) > 12:
        raise GraphError("brute-force oracle limited to 12 nodes")
    xs, ys, zs = set(xs), set(ys), set(zs)
    unknown = (xs | ys | zs) - set(dag.nodes)
    if unknown:
        raise GraphError(f"unknown node {sorted(unknown)[0]!r}")
    if not xs or not ys:
        raise GraphError("query sets must be non-empty")
    if xs & ys or xs & zs or ys & zs:
        raise GraphError("query sets must be pairwise disjoint")
    anc_z = _ancestors(dag, zs)
    for x in sorted(xs):
        for y in sorted(ys):
            for path in simple_paths(dag, x, y):
                if _path_d_connecting(dag, path, zs, anc_z):
                    return False
    return True


def ancestor_mask(parents: Sequence[int], seed_mask: int) -> int:
    """Reflexive-transitive parent closure of the nodes in ``seed_mask``."""
    anc = todo = seed_mask
    while todo:
        low = todo & -todo
        todo ^= low
        new = parents[low.bit_length() - 1] & ~anc
        anc |= new
        todo |= new
    return anc


def ancestors(dag: Dag, x: str) -> set[str]:
    """x and every node with a directed path into it."""
    return dag._labels(ancestor_mask(dag._parent_masks, 1 << dag.index(x)))


def descendants(dag: Dag, x: str) -> set[str]:
    """x and every node with a directed path from it."""
    return dag._labels(ancestor_mask(dag._child_masks, 1 << dag.index(x)))


def non_descendants(dag: Dag, x: str) -> set[str]:
    return set(dag.nodes) - descendants(dag, x)


# -- graph generators -----------------------------------------------------------


def enumerate_dags(n: int) -> Iterator[Dag]:
    """Every labelled DAG on n nodes, exactly once.

    Enumerates {absent, forward, backward} per unordered node pair and
    keeps the acyclic assignments.
    """
    if not 1 <= n <= 5:
        raise GraphError("exhaustive enumeration limited to 1..5 nodes")
    nodes = [f"V{i}" for i in range(n)]
    pairs = list(itertools.combinations(range(n), 2))
    for choice in itertools.product((0, 1, 2), repeat=len(pairs)):
        edges = []
        for (i, j), c in zip(pairs, choice):
            if c == 1:
                edges.append((nodes[i], nodes[j]))
            elif c == 2:
                edges.append((nodes[j], nodes[i]))
        try:
            yield Dag(nodes, edges)
        except GraphError:
            continue


def random_dag(rng: random.Random, n: int, edge_prob: float = 0.35) -> Dag:
    """Random labelled DAG: random topological order, then Bernoulli edges."""
    nodes = [f"V{i}" for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    edges = []
    for a, b in itertools.combinations(range(n), 2):
        if rng.random() < edge_prob:
            i, j = order[a], order[b]
            edges.append((nodes[i], nodes[j]))
    return Dag(nodes, edges)


# -- grow-shrink ------------------------------------------------------------------


def replay_consistent(trace, o: IndependenceOracle, target: str) -> bool:
    """True iff the oracle answers every query of the trace as recorded."""
    return all(
        o.query(target, step.candidate, step.conditioning) == step.independent
        for step in trace
    )


def grow_on_names(o: IndependenceOracle, target: str, *, mode: str = "modified",
                  trace: list[GsStep] | None = None) -> set[str]:
    """``growshrink.grow`` on names: each step builds its conditioning set
    and asks it through ``o.query``."""
    _check_target_on_names(o, target)
    if mode not in ("modified", "classic"):
        raise OracleError(f"unknown mode {mode!r}")
    order = [v for v in o.variables if v != target]
    trace = trace if trace is not None else []
    s: set[str] = set()
    while True:
        added = _grow_pass_on_names(o, target, s, order, mode, trace)
        if added is None:
            return s
        s.add(added)


def _grow_pass_on_names(o, target, s, order, mode, trace):
    for x in order:
        if x in s:
            continue
        indep = o.query(target, x, s)
        trace.append(GsStep("grow", x, None, frozenset(s), indep, "skip" if indep else "add"))
        if not indep:
            return x
    if mode == "classic":
        return None
    for x in order:
        if x in s:
            continue
        for z in order:
            if z == x:
                continue
            cond = s | {z}
            indep = o.query(target, x, cond)
            trace.append(
                GsStep("grow", x, z, frozenset(cond), indep, "skip" if indep else "add")
            )
            if not indep:
                return x
    return None


def shrink_on_names(o: IndependenceOracle, target: str, s: Iterable[str], *,
                    trace: list[GsStep] | None = None) -> set[str]:
    """``growshrink.shrink`` on names, each step asked through ``o.query``."""
    _check_target_on_names(o, target)
    s = dict.fromkeys(s)
    if target in s:
        raise OracleError("target cannot be in its own candidate blanket")
    if s:
        query_masks(o._index, s, (target,), (), OracleError)
    s = set(s)
    order = [v for v in o.variables if v != target]
    trace = trace if trace is not None else []
    changed = True
    while changed:
        changed = False
        for x in order:
            if x not in s:
                continue
            cond = s - {x}
            indep = o.query(target, x, cond)
            trace.append(
                GsStep("shrink", x, None, frozenset(cond), indep, "remove" if indep else "keep")
            )
            if indep:
                s.remove(x)
                changed = True
                break
    return s


def markov_blanket_on_names(o: IndependenceOracle, target: str, *, mode: str = "modified"
                            ) -> tuple[set[str], list[GsStep]]:
    """``growshrink.markov_blanket`` on names."""
    trace: list[GsStep] = []
    grown = grow_on_names(o, target, mode=mode, trace=trace)
    return shrink_on_names(o, target, grown, trace=trace), trace


def _check_target_on_names(o, target):
    if target not in o.variables:
        raise OracleError(f"unknown target {target!r}")


# -- subset scans on names ----------------------------------------------------------


def subsets_by_size(pool: Sequence[str], max_size: int) -> Iterator[tuple[str, ...]]:
    """Subsets of ``pool``, smallest first, lexicographic in ``pool`` order."""
    for size in range(min(max_size, len(pool)) + 1):
        yield from itertools.combinations(pool, size)


def first_separating_set(
    o: IndependenceOracle,
    x: str,
    y: str,
    core: frozenset[str],
    pool: Sequence[str],
    max_size: int,
) -> frozenset[str] | None:
    """First ``core | S`` given which x and y are independent, or None.

    S runs over ``subsets_by_size(pool, max_size)`` and each set is asked
    through ``o.query``, so None means x and y stay dependent given
    ``core`` plus every such S.
    """
    for s in subsets_by_size(pool, max_size):
        given = core.union(s)
        if o.query(x, y, given):
            return given
    return None


def rule_defeat(o, center, left, right, with_center, order, budget):
    """The first ``(x, z, given)`` defeating rule i (``with_center``) or
    rule ii of the orientation rule, or None: each cross pair in turn, with
    E over the nodes of ``order`` outside the centre and both side sets."""
    for x, z in itertools.product(left, right):
        core = (set(left) - {x}) | (set(right) - {z})
        if with_center:
            core.add(center)
        pool = [v for v in order if v not in {x, z, center, *core}]
        given = first_separating_set(o, x, z, frozenset(core), pool, budget.cap(len(pool)))
        if given is not None:
            return x, z, given
    return None


# -- discrete joints on Fractions --------------------------------------------------


def assignments(joint: DiscreteJoint) -> Iterator[tuple[int, ...]]:
    """Every cell's assignment, in row-major order."""
    return itertools.product(*(range(c) for _, c in joint.variables))


def cells(joint: DiscreteJoint) -> Iterator[tuple[tuple[int, ...], F]]:
    """(assignment, probability) for every cell, in row-major order."""
    return zip(assignments(joint), joint.probs)


def prob(joint: DiscreteJoint, assignment: dict[str, int]) -> F:
    """Probability of a full or partial assignment: the sum over every cell
    that agrees with it.  An unknown name raises ValueError."""
    names = [n for n, _ in joint.variables]
    fixed = [(names.index(n), v) for n, v in assignment.items()]
    return sum((p for a, p in cells(joint) if all(a[i] == v for i, v in fixed)), F(0))


def _accumulate(acc: dict, key, p: F) -> None:
    """acc[key] += p, starting the sum at p."""
    if key not in acc:
        acc[key] = p
    elif p:
        acc[key] += p


def fraction_marginal(joint: DiscreteJoint, names: Sequence[str]) -> dict[tuple, F]:
    """Marginal over ``names``: a dict of Fraction sums keyed by value
    tuples in that order."""
    index = [n for n, _ in joint.variables]
    pos = [index.index(n) for n in names]
    acc = {}
    for a, p in cells(joint):
        _accumulate(acc, tuple(map(a.__getitem__, pos)), p)
    return acc


def fraction_is_independent_sets(joint: DiscreteJoint, xs, ys, s=()) -> bool:
    """CI criterion on Fractions: P(x,y,s) P(s) == P(x,s) P(y,s) wherever
    P(s) > 0, with every marginal a dict of Fraction sums."""
    xs, ys, s = list(xs), list(ys), list(s)
    nx, ny = len(xs), len(ys)
    p_s, p_xs, p_ys = {}, {}, {}
    marginal = fraction_marginal(joint, xs + ys + s)
    for a, p in marginal.items():
        xk, yk, sk = a[:nx], a[nx : nx + ny], a[nx + ny :]
        _accumulate(p_s, sk, p)
        _accumulate(p_xs, (xk, sk), p)
        _accumulate(p_ys, (yk, sk), p)
    for a, p in marginal.items():
        xk, yk, sk = a[:nx], a[nx : nx + ny], a[nx + ny :]
        if p_s[sk] != 0 and p * p_s[sk] != p_xs[(xk, sk)] * p_ys[(yk, sk)]:
            return False
    return True


def _cell_indices(cards: Sequence[int], strides: Sequence[int]) -> list[int]:
    """sum(value * stride) at every cell of a row-major table over
    ``cards``, in row-major order, cell by cell."""
    return [sum(map(operator.mul, cell, strides))
            for cell in itertools.product(*(range(c) for c in cards))]


def comprehension_index_map(cards: Sequence[int], strides: Sequence[int]) -> list[int]:
    """sum(value * stride) at every cell of a row-major table over
    ``cards``, by product expansion in table order: each axis, first to
    last, expands every index so far into one per value of that axis."""
    idx = [0]
    for c, st in zip(cards, strides):
        if st:
            steps = range(0, c * st, st)
            idx = [i + d for i in idx for d in steps]
        elif c > 1:
            idx = [i for i in idx for _ in range(c)]
    return idx


def stride_walk_corners(cards: Sequence[int], mx: int, my: int, ms: int
                        ) -> tuple[list[int], ...]:
    """The corner lists of ``_Lattice.corner_cells`` on a lattice over
    ``cards``, found as it once found them: a walk over every position
    below M's top bit gives each axis of w_M its stride, n over the
    cardinalities of M's positions up to and including its own; then the
    cells (x, y) = (0, 0), (1, 0), (0, 1) and (1, 1) of every stratum."""
    m = mx | my | ms
    n = math.prod(cards[p] for p in range(len(cards)) if m >> p & 1)
    strata, strides = [], []
    for p in range(m.bit_length()):
        if m >> p & 1:
            c = cards[p]
            n //= c
            if mx >> p & 1:
                sx = n
            elif my >> p & 1:
                sy = n
            else:
                strata.append(c)
                strides.append(n)
    c00 = _cell_indices(strata, strides)
    return c00, [c + sx for c in c00], [c + sy for c in c00], [c + sx + sy for c in c00]


def stride_walk_gathers(cards: Sequence[int], mx: int, my: int, ms: int
                        ) -> tuple[list[int], ...]:
    """The gather lists of ``_Lattice.ci_cells`` on a lattice over
    ``cards``, found as it once found them: the cell of w_s, w_{s,x} and
    w_{s,y} that each cell of w_M falls in, from a walk over every position
    below M's top bit that gives each axis of w_M its stride in each of the
    three (0 where that marginal sums it out)."""
    m = mx | my | ms

    def size(mask):
        return math.prod(cards[p] for p in range(len(cards)) if mask >> p & 1)

    n_s, n_sx, n_sy = size(ms), size(ms | mx), size(ms | my)
    m_cards, strides = [], []
    for p in range(m.bit_length()):
        if m >> p & 1:
            c = cards[p]
            m_cards.append(c)
            if mx >> p & 1:
                n_sx //= c
                strides.append((0, n_sx, 0))
            elif my >> p & 1:
                n_sy //= c
                strides.append((0, 0, n_sy))
            else:
                n_s, n_sx, n_sy = n_s // c, n_sx // c, n_sy // c
                strides.append((n_s, n_sx, n_sy))
    return tuple(_cell_indices(m_cards, st) for st in zip(*strides))


def integer_product(dag, cpts):
    """Reference ``from_cpts`` on integers: each CPT scaled by the lcm of its
    entries' denominators, the scaled entries multiplied cell by cell in the
    graph's node order, in lowest terms; ``(denom, weights)``."""
    pos = {n: i for i, n in enumerate(dag.nodes)}
    denom, factors = 1, []
    for cpt in cpts:
        scale = math.lcm(*(p.denominator for row in cpt.rows.values() for p in row))
        ints = {pa: [p.numerator * (scale // p.denominator) for p in row]
                for pa, row in cpt.rows.items()}
        denom *= scale
        factors.append((ints, [pos[q] for q in cpt.parents], pos[cpt.child]))
    cards = {c.child: c.child_card for c in cpts}
    weights = []
    for a in itertools.product(*(range(cards[n]) for n in dag.nodes)):
        w = 1
        for ints, parents, child in factors:
            w *= ints[tuple(map(a.__getitem__, parents))][a[child]]
        weights.append(w)
    g = math.gcd(*weights, denom)
    return denom // g, tuple(w // g for w in weights)


def row_by_row_factor(child, card, parents, parent_cards, rows):
    """``Cpt._factor`` for a table whose rows are exactly the parent
    assignments, found row by row: each cardinality, the child's first, is
    checked to be positive; each row, in ``rows`` order, is checked for
    length and entry type, scaled by the lcm of its own denominators, and
    checked for sign and sum; the scaled rows are then brought to the lcm
    of the row denominators and laid out in parent-value order.  Raises the
    ``DistributionError`` of the first bad cardinality or row."""
    for name, c in [(child, card), *zip(parents, parent_cards)]:
        if type(c) is not int:
            raise DistributionError(
                f"CPT for {child}: cardinality of {name} must be an int, not {c!r}")
        if c <= 0:
            raise DistributionError(
                f"CPT for {child}: cardinality of {name} must be positive, not {c}")
    scaled = {}
    for pa, vec in rows.items():
        if len(vec) != card:
            raise DistributionError(f"CPT for {child}: bad row length at {pa}")
        for p in vec:
            exact(p, DistributionError, f"CPT for {child}: probability")
        d = math.lcm(*(p.denominator for p in vec))
        ints = [p.numerator * (d // p.denominator) for p in vec]
        if any(w < 0 for w in ints):
            raise DistributionError(f"CPT for {child}: negative probability")
        if sum(ints) != d:
            raise DistributionError(f"CPT for {child}: row {pa} does not sum to 1")
        scaled[pa] = d, ints
    denom = math.lcm(*(d for d, _ in scaled.values()))
    flat = []
    for pa in itertools.product(*(range(c) for c in parent_cards)):
        d, ints = scaled[pa]
        flat += [w * (denom // d) for w in ints]
    return denom, flat


# -- mutual independence ----------------------------------------------------------


def mutually_independent(joint: DiscreteJoint, x: str, y: str, z: str) -> bool:
    """P(x,y,z) == P(x) P(y) P(z) everywhere, on the integer weights of
    marginals that each keep their own denominator:
    w_xyz * d_x * d_y * d_z == w_x * w_y * w_z * d_xyz."""
    sub = joint.marginalize([x, y, z])
    margins = [sub.marginalize([v]) for v in (x, y, z)]
    (wx, wy, wz), (dx, dy, dz) = zip(*((m._weights, m._denom) for m in margins))
    d_margins, d_sub = dx * dy * dz, sub._denom
    for (xv, yv, zv), w in zip(assignments(sub), sub._weights):
        if w * d_margins != wx[xv] * wy[yv] * wz[zv] * d_sub:
            return False
    return True


# -- linear-Gaussian systems ------------------------------------------------------


def random_sem(rng: random.Random, n: int) -> GaussianSystem:
    """Seeded SEM on a random DAG: weights k/2 with k in -4..4 (zero allowed,
    which leaves an edge without effect), noise variances 1-3."""
    dag = random_dag(rng, n, edge_prob=0.5)
    return GaussianSystem(
        dag.nodes,
        {(c, p): F(rng.randint(-4, 4), 2) for p, c in dag.edges},
        {v: F(rng.randint(1, 3)) for v in dag.nodes},
    )


def identity(n):
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


def mat_inverse(a):
    """Exact Gauss-Jordan inverse; raises on a singular matrix."""
    n = len(a)
    m = [row[:] + ident for row, ident in zip(a, identity(n))]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise GaussianError("singular matrix")
        m[col], m[pivot] = m[pivot], m[col]
        inv_p = 1 / m[col][col]
        m[col] = [v * inv_p for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return [row[n:] for row in m]


def _check_positive_definite(m):
    # leading principal minors via fraction-exact elimination
    n = len(m)
    a = [row[:] for row in m]
    for k in range(n):
        if a[k][k] <= 0:
            raise GaussianError("covariance submatrix is not positive definite")
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]


def inverse_partial_correlation_zero(cov, x, y, s):
    """Reference criterion: the (x, y) entry of the inverse of the positive
    definite covariance submatrix over [x, y] + s vanishes."""
    idx = [x, y] + list(s)
    if len(set(idx)) != len(idx):
        raise GaussianError("query indices must be distinct")
    sub = [[F(cov[i][j]) for j in idx] for i in idx]
    _check_positive_definite(sub)
    return mat_inverse(sub)[0][1] == 0


# -- incomplete gamma -----------------------------------------------------------

_EPS = 3e-14
_MAX_ITER = 500


def regularized_gamma_p(a: float, x: float) -> float:
    """Lower regularized incomplete gamma P(a, x)."""
    if x < 0 or a <= 0:
        raise ValueError("invalid arguments")
    if x == 0:
        return 0.0
    if x < a + 1:
        # series representation
        ap = a
        term = 1.0 / a
        total = term
        for _ in range(_MAX_ITER):
            ap += 1
            term *= x / ap
            total += term
            if abs(term) < abs(total) * _EPS:
                break
        return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    # continued fraction for Q(a, x), Lentz's method
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    q = math.exp(-x + a * math.log(x) - math.lgamma(a)) * h
    return 1.0 - q
