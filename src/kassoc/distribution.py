"""Exact discrete joint distributions.

The API speaks ``fractions.Fraction``: CPT rows and ``DiscreteJoint.probs``
are exact rationals.  Each joint also keeps its table as integer weights
over one common denominator, in lowest terms, and marginals and
independence checks run on those Python ints.  Independence is decided by
exact equality, never by a tolerance.  Tables are dense over all
assignments (desk scale, capped at ``MAX_CELLS`` = 2**20 cells).

Every joint that is not built from Fractions is finished by
``DiscreteJoint._table``: given a whole integer table, row-major over some
order of its axes, it permutes the table once into the variables' order and
puts it in lowest terms.  ``marginalize`` hands it one lattice marginal, a
copy its own table, and ``from_cpts`` the product of its CPTs.  That product
is one loop over the CPTs in topological order, from the table ``[1]``: each
CPT, scaled to integers once when it was checked, adds its child as the
table's most significant axis, in one C-level pass per child value that
multiplies the table so far by that value's column of the CPT, read at each
cell's parent row.  A CPT costs the size of the table after it plus its
own size.  A model is built in C-level passes, with no Python loop per
cell and none per entry but that loop over a child's values: a ``Cpt``
type-checks its whole table by its set of entry types, scales it by
one lcm over its flat entries (``_scaled``, which ``DiscreteJoint`` shares)
and sums its rows over strided slices; and every index map (``_index_map``:
a CPT's parent row per cell, or a permutation) is built from the last axis
up, one ``map`` per value of an axis.  ``from_cpts`` checks each CPT's
parents on the graph's parent bitmasks and reads the topological order that
the ``Dag`` kept from its own cycle check.

Every marginal comes from one lattice, ``_Lattice``, a ``_MaskLattice``:
the one budgeted store keyed by position bitmask, which the Gaussian
minors lattice (``gaussian._Minors``) shares.  Its root is the full table
with its cardinalities, and each entry past it is a marginal with its
shape, summed out of a marginal over one more position: a kept one if
there is any, else the one over the set plus its highest missing
position.  Each ``DiscreteJoint`` and ``Dataset`` makes one lattice when
it is built and reads every query through it, so all queries on one
table (every oracle over it, an audit's CMC check and ``marginalize``)
share their partial sums; past its root, the lattice keeps at most
``MAX_CELLS`` cells, and it goes away with its table.

A ``Dataset``'s table is its row counts over the same dense row-major
cells.  Rows from a caller are checked against the domains and counted
once; ``DiscreteJoint.sample`` draws cell indices of its joint's table, and
the dataset it returns takes its count table from the tally of the drawn
cells, so the rows it decodes from them are not checked or counted again.

A CI query "xs independent of ys given s" reads four marginals from the
lattice, over M = s | xs | ys and over s, s | xs and s | ys, and checks
w_M * w_s == w_{s,xs} * w_{s,ys} on every cell of M in one pass
(``_Lattice.ci_cells``; the G-test in ``gtest`` reads the same four).
The criterion is P(x,y,s) P(s) == P(x,s) P(y,s) cross-multiplied, so it
needs no division, passes every cell where P(s) = 0, and, being
scale-invariant, gives on the weights exactly the probabilities' answer.
When xs and ys are one binary variable each, w_M is a 2x2 table per
stratum (assignment to s), and the criterion holds exactly when each
stratum's cross-product difference w00 w11 - w10 w01 is 0 (Bishop,
Fienberg & Holland, *Discrete Multivariate Analysis*, 1975, ch. 2): such
a query reads only w_M, at the four corners of every stratum
(``_Lattice.corner_cells``).  Which check a query gets depends only on its
masks and cardinalities; the four-marginal check is the 2x2 check's slow
twin in the tests.  Either check reads w_M's cells through index lists
that depend only on w_M's shape and on which of its axes hold xs and ys;
they are built once per such key and shared by every table in
``_GATHERS``, so a query finds them by a few ``int.bit_count``s and one
lookup.
Each table keeps one name index, ``_pos``; a query's names go through
``graph.query_masks``, the rule every CI entry point shares.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, eq, methodcaller, mul
from typing import Callable, Iterable, Mapping, Sequence

from .graph import MAX_NODES, _ranks, query_masks

MAX_CELLS = 1 << 20
MAX_ROWS = 10**7  # the most rows ``DiscreteJoint.sample`` draws
# the most lazy ``map(add, ...)`` links a sum chains before it is made a
# list: a longer chain recurses in C, one level per link, when consumed
_LINKS = 256

ONE = Fraction(1)


class DistributionError(ValueError):
    """Invalid distribution construction or query."""


def exact(value, error: type[ValueError], what: str) -> Fraction:
    """``value`` as a Fraction if it is an int or a Fraction, else ``error``:
    a float such as 0.1 is a binary fraction, not the rational it shows."""
    if not isinstance(value, (int, Fraction)):
        raise error(f"{what} must be an int or a Fraction, not {value!r}")
    return value if isinstance(value, Fraction) else Fraction(value)


_EXACT = {int, Fraction}  # entries of only these types need no isinstance each


def _scaled(entries: Sequence[int | Fraction]) -> tuple[int, list[int]]:
    """The lcm of the denominators of ``entries``, ints and Fractions, and
    the entries scaled by it to ints: one ``as_integer_ratio`` call per
    entry, then one C-level pass."""
    ratios = map(methodcaller("as_integer_ratio"), entries)
    nums, dens = zip(*ratios) if entries else ((), ())
    denom = math.lcm(*dens)
    return denom, list(map(mul, nums, map(denom.__floordiv__, dens)))


def _parent_rows(child: str, card: int, parents: Sequence[str],
                 parent_cards: Sequence[int]) -> int:
    """The number of parent rows of a CPT for ``child``, once each parent
    has one cardinality, every cardinality is an int (not a bool, as in a
    scenario file) and at least 1, the child's is at most ``MAX_CELLS``
    and the rows number at most ``MAX_CELLS``; else ``DistributionError``,
    naming the first bad one."""
    if len(parents) != len(parent_cards):
        raise DistributionError(
            f"CPT for {child}: {len(parents)} parents but "
            f"{len(parent_cards)} parent cardinalities")
    cards = (card, *parent_cards)
    if set(map(type, cards)) != {int} or min(cards) < 1:
        name, c = next((v, c) for v, c in zip((child, *parents), cards)
                       if type(c) is not int or c < 1)
        rule = "be positive" if type(c) is int else "be an int"
        raise DistributionError(
            f"CPT for {child}: cardinality of {name} must {rule}, not {c!r}")
    if card > MAX_CELLS:
        raise DistributionError(
            f"CPT for {child}: cardinality of {child} must be at most {MAX_CELLS}, not {card}")
    size = math.prod(parent_cards)
    if size > MAX_CELLS:
        raise DistributionError(f"CPT for {child}: more than {MAX_CELLS} parent rows")
    return size


@dataclass(frozen=True)
class Cpt:
    """Conditional probability table of one variable given its parents.

    ``rows`` maps a parent assignment (tuple of values in ``parents``
    order) to a probability vector over the child's domain.  Every
    cardinality must be an int (not a bool, as in a scenario file) and at
    least 1, each entry must be an int or a Fraction, and each vector must
    sum to exactly 1.

    The whole table is checked at once: its entries, flat in ``rows``
    order, are type-checked by the set of their types and scaled to
    integers by the lcm of all their denominators (``_scaled``); the sign
    verdict is the least scaled entry, and the row sums add the entries'
    strided slices, one per child value.  Only a bad table gets per-row
    verdicts: it names its first bad row in ``rows`` order, each row
    checked for length, then entry type, then sign, then sum.  The table is
    kept as ``_factor``: that lcm and the scaled entries, flat in row-major
    order over (parents..., child), as ``DiscreteJoint.from_cpts``
    multiplies it in.
    """

    child: str
    child_card: int
    parents: tuple[str, ...]
    parent_cards: tuple[int, ...]
    rows: Mapping[tuple[int, ...], tuple[Fraction, ...]]
    _factor: tuple[int, list[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        child, card, rows = self.child, self.child_card, self.rows
        size = _parent_rows(child, card, self.parents, self.parent_cards)
        cells = list(itertools.product(*map(range, self.parent_cards)))
        in_order = list(rows) == cells
        if len(rows) != size or not in_order and set(rows) != set(cells):
            raise DistributionError(f"CPT for {child}: wrong set of parent rows")
        # the rows of the right length, flat in rows order, are type-checked
        # by their set of types and scaled by one lcm; the least scaled
        # entry is the sign verdict, and the row sums add strided slices
        vecs = list(rows.values())
        fit = list(map(eq, map(len, vecs), itertools.repeat(card)))
        entries = list(itertools.chain.from_iterable(itertools.compress(vecs, fit)))
        typed = set(map(type, entries)) <= _EXACT
        if not typed:
            # bools and subclasses of int and Fraction are exact too; a row
            # with an entry of another type is named for that entry, so its
            # other verdicts are never read
            kinds = list(map(isinstance, entries, itertools.repeat((int, Fraction))))
            entries = [p if ok else 0 for p, ok in zip(entries, kinds)]
            typed = all(kinds)
        denom, flat = _scaled(entries)
        sums = flat[::card]
        for v in range(1, card):
            sums = map(add, sums, flat[v::card])
            if not v % _LINKS:
                sums = list(sums)
        if not (all(fit) and typed and min(flat) >= 0 and all(map(denom.__eq__, sums))):
            # the first bad row in rows order; per row: length, then entry
            # type, then sign, then sum
            scaled = iter(zip(*[iter(flat)] * card))
            for pa, vec, fits in zip(rows, vecs, fit):
                if not fits:
                    raise DistributionError(f"CPT for {child}: bad row length at {pa}")
                for p in vec:
                    exact(p, DistributionError, f"CPT for {child}: probability")
                row = next(scaled)
                if min(row) < 0:
                    raise DistributionError(f"CPT for {child}: negative probability")
                if sum(row) != denom:
                    raise DistributionError(f"CPT for {child}: row {pa} does not sum to 1")
        if not in_order:
            by_row = dict(zip(rows, zip(*[iter(flat)] * card)))
            flat = list(itertools.chain.from_iterable(map(by_row.__getitem__, cells)))
        object.__setattr__(self, "_factor", (denom, flat))

    @staticmethod
    def prior(name: str, probs: Sequence[Fraction]) -> "Cpt":
        return Cpt(name, len(probs), (), (), {(): tuple(probs)})

    @staticmethod
    def coin(name: str, p_one: Fraction) -> "Cpt":
        p = exact(p_one, DistributionError, f"bias of {name}")
        return Cpt.prior(name, (ONE - p, p))

    @staticmethod
    def noisy_function(
        child: str,
        parents: Sequence[str],
        parent_cards: Sequence[int],
        fn: Callable[..., int],
        flip: Fraction,
    ) -> "Cpt":
        """Binary child: value fn(parents) xor an unobserved coin of bias ``flip``.

        The noise coin is marginalised into the table, it is not a node.
        """
        flip = exact(flip, DistributionError, f"flip of {child}")
        parents, parent_cards = tuple(parents), tuple(parent_cards)
        _parent_rows(child, 2, parents, parent_cards)
        stay = ONE - flip
        off, on = (stay, flip), (flip, stay)  # the rows for fn = 0 and 1
        rows = {}
        for pa in itertools.product(*(range(c) for c in parent_cards)):
            v = fn(*pa)
            if v not in (0, 1):
                raise DistributionError("noisy_function requires a boolean function")
            rows[pa] = on if v == 1 else off
        return Cpt(child, 2, parents, parent_cards, rows)


@dataclass(frozen=True)
class Dataset:
    """Finite sample of integer-coded rows, one int in ``range(card)`` per
    variable (at most ``MAX_CELLS`` assignments), counted into the dense
    row-major table over ``variables`` that the dataset's own marginal
    lattice, ``_lattice``, holds and each G-test query reads; ``_pos`` is its
    name index.  ``variables`` and ``rows`` are stored validated, as tuples.

    Rows from a caller are checked and counted once, each distinct row
    checked against the domains and its cell computed once; a dataset drawn
    by ``DiscreteJoint.sample`` takes its count table from the cells it drew.
    Either way the table is set by one builder, ``_fill``."""

    variables: tuple[tuple[str, int], ...]
    rows: tuple[tuple[int, ...], ...]
    _pos: dict[str, int] = field(init=False, repr=False, compare=False)
    _lattice: _Lattice = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        variables = _domains(self.variables)[0]
        rows = tuple(map(tuple, self.rows))
        cards = [c for _, c in variables]
        strides, size = _strides(cards, range(len(cards)))
        counts = [0] * size
        for row, n in Counter(rows).items():
            if len(row) != len(cards) or not all(
                    isinstance(v, int) and 0 <= v < c for v, c in zip(row, cards)):
                raise DistributionError(f"row {row} is not one value in range(card) per variable")
            counts[sum(map(mul, row, strides))] += n
        self._fill(variables, rows, counts)

    def _fill(self, variables, rows, counts) -> None:
        """Set the fields from validated ``variables``, their ``rows`` and
        ``counts``, the rows' dense row-major count table."""
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_pos", {n: i for i, (n, _) in enumerate(variables)})
        object.__setattr__(self, "_lattice", _Lattice(counts, [c for _, c in variables]))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.variables)

    def __len__(self) -> int:
        return len(self.rows)

    def __reduce__(self):
        # rebuilt from the rows, so a copy starts with an empty lattice
        return Dataset, (self.variables, self.rows)


def _strides(cards: Sequence[int], order: Sequence[int]) -> tuple[list[int], int]:
    """Strides sending each cell of a row-major table over ``cards`` to its
    cell in the row-major marginal over the positions ``order`` (kept in
    that order), with 0 for every summed-out variable; and the marginal's
    size."""
    strides = [0] * len(cards)
    size = 1
    for p in reversed(order):
        strides[p] = size
        size *= cards[p]
    return strides, size


def _index_map(cards: Sequence[int], strides: Sequence[int]) -> list[int]:
    """Target index, sum(value * stride), of every cell of a row-major
    table over ``cards``: built from the last axis up, each axis one C-level
    pass per value over the list of the axes after it (a repeat of that
    list for a stride of 0)."""
    idx = [0]
    for c, st in zip(reversed(cards), reversed(strides)):
        if not st:
            idx *= c
            continue
        out = idx[:]
        for d in range(st, c * st, st):
            out += map(d.__add__, idx)
        idx = out
    return idx


def _sum_out(table: Sequence[int], cards: Sequence[int], p: int) -> Sequence[int]:
    """Sum a row-major table over the variable at position ``p``.

    The table is viewed as (outer, card, inner) blocks; the adds run over
    slices inside ``map``, chained at most ``_LINKS`` deep, with a Python
    loop over whichever of ``outer`` and ``inner`` is shorter.  A variable
    of cardinality 1 sums out to ``table`` itself.
    """
    c = cards[p]
    if c == 1:
        return table
    inner = math.prod(cards[p + 1 :])
    block = c * inner
    if inner <= len(table) // block:
        out = [0] * (len(table) // c)
        for j in range(inner):
            col = table[j::block]
            for v in range(1, c):
                col = map(add, col, table[v * inner + j :: block])
                if not v % _LINKS:
                    col = list(col)
            out[j::inner] = col
        return out
    out = []
    for b in range(0, len(table), block):
        col = table[b : b + inner]
        for v in range(1, c):
            col = map(add, col, table[b + v * inner : b + (v + 1) * inner])
            if not v % _LINKS:
                col = list(col)
        out += col
    return out


class _MaskLattice(dict):
    """Values by position bitmask, each made from one neighbouring mask's
    value by one step, from a root value that is always held.

    A subclass gives its neighbour rule, ``_toward(mask)``, the next mask
    on the way to the root, and its step, ``_step(value, near, mask)``,
    which makes the value of ``mask`` from the value of its neighbour
    ``near`` and returns it with the number of cells it holds that the
    lattice does not hold already.  A lookup of a mask that is not held
    walks toward the root to the first mask that is, then steps back,
    keeping each value while the cells kept, ``cells``, stay within
    ``MAX_CELLS``; past that budget a value is computed and not kept.  The
    root is not counted.
    """

    __slots__ = ("full", "cells")

    def __init__(self, full: int, root: int, value):
        self[root] = value
        self.full = full
        self.cells = 0

    def __missing__(self, mask: int):
        path = []
        while mask not in self:
            path.append(mask)
            mask = self._toward(mask)
        near, value = mask, self[mask]
        for mask in reversed(path):
            value, cells = self._step(value, near, mask)
            if self.cells + cells <= MAX_CELLS:
                self[mask] = value
                self.cells += cells
            near = mask
        return value


class _Recent(dict):
    """The plan cache.  It stores an entry only while the ints it holds
    stay within ``MAX_CELLS``, and makes room for one past that budget by
    dropping every entry it holds, so it keeps serving the shapes that
    recent queries use rather than the first ones it saw.  An entry bigger
    than the whole budget is not stored and leaves the cache as it is."""

    __slots__ = ("cells",)

    def __init__(self):
        super().__init__()
        self.cells = 0

    def keep(self, key, value, cells: int):
        """Store ``value``, which holds ``cells`` ints, if it can fit;
        return ``value`` either way."""
        if cells <= MAX_CELLS:
            if self.cells + cells > MAX_CELLS:
                self.clear()
                self.cells = 0
            self[key] = value
            self.cells += cells
        return value


# the read plans of ``_Lattice``, each kept under the shape of the w_M it
# reads (its axes' cardinalities in ascending position order), so every
# lattice shares them: (shape, axis of x, axis of y) -> ``_corner_plan``,
# and (axes of xs, axes of ys, shape) -> ``_ci_plan``, with the axes as
# bitmasks; a corner key starts with a tuple and a four-marginal key with
# an int, so no key of one kind equals one of the other
_GATHERS = _Recent()


def _corner_plan(shape: tuple[int, ...], ix: int, iy: int) -> tuple[list[int], ...]:
    """The cells (x, y) = (0, 0), (1, 0), (0, 1) and (1, 1) of every
    stratum of a row-major table over ``shape`` whose axes ``ix`` and
    ``iy`` are binary and hold x and y: four index lists, one cell per
    stratum each, the strata in row-major order over the other axes."""
    strides = _strides(shape, range(len(shape)))[0]
    strata = [i for i in range(len(shape)) if i != ix and i != iy]
    c00 = _index_map([shape[i] for i in strata], [strides[i] for i in strata])
    sx, sy = strides[ix], strides[iy]
    return c00, [c + sx for c in c00], [c + sy for c in c00], [c + sx + sy for c in c00]


def _ci_plan(shape: tuple[int, ...], bx: int, by: int) -> tuple[list[int], ...]:
    """For a row-major table over ``shape`` whose axes in the bitmasks
    ``bx`` and ``by`` hold xs and ys, the cells of the marginals over its
    other axes (s), over s and xs, and over s and ys that each of its cells
    falls in: three index lists in the table's cell order."""
    axes = range(len(shape))
    s_x, s_y = [i for i in axes if not by >> i & 1], [i for i in axes if not bx >> i & 1]
    s = [i for i in s_x if not bx >> i & 1]
    return tuple(_index_map(shape, _strides(shape, kept)[0]) for kept in (s, s_x, s_y))


class _Lattice(_MaskLattice):
    """Marginals of one dense row-major integer table over ``cards``.

    The entry of a position bitmask K is the marginal over K, kept in
    ascending position order, with its shape: its axes' cardinalities in
    ascending position order.  The root is the full mask, the table itself
    with shape ``cards``.  A miss at K sums one position q out of the
    marginal over K | q: the highest q whose K | q is held, else the
    highest q outside K.  Summing out a position of cardinality 1 gives
    back the marginal's own list: that entry is an alias and counts no
    cell toward the budget while the entry it aliases is kept.

    ``ci_cells`` and ``corner_cells`` read marginals at the cells of w_M
    through index lists (``_ci_plan``, ``_corner_plan``) that depend only
    on w_M's shape and on which of its axes hold x and y; they are kept in
    ``_GATHERS`` under exactly that, so a query finds its plan by a few
    ``bit_count``s and one lookup, and every lattice shares them.

    A lattice belongs to its table: each ``DiscreteJoint`` and ``Dataset``
    makes one at construction, every query on that table reads it, and a
    copy or unpickled table starts with an empty one.
    """

    __slots__ = ()

    def __init__(self, table: Sequence[int], cards: Sequence[int]):
        full = (1 << len(cards)) - 1
        super().__init__(full, full, (table, tuple(cards)))

    def _toward(self, mask: int) -> int:
        # a loop over the missing bits costs a miss less than a generator
        rest = missing = self.full ^ mask
        while rest:
            q = 1 << (rest.bit_length() - 1)
            if mask | q in self:
                return mask | q
            rest ^= q
        return mask | 1 << (missing.bit_length() - 1)

    def _step(self, up, near: int, mask: int):
        table, shape = up
        # the summed-out position's axis in the marginal over ``near`` is
        # the number of positions of ``mask`` below it
        k = (mask & ((near ^ mask) - 1)).bit_count()
        out = _sum_out(table, shape, k)
        # an alias (a cardinality-1 axis summed out) holds no new cell
        # while the list it aliases is kept
        cells = 0 if out is table and near in self else len(out)
        return (out, shape[:k] + shape[k + 1 :]), cells

    def ci_cells(self, mx: int, my: int, ms: int) -> tuple[Iterable[int], ...]:
        """For disjoint position bitmasks, the marginals w_M, w_s, w_{s,x}
        and w_{s,y} over M = ms | mx | my, ms, ms | mx and ms | my, each read
        at every cell of w_M (the last three lazily), through the index
        lists of ``_ci_plan``."""
        m = mx | my | ms
        w_m, shape = self[m]
        w_s, w_sx, w_sy = self[ms][0], self[ms | mx][0], self[ms | my][0]
        bx, by = _ranks(m, mx), _ranks(m, my)
        key = (bx, by, shape)
        plan = _GATHERS.get(key)
        if plan is None:
            plan = _GATHERS.keep(key, _ci_plan(shape, bx, by), 3 * len(w_m))
        g_s, g_sx, g_sy = plan
        return (w_m, map(w_s.__getitem__, g_s), map(w_sx.__getitem__, g_sx),
                map(w_sy.__getitem__, g_sy))

    def corner_cells(self, mx: int, my: int, ms: int) -> tuple[Iterable[int], ...]:
        """For disjoint position bitmasks, mx and my one binary position
        each, the marginal w_M over M = ms | mx | my read lazily at the
        cells (x, y) = (0, 0), (1, 0), (0, 1) and (1, 1) of every stratum
        (assignment to ms), through the index lists of ``_corner_plan``."""
        m = mx | my | ms
        w_m, shape = self[m]
        # x's axis in w_M is the number of M's positions below x's
        key = (shape, (m & (mx - 1)).bit_count(), (m & (my - 1)).bit_count())
        plan = _GATHERS.get(key)
        if plan is None:
            plan = _GATHERS.keep(key, _corner_plan(*key), len(w_m))
        get = w_m.__getitem__
        c00, c10, c01, c11 = plan
        return map(get, c00), map(get, c10), map(get, c01), map(get, c11)


def _domains(variables: Iterable[tuple[str, int]]) -> tuple[tuple[tuple[str, int], ...], int]:
    """Validated ``(name, cardinality)`` pairs, each name kept as given,
    and the dense table size; each cardinality must be an int (not a bool,
    as in a scenario file)."""
    variables = tuple((n, c) for n, c in variables)
    for n, c in variables:
        if type(c) is not int:
            raise DistributionError(f"cardinality of {n} must be an int, not {c!r}")
    names = [n for n, _ in variables]
    if len(set(names)) != len(names):
        raise DistributionError("duplicate variable names")
    size = 1
    for _, c in variables:
        if c < 1:
            raise DistributionError("cardinalities must be positive")
        size *= c
    if size > MAX_CELLS:
        raise DistributionError("joint table too large")
    return variables, size


class DiscreteJoint:
    """Dense exact joint probability table over finite-domain variables.

    The table is kept once, as integer weights over the common
    denominator ``_denom``; ``probs`` reads it as Fractions
    (``probs[i] == _weights[i] / _denom``).  Marginals and CI checks run
    on the integers, projected through the joint's own marginal lattice,
    ``_lattice``.
    """

    __slots__ = ("variables", "_weights", "_denom", "_cards", "_pos", "_lattice")

    def __init__(
        self,
        variables: Sequence[tuple[str, int]],
        probs: Sequence[Fraction],
    ):
        variables, size = _domains(variables)
        probs = tuple(probs)
        if not set(map(type, probs)) <= _EXACT:
            for p in probs:
                exact(p, DistributionError, "probability entry")
        if len(probs) != size:
            raise DistributionError("table size does not match variable domains")
        denom, weights = _scaled(probs)
        if min(weights) < 0:
            raise DistributionError("negative probability entry")
        if sum(weights) != denom:
            raise DistributionError("probabilities must sum to exactly 1")
        self._fill(variables, tuple(weights), denom)

    def _fill(self, variables, weights, denom) -> None:
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "_denom", denom)
        object.__setattr__(self, "_cards", tuple(c for _, c in variables))
        object.__setattr__(self, "_pos", {n: i for i, (n, _) in enumerate(variables)})
        object.__setattr__(self, "_lattice", _Lattice(weights, self._cards))

    @classmethod
    def _table(cls, variables, axes, denom, table) -> "DiscreteJoint":
        """The joint of the integer ``table`` over ``denom``, row-major over
        the positions ``axes`` of ``variables`` (a permutation of them), in
        lowest terms: the table is permuted once into ``variables`` order.
        ``variables`` are taken as valid: ``from_cpts`` checks its own with
        ``_domains``, and a marginal or a copy keeps a joint's."""
        variables = tuple(variables)
        cards = [c for _, c in variables]
        if list(axes) != list(range(len(cards))):
            table = list(map(table.__getitem__, _index_map(cards, _strides(cards, axes)[0])))
        g = math.gcd(*table)  # positive: the weights sum to denom
        weights = tuple(table) if g == 1 else tuple(map(g.__rfloordiv__, table))
        joint = object.__new__(cls)
        joint._fill(variables, weights, denom // g)
        return joint

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteJoint is immutable")

    # every joint is in lowest terms, so equal tables have equal weights
    def __eq__(self, other):
        return (
            isinstance(other, DiscreteJoint)
            and self.variables == other.variables
            and self._weights == other._weights
            and self._denom == other._denom
        )

    def __hash__(self):
        return hash((self.variables, self._weights, self._denom))

    @property
    def probs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(w, self._denom) for w in self._weights)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.variables)

    def _position(self, name: str) -> int:
        try:
            return self._pos[name]
        except KeyError:
            raise DistributionError(f"unknown variable {name!r}") from None

    def __reduce__(self):
        # the lattice is not pickled: a copy starts with an empty one
        return DiscreteJoint._table, (
            self.variables, range(len(self._cards)), self._denom, self._weights)

    # -- construction --------------------------------------------------------

    @staticmethod
    def from_cpts(dag, cpts: Iterable[Cpt]) -> "DiscreteJoint":
        """Product of CPT entries over all full assignments.

        One CPT per node; each CPT lists its node's graph parents, each once,
        which is checked on position bitmasks against ``dag._parent_masks``.
        The table's size is refused past ``MAX_CELLS`` before any product.
        The CPTs' integer factors (``Cpt._factor``, scaled when each CPT was
        checked) are multiplied in, from the table ``[1]``, in the
        topological order the graph kept when it was built (``dag._order``):
        each one over the table of the nodes before it, read through one
        index map of each cell's parent row, with its child as the new most
        significant axis.  A CPT costs the size of the table after it plus
        its own size, so with every cardinality at least 2 the whole product
        costs O(cells + CPT entries); ``_table`` permutes it once into
        ``dag.nodes`` order.
        """
        by_child = {}
        for cpt in cpts:
            if cpt.child in by_child:
                raise DistributionError(f"duplicate CPT for {cpt.child}")
            by_child[cpt.child] = cpt
        if set(by_child) != set(dag.nodes):
            raise DistributionError("need exactly one CPT per graph node")
        ordered = [by_child[node] for node in dag.nodes]
        pos = dag._index
        for cpt, graph_parents in zip(ordered, dag._parent_masks):
            # an unknown parent sets bit MAX_NODES, past every graph position,
            # and a repeated one sets fewer bits than the CPT lists parents
            mask = 0
            for q in cpt.parents:
                mask |= 1 << pos.get(q, MAX_NODES)
            if mask != graph_parents or len(cpt.parents) != mask.bit_count():
                raise DistributionError(
                    f"CPT parents for {cpt.child} do not match graph parents"
                )
        cards = [cpt.child_card for cpt in ordered]
        for cpt in ordered:
            for p, c in zip(cpt.parents, cpt.parent_cards):
                if cards[pos[p]] != c:
                    raise DistributionError(
                        f"CPT for {cpt.child}: cardinality mismatch on parent {p}"
                    )
        variables, _ = _domains(zip(dag.nodes, cards))
        denom, table, axes = 1, [1], []
        for i in dag._order:
            cpt = ordered[i]
            d, ints = cpt._factor
            c = cpt.child_card
            # each cell's row of the CPT: its parents' values, row-major
            strides = _strides(cards, [pos[q] for q in cpt.parents])[0]
            rows = _index_map([cards[p] for p in axes], [strides[p] for p in axes])
            out = []
            for v in range(c):
                out += map(mul, table, map(ints[v::c].__getitem__, rows))
            denom, table, axes = denom * d, out, [i] + axes
        return DiscreteJoint._table(variables, axes, denom, table)

    # -- queries --------------------------------------------------------------

    def marginalize(self, keep: Iterable[str]) -> "DiscreteJoint":
        """Exact summation over all dropped variables."""
        positions = [self._position(n) for n in keep]
        if len(set(positions)) != len(positions):
            raise DistributionError("duplicate variable names")
        # the lattice marginal's axes are the kept variables in ascending position
        ascending = sorted(range(len(positions)), key=positions.__getitem__)
        return DiscreteJoint._table(
            [self.variables[p] for p in positions], ascending, self._denom,
            self._lattice[sum(1 << p for p in positions)][0])

    def is_independent(self, x: str, y: str, s: Iterable[str] = ()) -> bool:
        """Exact pairwise CI: P(x,y|s) == P(x|s) P(y|s) wherever P(s) > 0."""
        return self.is_independent_sets([x], [y], s)

    def is_independent_sets(
        self, xs: Iterable[str], ys: Iterable[str], s: Iterable[str] = ()
    ) -> bool:
        """Set-valued exact CI: are xs and ys independent given s?  The names
        go through ``graph.query_masks`` (a malformed query raises
        DistributionError); the check is ``_independent``, on position masks,
        which a ``DiscreteOracle`` calls directly with the masks it validated.
        """
        return self._independent(*query_masks(self._pos, xs, ys, s, DistributionError))

    def _independent(self, mx: int, my: int, ms: int) -> bool:
        """The check of ``is_independent_sets`` on the position bitmasks of
        xs, ys and s, which must be disjoint and the first two non-empty.
        If xs and ys are one binary variable each, w00 * w11 == w10 * w01
        in every 2x2 stratum of w_M, M = s | xs | ys; otherwise
        w_M * w_s == w_{s,xs} * w_{s,ys} on every cell of M (the module
        docstring's criteria; a stratum or cell with P(s) = 0 has every
        term 0 and passes).  Either is compared lazily, so a dependence
        stops at the first stratum or cell that breaks it."""
        cards = self._cards
        if (mx & (mx - 1) or my & (my - 1)
                or cards[mx.bit_length() - 1] != 2 or cards[my.bit_length() - 1] != 2):
            w_m, w_s, w_sx, w_sy = self._lattice.ci_cells(mx, my, ms)
            return all(map(eq, map(mul, w_m, w_s), map(mul, w_sx, w_sy)))
        w00, w10, w01, w11 = self._lattice.corner_cells(mx, my, ms)
        return all(map(eq, map(mul, w00, w11), map(mul, w10, w01)))

    def sample(self, n: int, seed: int) -> Dataset:
        """n i.i.d. draws, 1 <= n <= ``MAX_ROWS``; deterministic for a fixed
        seed.  The dataset's count table is the tally of the drawn cells, so
        its rows are not checked or counted again."""
        if n < 1:
            raise DistributionError("need at least one sample")
        if n > MAX_ROWS:
            raise DistributionError(f"at most {MAX_ROWS} samples")
        rng = random.Random(seed)
        # w / denom is float(Fraction(w, denom)): both are the correctly
        # rounded quotient of the same rational
        denom, weights = self._denom, self._weights
        cum = list(itertools.accumulate(w / denom for w in weights))
        # every sum from the last nonzero cell on is 1.0, so no draw lands
        # on a trailing zero cell when the sums stop short of 1.0
        last = len(weights) - 1
        while not weights[last]:
            last -= 1
        cum[last:] = [1.0] * (len(cum) - last)
        # the draws of rng.choices(range(len(cum)), cum_weights=cum, k=n)
        # with no Python call per draw: the total is 1.0, so choices bisects
        # random() itself; the sums <= r < 1.0 form a prefix (the 1.0s and
        # any sum rounded past 1.0 exceed r), so its hi = len(cum) - 1 finds
        # the same index
        draws = itertools.starmap(rng.random, itertools.repeat((), n))
        idx = list(map(bisect_right, itertools.repeat(cum, n), draws))
        tally = Counter(idx)
        counts = [0] * len(weights)
        # decode each drawn cell once, as a tuple over the first half of the
        # axes joined to one over the rest; the draws of one cell share it
        h = len(self._cards) // 2
        heads = list(itertools.product(*map(range, self._cards[:h])))
        tails = list(itertools.product(*map(range, self._cards[h:])))
        t = len(tails)
        cells = {}
        for i, k in tally.items():
            counts[i] = k
            cells[i] = heads[i // t] + tails[i % t]
        data = object.__new__(Dataset)
        data._fill(self.variables, tuple(map(cells.__getitem__, idx)), counts)
        return data
