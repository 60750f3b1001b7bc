"""Exact discrete joint distributions.

The API speaks ``fractions.Fraction``: CPT rows, ``DiscreteJoint.probs``
and ``prob`` are exact rationals.  Each joint also keeps its table as
integer weights over one common denominator, and marginals and
independence checks run on those Python ints: the CI criterion
P(x,y,s) P(s) == P(x,s) P(y,s) is scale-invariant, so the weights give
exactly the answer the probabilities give.  Independence is decided by
exact equality, never by a tolerance.  Tables are dense over all
assignments (desk scale, capped at ``MAX_CELLS`` = 2**20 cells).

Every marginal comes from one projection, ``_Lattice``: the marginal over
a set of positions is summed out of the cached marginal over that set plus
one more position, down from the full table.  Each ``DiscreteJoint`` and
``Dataset`` makes one lattice when it is built and projects every query
through it, so all queries on one table (a scenario's Markov check, every
oracle over it, ``prob`` and ``marginalize``) share their partial sums; the
lattice stores at most ``MAX_CELLS`` cells and goes away with its table.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
from typing import Callable, Iterable, Iterator, Mapping, Sequence

MAX_CELLS = 1 << 20

ONE = Fraction(1)
ZERO = Fraction(0)


class DistributionError(ValueError):
    """Invalid distribution construction or query."""


@dataclass(frozen=True)
class Cpt:
    """Conditional probability table of one variable given its parents.

    ``rows`` maps a parent assignment (tuple of values in ``parents``
    order) to a probability vector over the child's domain.  Each vector
    must sum to exactly 1.
    """

    child: str
    child_card: int
    parents: tuple[str, ...]
    parent_cards: tuple[int, ...]
    rows: Mapping[tuple[int, ...], tuple[Fraction, ...]]

    def __post_init__(self):
        size = math.prod(self.parent_cards)
        if size > MAX_CELLS:
            raise DistributionError(f"CPT for {self.child}: more than {MAX_CELLS} parent rows")
        if len(self.rows) != size or set(self.rows) != set(
            itertools.product(*(range(c) for c in self.parent_cards))
        ):
            raise DistributionError(f"CPT for {self.child}: wrong set of parent rows")
        for pa, vec in self.rows.items():
            if len(vec) != self.child_card:
                raise DistributionError(f"CPT for {self.child}: bad row length at {pa}")
            if any(p < 0 for p in vec):
                raise DistributionError(f"CPT for {self.child}: negative probability")
            if sum(vec) != ONE:
                raise DistributionError(f"CPT for {self.child}: row {pa} does not sum to 1")

    @staticmethod
    def prior(name: str, probs: Sequence[Fraction]) -> "Cpt":
        return Cpt(name, len(probs), (), (), {(): tuple(Fraction(p) for p in probs)})

    @staticmethod
    def coin(name: str, p_one: Fraction) -> "Cpt":
        p = Fraction(p_one)
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
        flip = Fraction(flip)
        rows = {}
        for pa in itertools.product(*(range(c) for c in parent_cards)):
            v = fn(*pa)
            if v not in (0, 1):
                raise DistributionError("noisy_function requires a boolean function")
            p_one = ONE - flip if v == 1 else flip
            rows[pa] = (ONE - p_one, p_one)
        return Cpt(child, 2, tuple(parents), tuple(parent_cards), rows)


@dataclass(frozen=True)
class Dataset:
    """Finite sample of integer-coded rows, one value in ``range(card)`` per
    variable (at most ``MAX_CELLS`` assignments), counted once into ``_counts``:
    the dense row-major table over ``variables`` that each G-test query
    projects through the dataset's own marginal lattice, ``_lattice``."""

    variables: tuple[tuple[str, int], ...]
    rows: tuple[tuple[int, ...], ...]
    _counts: list[int] = field(init=False, repr=False, compare=False)
    _lattice: _Lattice = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cards = [c for _, c in _domains(self.variables)[0]]
        strides, size = _strides(cards, range(len(cards)))
        counts = [0] * size
        for row, n in Counter(map(tuple, self.rows)).items():
            if len(row) != len(cards) or not all(v in range(c) for v, c in zip(row, cards)):
                raise DistributionError(f"row {row} is not one value in range(card) per variable")
            counts[sum(int(v) * st for v, st in zip(row, strides))] += n
        object.__setattr__(self, "_counts", counts)
        object.__setattr__(self, "_lattice", _Lattice(counts, cards))

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
    """Target index of every cell of a row-major table over ``cards``,
    built by product expansion in table order (no per-cell tuples)."""
    idx = [0]
    for c, st in zip(cards, strides):
        if st:
            steps = range(0, c * st, st)
            idx = [i + d for i in idx for d in steps]
        elif c > 1:
            idx = [i for i in idx for _ in range(c)]
    return idx


def _sum_out(table: Sequence[int], cards: Sequence[int], p: int) -> Sequence[int]:
    """Sum a row-major table over the variable at position ``p``.

    The table is viewed as (outer, card, inner) blocks; the adds run over
    slices inside ``map``, with a Python loop over whichever of ``outer``
    and ``inner`` is shorter.
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
            out[j::inner] = col
        return out
    out = []
    for b in range(0, len(table), block):
        col = table[b : b + inner]
        for v in range(1, c):
            col = map(add, col, table[b + v * inner : b + (v + 1) * inner])
        out += col
    return out


class _Budgeted(dict):
    """A cache that stores an entry only while the cells it stores stay
    within ``MAX_CELLS``; past that budget, callers use what they computed
    without storing it."""

    __slots__ = ("cells",)

    def __init__(self):
        super().__init__()
        self.cells = 0

    def keep(self, key, cells: Sequence[int]) -> Sequence[int]:
        if self.cells + len(cells) <= MAX_CELLS:
            self[key] = cells
            self.cells += len(cells)
        return cells


# shape -> gather index list; a shape fixes its list, so every lattice shares them
_GATHERS = _Budgeted()


class _Lattice:
    """Cached marginals of one dense row-major integer table over ``cards``.

    ``marginals`` maps a position bitmask K to the marginal over K, kept in
    ascending position order.  On a miss, the highest position p outside K
    is summed out of the marginal of K | p; that lookup recurses, and the
    full mask is the table itself.  Any other position order reads the
    ascending marginal through a gather index list, built once per shape
    (the kept cardinalities and their strides) and shared by all lattices.

    A lattice belongs to its table: each ``DiscreteJoint`` and ``Dataset``
    makes one at construction, every query on that table reads it, and a
    copy or unpickled table starts with an empty one.
    """

    __slots__ = ("table", "cards", "marginals")

    def __init__(self, table: Sequence[int], cards: Sequence[int]):
        self.table = table
        self.cards = tuple(cards)
        self.marginals = _Budgeted()

    def project(self, order: Sequence[int]) -> Sequence[int]:
        """Weights of the row-major marginal over the positions ``order``,
        kept in that order."""
        mask = 0
        for p in order:
            mask |= 1 << p
        table = self._ascending(mask)
        ascending = sorted(order)
        if list(order) == ascending:
            return table
        strides, _ = _strides(self.cards, ascending)
        shape = (tuple(self.cards[p] for p in order), tuple(strides[p] for p in order))
        gather = _GATHERS.get(shape) or _GATHERS.keep(shape, _index_map(*shape))
        return [table[i] for i in gather]

    def _ascending(self, mask: int) -> Sequence[int]:
        full = (1 << len(self.cards)) - 1
        if mask == full:
            return self.table
        table = self.marginals.get(mask)
        if table is None:
            p = (full & ~mask).bit_length() - 1
            up = mask | 1 << p
            kept = [c for q, c in enumerate(self.cards) if up >> q & 1]
            below = (mask & ((1 << p) - 1)).bit_count()  # p's axis in the marginal of up
            table = self.marginals.keep(mask, _sum_out(self._ascending(up), kept, below))
        return table


def _domains(variables: Iterable[tuple[str, int]]) -> tuple[tuple[tuple[str, int], ...], int]:
    """Validated ``(name, cardinality)`` pairs and the dense table size."""
    variables = tuple((str(n), int(c)) for n, c in variables)
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


def _int_factor(cpt: Cpt) -> tuple[int, list[int]]:
    """A CPT as one denominator and its entries scaled to integers, flat in
    row-major order over (parents..., child)."""
    rows = [
        [Fraction(p) for p in cpt.rows[pa]]
        for pa in itertools.product(*(range(c) for c in cpt.parent_cards))
    ]
    denom = math.lcm(*(p.denominator for row in rows for p in row))
    return denom, [p.numerator * (denom // p.denominator) for row in rows for p in row]


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
        probs = tuple(Fraction(p) for p in probs)
        if len(probs) != size:
            raise DistributionError("table size does not match variable domains")
        denom = math.lcm(*(p.denominator for p in probs))
        weights = tuple(p.numerator * (denom // p.denominator) for p in probs)
        if any(w < 0 for w in weights):
            raise DistributionError("negative probability entry")
        if sum(weights) != denom:
            raise DistributionError("probabilities must sum to exactly 1")
        self._fill(variables, weights, denom)

    def _fill(self, variables, weights, denom) -> None:
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "_denom", denom)
        object.__setattr__(self, "_cards", tuple(c for _, c in variables))
        object.__setattr__(self, "_pos", {n: i for i, (n, _) in enumerate(variables)})
        object.__setattr__(self, "_lattice", _Lattice(weights, self._cards))

    @classmethod
    def _from_weights(cls, variables, weights, denom) -> "DiscreteJoint":
        """Joint over already validated ``variables`` from non-negative
        integer weights that sum to ``denom``."""
        joint = object.__new__(cls)
        joint._fill(variables, tuple(weights), denom)
        return joint

    @classmethod
    def _product(cls, variables, factors) -> "DiscreteJoint":
        """Product of integer factors ``(positions, denom, flat_ints)``, one
        division by the product of their denominators at the end."""
        variables, size = _domains(variables)
        cards = [c for _, c in variables]
        weights = [1] * size
        denom = 1
        for positions, d, ints in factors:
            strides, _ = _strides(cards, positions)
            weights = [w * ints[k] for w, k in zip(weights, _index_map(cards, strides))]
            denom *= d
        g = math.gcd(*weights)  # positive: the weights sum to denom
        return cls._from_weights(variables, [w // g for w in weights], denom // g)

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteJoint is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, DiscreteJoint)
            and self.variables == other.variables
            and self.probs == other.probs
        )

    def __hash__(self):
        return hash((self.variables, self.probs))

    @property
    def probs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(w, self._denom) for w in self._weights)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.variables)

    def card(self, name: str) -> int:
        return self._cards[self._position(name)]

    def _position(self, name: str) -> int:
        try:
            return self._pos[name]
        except KeyError:
            raise DistributionError(f"unknown variable {name!r}") from None

    def assignments(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(*(range(c) for c in self._cards))

    def prob(self, assignment: Mapping[str, int]) -> Fraction:
        """Probability of a full or partial assignment (exact sum)."""
        fixed = {self._position(n): v for n, v in assignment.items()}
        index = 0
        for p, v in fixed.items():
            c = self._cards[p]
            if v not in range(c):
                return ZERO
            index = index * c + int(v)
        weights = self._lattice.project(list(fixed))
        return Fraction(weights[index], self._denom)

    def __reduce__(self):
        # the lattice is not pickled: a copy starts with an empty one
        return DiscreteJoint._from_weights, (self.variables, self._weights, self._denom)

    # -- construction --------------------------------------------------------

    @staticmethod
    def from_cpts(dag, cpts: Iterable[Cpt]) -> "DiscreteJoint":
        """Product of CPT entries over all full assignments.

        One CPT per node; CPT parents must match the graph's parent sets.
        """
        by_child = {}
        for cpt in cpts:
            if cpt.child in by_child:
                raise DistributionError(f"duplicate CPT for {cpt.child}")
            by_child[cpt.child] = cpt
        if set(by_child) != set(dag.nodes):
            raise DistributionError("need exactly one CPT per graph node")
        cards = {}
        for node in dag.nodes:
            cpt = by_child[node]
            if set(cpt.parents) != dag.parents(node):
                raise DistributionError(
                    f"CPT parents for {node} do not match graph parents"
                )
            cards[node] = cpt.child_card
        for node in dag.nodes:
            cpt = by_child[node]
            for p, c in zip(cpt.parents, cpt.parent_cards):
                if cards[p] != c:
                    raise DistributionError(
                        f"CPT for {node}: cardinality mismatch on parent {p}"
                    )
        pos = {n: i for i, n in enumerate(dag.nodes)}
        factors = []
        for node in dag.nodes:
            cpt = by_child[node]
            positions = [pos[q] for q in cpt.parents] + [pos[node]]
            factors.append((positions, *_int_factor(cpt)))
        return DiscreteJoint._product([(n, cards[n]) for n in dag.nodes], factors)

    # -- queries --------------------------------------------------------------

    def marginalize(self, keep: Iterable[str]) -> "DiscreteJoint":
        """Exact summation over all dropped variables."""
        positions = [self._position(n) for n in keep]
        if len(set(positions)) != len(positions):
            raise DistributionError("duplicate variable names")
        weights = self._lattice.project(positions)
        return DiscreteJoint._from_weights(
            tuple(self.variables[p] for p in positions), weights, self._denom
        )

    def is_independent(self, x: str, y: str, s: Iterable[str] = ()) -> bool:
        """Exact pairwise CI: P(x,y|s) == P(x|s) P(y|s) wherever P(s) > 0."""
        return self.is_independent_sets([x], [y], s)

    def is_independent_sets(
        self, xs: Iterable[str], ys: Iterable[str], s: Iterable[str] = ()
    ) -> bool:
        """Set-valued exact CI check on the marginal table over s, xs, ys.

        Zero-probability conditioning events are skipped, never divided
        by: the criterion is the cross-multiplied identity
        P(x,y,s) * P(s) == P(x,s) * P(y,s), checked on the integer
        weights (scaling every cell by the common denominator keeps it
        exact).  The table is projected onto s in ascending position
        order (the answer does not depend on the order of s), then xs,
        then ys; within each block of one s value, P(s) is the block sum
        and P(x,s), P(y,s) are its row and column sums.  The projection
        comes from the joint's marginal lattice (see ``_Lattice``), which
        every query on this joint shares, whichever oracle asks it.
        """
        xs, ys, s = list(xs), list(ys), list(s)
        if not xs or not ys:
            raise DistributionError("query sets must be non-empty")
        names = s + xs + ys
        if len(set(names)) != len(names):
            raise DistributionError("query sets must be pairwise disjoint")
        w = self._lattice.project(sorted(self._position(n) for n in s)
                                  + [self._position(n) for n in xs + ys])
        nx = math.prod(self.card(n) for n in xs)
        ny = math.prod(self.card(n) for n in ys)
        block = nx * ny
        for b in range(0, len(w), block):
            w_s = sum(w[b : b + block])
            if not w_s:
                continue
            w_ys = [sum(w[b + j : b + block : ny]) for j in range(ny)]
            for r in range(b, b + block, ny):
                row = w[r : r + ny]
                w_xs = sum(row)
                if any(v * w_s != w_xs * w_y for v, w_y in zip(row, w_ys)):
                    return False
        return True

    def sample(self, n: int, seed: int) -> Dataset:
        """n i.i.d. draws; deterministic for a fixed seed."""
        if n < 1:
            raise DistributionError("need at least one sample")
        rng = random.Random(seed)
        cum = list(itertools.accumulate(float(p) for p in self.probs))
        cum[-1] = 1.0
        cells = list(self.assignments())
        idx = rng.choices(range(len(cells)), cum_weights=cum, k=n)
        return Dataset(self.variables, tuple(cells[i] for i in idx))
