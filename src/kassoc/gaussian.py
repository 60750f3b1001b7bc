"""Linear-Gaussian systems with exact rational covariance algebra.

Path cancellations are measure-zero events, so conditional independence is
decided by exact rational partial correlations, never by thresholding a
float.  The covariance is filled in by the structural recursion along a
topological order.  Each system answers every CI query from one lattice
of bordered minors of its covariance, scaled to integers once
(``_Minors``): for a conditioning set S it holds D_S = det cov[S, S] and
M_S[i][j] = det cov[S + i, S + j] for i, j outside S, so that x and y are
independent given S iff M_S[x][y] == 0, and a query, pairwise or set,
reads one M_S.  M_S comes from M_T, T being S without its highest
position p, by one exact integer step of Sylvester's identity, as in
Bareiss's fraction-free elimination (Math. Comp. 1968), which checks
positive definiteness on the way: every D_S must be positive.  The
lattice is a ``distribution._MaskLattice``, the budgeted store that the
discrete marginal lattice shares: its root, (1, cov) at the empty mask,
is not counted, and past ``MAX_CELLS`` cells an M_S is computed and not
kept.

``partial_correlation_zero`` decides one query on a covariance matrix by
the same lattice, built over the submatrix of the query's positions; no
oracle calls it.  The Gauss-Jordan inverse in the tests is the lattice's
slow twin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .distribution import _MaskLattice, exact
from .graph import Dag, GraphError, _bits

ZERO = Fraction(0)


class GaussianError(ValueError):
    """Invalid system or singular query."""


@dataclass(frozen=True)
class GaussianSystem:
    """Linear structural equations: each node = sum of parent terms + noise.

    ``coefficients`` maps (child, parent) to the structural weight; the
    implied graph must be acyclic and every noise variance positive.
    Weights and variances must be ints or Fractions.
    """

    nodes: tuple[str, ...]
    coefficients: Mapping[tuple[str, str], Fraction]
    noise_variances: Mapping[str, Fraction]
    dag: Dag = field(init=False, repr=False, compare=False)
    _minors: _Minors | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        coeffs = {(c, p): exact(v, GaussianError, f"coefficient of {p}->{c}")
                  for (c, p), v in self.coefficients.items()}
        noises = {n: exact(v, GaussianError, f"noise variance of {n}")
                  for n, v in self.noise_variances.items()}
        if set(noises) != set(self.nodes):
            raise GaussianError("need one noise variance per node")
        if any(v <= 0 for v in noises.values()):
            raise GaussianError("noise variances must be positive")
        try:
            dag = Dag(self.nodes, [(p, c) for (c, p) in coeffs])
        except GraphError as exc:
            raise GaussianError(f"invalid coefficient structure: {exc}") from exc
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "noise_variances", noises)
        object.__setattr__(self, "dag", dag)

    def __reduce__(self):
        # the lattice is not pickled: a copy starts with an empty one
        return GaussianSystem, (self.nodes, self.coefficients, self.noise_variances)

    def _lattice(self) -> _Minors:
        """The system's minors lattice, made from its integer-scaled
        covariance on first use and shared by every oracle over it."""
        if self._minors is None:
            object.__setattr__(self, "_minors", _Minors(integer_scaled(self.covariance())))
        return self._minors

    def covariance(self) -> list[list[Fraction]]:
        """Exact covariance in ``nodes`` order, filled in the topological
        order that the graph kept when it was built.

        For j before i, Cov(i, j) = sum_p b_ip Cov(p, j) over the parents p
        of i, and Var(i) = sum_p b_ip Cov(p, i) + d_i.
        """
        n = len(self.nodes)
        pos = self.dag._index
        weights: list[list[tuple[int, Fraction]]] = [[] for _ in range(n)]
        for (c, p), w in self.coefficients.items():
            weights[pos[c]].append((pos[p], w))
        cov = [[ZERO] * n for _ in range(n)]
        done: list[int] = []
        for i in self.dag._order:
            row = cov[i]
            for j in done:
                row[j] = cov[j][i] = sum((w * cov[p][j] for p, w in weights[i]), ZERO)
            row[i] = sum((w * row[p] for p, w in weights[i]), self.noise_variances[self.nodes[i]])
            done.append(i)
        return cov


def integer_scaled(cov: Sequence[Sequence[Fraction | int]]) -> list[list[int]]:
    """``cov`` times the lcm of its denominators: an integer matrix with the
    same zero partial correlations and, the scale being positive, the same
    pivot signs.  An integer matrix comes back unchanged, as a copy.  Any
    other entry, such as a float, raises ``GaussianError``."""
    try:
        den = math.lcm(*(v.denominator for row in cov for v in row))
    except AttributeError:
        bad = next(v for row in cov for v in row if not isinstance(v, (int, Fraction)))
        raise GaussianError(f"covariance entries must be ints or Fractions, not {bad!r}") from None
    return [[v.numerator * (den // v.denominator) for v in row] for row in cov]


class _Minors(_MaskLattice):
    """The bordered minors of one integer covariance, by conditioning mask.

    The entry of a position bitmask S is (D_S, M_S): D_S = det cov[S, S]
    and M_S, the rows and columns i, j outside S, in ascending position
    order, of det cov[S + i, S + j].  M_S[i][j] is D_S times
    Cov(i, j | S), so X and Y are independent given S iff M_S[x][y] == 0
    for every x in X and y in Y.  The root is the empty mask, holding
    (1, cov).  A miss at S builds M_S from M_T, T being S without its
    highest position p, by Sylvester's identity in integers:

        M_S[i][j] = (M_T[p][p] * M_T[i][j] - M_T[i][p] * M_T[p][j]) // D_T,

    and D_S = M_T[p][p], which must be positive (cov[S, S] is positive
    definite iff every D along the chain is).
    """

    __slots__ = ()

    def __init__(self, cov: list[list[int]]):
        super().__init__((1 << len(cov)) - 1, 0, (1, cov))

    def _toward(self, ms: int) -> int:
        return ms ^ 1 << (ms.bit_length() - 1)

    def _step(self, entry, t: int, ms: int):
        d, rows = entry
        r = ((self.full ^ t) & ((ms ^ t) - 1)).bit_count()
        prow = rows[r]
        pivot = prow[r]
        if pivot <= 0:
            raise GaussianError("covariance submatrix is not positive definite")
        new = []
        for k, row in enumerate(rows):
            if k != r:
                f = row[r]
                row = [(pivot * a - f * b) // d for a, b in zip(row, prow)]
                del row[r]
                new.append(row)
        return (pivot, new), len(new) ** 2 + 1

    def independent(self, mx: int, my: int, ms: int) -> bool:
        """True iff X and Y, disjoint position bitmasks outside ``ms``, are
        independent given it: M_S is 0 on every X row and Y column."""
        rows = self[ms][1]
        out = self.full ^ ms
        if mx & (mx - 1) or my & (my - 1):
            cols = [(out & ((1 << c) - 1)).bit_count() for c in _bits(my)]
            return not any(rows[(out & ((1 << r) - 1)).bit_count()][c]
                           for r in _bits(mx) for c in cols)
        return not rows[(out & (mx - 1)).bit_count()][(out & (my - 1)).bit_count()]


def partial_correlation_zero(
    cov: Sequence[Sequence[Fraction | int]], x: int, y: int, s: Sequence[int]
) -> bool:
    """True iff the partial correlation of (x, y) given s is exactly zero.

    ``cov`` holds Fractions or ints (floats are not accepted).  Every index
    must lie in ``range(len(cov))`` and occur once.  The submatrix over
    s + [x, y] is :func:`integer_scaled` and given its own ``_Minors``,
    walked to the full mask so that every leading minor is checked: a
    submatrix that is not positive definite raises ``GaussianError``.
    The answer is M_s at the x row and y column.  An oracle does not call
    it: it reads its system's lattice.
    """
    idx = list(s) + [x, y]
    if len(set(idx)) != len(idx):
        raise GaussianError("query indices must be distinct")
    if min(idx) < 0 or max(idx) >= len(cov):
        raise GaussianError(f"query indices must lie in range({len(cov)})")
    minors = _Minors(integer_scaled([[cov[i][j] for j in idx] for i in idx]))
    minors[minors.full]  # the walk checks every leading minor
    ns = len(idx) - 2
    return minors.independent(1 << ns, 2 << ns, (1 << ns) - 1)
