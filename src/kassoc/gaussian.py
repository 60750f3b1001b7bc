"""Linear-Gaussian systems with exact rational covariance algebra.

Path cancellations are measure-zero events, so conditional independence is
decided by exact rational partial correlations, never by thresholding a
float.  The covariance is filled in by the structural recursion along a
topological order, and each CI query is one fraction-free (Bareiss)
elimination over integers that also checks positive definiteness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .graph import Dag, GraphError

ZERO = Fraction(0)


class GaussianError(ValueError):
    """Invalid system or singular query."""


@dataclass(frozen=True)
class GaussianSystem:
    """Linear structural equations: each node = sum of parent terms + noise.

    ``coefficients`` maps (child, parent) to the structural weight; the
    implied graph must be acyclic and every noise variance positive.
    """

    nodes: tuple[str, ...]
    coefficients: Mapping[tuple[str, str], Fraction]
    noise_variances: Mapping[str, Fraction]
    _dag: Dag = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        coeffs = {
            (c, p): Fraction(v) for (c, p), v in self.coefficients.items()
        }
        noises = {n: Fraction(v) for n, v in self.noise_variances.items()}
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
        object.__setattr__(self, "_dag", dag)

    @property
    def dag(self) -> Dag:
        return self._dag

    def covariance(self) -> list[list[Fraction]]:
        """Exact covariance in ``nodes`` order, filled in topological order.

        For j before i, Cov(i, j) = sum_p b_ip Cov(p, j) over the parents p
        of i, and Var(i) = sum_p b_ip Cov(p, i) + d_i.
        """
        n = len(self.nodes)
        pos = {name: i for i, name in enumerate(self.nodes)}
        weights: list[list[tuple[int, Fraction]]] = [[] for _ in range(n)]
        for (c, p), w in self.coefficients.items():
            weights[pos[c]].append((pos[p], w))
        cov = [[ZERO] * n for _ in range(n)]
        done: list[int] = []
        for name in self._dag.topological_order():
            i = pos[name]
            row = cov[i]
            for j in done:
                row[j] = cov[j][i] = sum((w * cov[p][j] for p, w in weights[i]), ZERO)
            row[i] = sum((w * row[p] for p, w in weights[i]), self.noise_variances[name])
            done.append(i)
        return cov


def integer_scaled(cov: Sequence[Sequence[Fraction | int]]) -> list[list[int]]:
    """``cov`` times the lcm of its denominators: an integer matrix with the
    same zero partial correlations and, the scale being positive, the same
    pivot signs.  An integer matrix comes back unchanged, as a copy."""
    den = math.lcm(*(v.denominator for row in cov for v in row))
    return [[v.numerator * (den // v.denominator) for v in row] for row in cov]


def partial_correlation_zero(
    cov: Sequence[Sequence[Fraction | int]], x: int, y: int, s: Sequence[int]
) -> bool:
    """True iff the partial correlation of (x, y) given s is exactly zero.

    ``cov`` holds Fractions or ints (floats are not accepted), ideally
    already :func:`integer_scaled`.  One fraction-free (Bareiss) elimination
    of the integer-scaled submatrix over s + [x, y].  Every pivot is a
    leading principal minor, so the submatrix is positive definite iff all
    pivots are positive; after s is eliminated, the (x, y) entry is
    det(cov[s, s]) * Cov(x, y | s) up to a positive scale.
    """
    idx = list(s) + [x, y]
    if len(set(idx)) != len(idx):
        raise GaussianError("query indices must be distinct")
    a = integer_scaled([[cov[i][j] for j in idx] for i in idx])
    m = len(a)
    prev = 1
    for k in range(m):
        pivot = a[k][k]
        if pivot <= 0:
            raise GaussianError("covariance submatrix is not positive definite")
        row_k = a[k]
        for i in range(k + 1, m):
            row_i = a[i]
            f = row_i[k]
            for j in range(k + 1, m):
                row_i[j] = (pivot * row_i[j] - f * row_k[j]) // prev
        prev = pivot
    return a[-2][-1] == 0
