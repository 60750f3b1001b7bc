"""Linear-Gaussian systems with exact rational covariance algebra.

Path cancellations are measure-zero events, so conditional independence is
decided by exact rational partial correlations, never by thresholding a
float.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .graph import Dag, GraphError

ZERO = Fraction(0)
ONE = Fraction(1)


class GaussianError(ValueError):
    """Invalid system or singular query."""


def _identity(n: int) -> list[list[Fraction]]:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = [[ZERO] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            out[i][j] = sum((a[i][t] * b[t][j] for t in range(k)), ZERO)
    return out


def mat_inverse(a):
    """Exact Gauss-Jordan inverse; raises on a singular matrix."""
    n = len(a)
    m = [row[:] + ident for row, ident in zip(a, _identity(n))]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise GaussianError("singular matrix")
        m[col], m[pivot] = m[pivot], m[col]
        inv_p = ONE / m[col][col]
        m[col] = [v * inv_p for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return [row[n:] for row in m]


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
        """Exact covariance (I - B)^-1 D (I - B)^-T in ``nodes`` order."""
        n = len(self.nodes)
        pos = {name: i for i, name in enumerate(self.nodes)}
        a = _identity(n)
        for (c, p), w in self.coefficients.items():
            a[pos[c]][pos[p]] -= w
        ainv = mat_inverse(a)
        d = _identity(n)
        for name, v in self.noise_variances.items():
            d[pos[name]][pos[name]] = v
        at = [[ainv[j][i] for j in range(n)] for i in range(n)]
        return mat_mul(mat_mul(ainv, d), at)


def partial_correlation_zero(
    cov: Sequence[Sequence[Fraction]], x: int, y: int, s: Sequence[int]
) -> bool:
    """True iff the partial correlation of (x, y) given s is exactly zero.

    Criterion: the (x, y) entry of the inverse of the covariance submatrix
    over {x, y} | s vanishes.  The submatrix must be positive definite.
    """
    idx = [x, y] + list(s)
    if len(set(idx)) != len(idx):
        raise GaussianError("query indices must be distinct")
    sub = [[Fraction(cov[i][j]) for j in idx] for i in idx]
    _check_positive_definite(sub)
    inv = mat_inverse(sub)
    return inv[0][1] == 0


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
