"""G-test of conditional independence on the count table a ``Dataset``
builds once, projected per query by the exact backend's marginal lattice
(``distribution._Lattice``).  The lattice belongs to the dataset, so every
query on one dataset, from any ``GTestOracle`` or direct call, shares it.

The only floating-point zone in the codebase: the G statistic, and the
chi-squared tail (series / continued-fraction regularized incomplete gamma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .distribution import Dataset, DistributionError

_EPS = 3e-14
_MAX_ITER = 500


@dataclass(frozen=True)
class GTestConfig:
    alpha: float = 0.01

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")


class GTestResult(NamedTuple):
    statistic: float
    df: int
    independent: bool


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


def chi2_sf(stat: float, df: int) -> float:
    """Survival function of the chi-squared distribution."""
    if df <= 0:
        raise ValueError("df must be positive")
    if stat <= 0:
        return 1.0
    return 1.0 - regularized_gamma_p(df / 2.0, stat / 2.0)


def g_test(
    dataset: Dataset,
    x: str,
    y: str,
    s: Iterable[str] = (),
    cfg: GTestConfig | None = None,
) -> GTestResult:
    """Stratified G statistic: 2 sum O ln(O/E) within each s-assignment.

    E = n_x n_y / n_s, from the dataset's counts projected onto (s, x, y).
    df = (|dom x| - 1)(|dom y| - 1) * number of strata, where the strata
    are all possible s-assignments, empty ones included.
    """
    if len(dataset) == 0:
        raise DistributionError("dataset is empty")
    names = list(s) + [x, y]
    if len(set(names)) != len(names):
        raise DistributionError("query variables must be distinct")
    pos = {n: i for i, (n, _) in enumerate(dataset.variables)}
    if unknown := [n for n in names if n not in pos]:
        raise DistributionError(f"unknown variable {unknown[0]!r}")
    order = [pos[n] for n in names]
    cards = [c for _, c in dataset.variables]
    table = dataset._lattice.project(order)
    cx, cy = cards[order[-2]], cards[order[-1]]
    block = cx * cy

    stat = 0.0
    for b in range(0, len(table), block):
        n_s = sum(table[b : b + block])
        if not n_s:
            continue
        cols = [sum(table[b + j : b + block : cy]) for j in range(cy)]
        for r in range(b, b + block, cy):
            row = table[r : r + cy]
            n_x = sum(row)
            for obs, n_y in zip(row, cols):
                if obs:
                    stat += 2.0 * obs * math.log(obs / (n_x * n_y / n_s))

    df = (cx - 1) * (cy - 1) * (len(table) // block)
    if df <= 0:
        return GTestResult(stat, 0, True)
    return GTestResult(stat, df, chi2_sf(stat, df) >= (cfg or GTestConfig()).alpha)
