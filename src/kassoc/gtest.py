"""G-test of conditional independence on discrete samples.

The only floating-point zone in the codebase: the chi-squared tail is
computed with a series / continued-fraction implementation of the
regularized incomplete gamma function.
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

    df = (|dom x| - 1)(|dom y| - 1) * number of strata, where the strata
    are all possible s-assignments, empty ones included.
    """
    cfg = cfg or GTestConfig()
    if len(dataset) == 0:
        raise DistributionError("dataset is empty")
    s = list(s)
    names = [x, y] + s
    if len(set(names)) != len(names):
        raise DistributionError("query variables must be distinct")
    cx, cy = dataset.card(x), dataset.card(y)
    pos = {n: dataset.names.index(n) for n in names}

    strata: dict[tuple[int, ...], dict[tuple[int, int], int]] = {}
    for row in dataset.rows:
        key = tuple(row[pos[v]] for v in s)
        cell = (row[pos[x]], row[pos[y]])
        table = strata.setdefault(key, {})
        table[cell] = table.get(cell, 0) + 1

    stat = 0.0
    for table in strata.values():
        n_s = sum(table.values())
        rows = {}
        cols = {}
        for (xv, yv), c in table.items():
            rows[xv] = rows.get(xv, 0) + c
            cols[yv] = cols.get(yv, 0) + c
        for (xv, yv), obs in table.items():
            if obs == 0:
                continue
            expected = rows[xv] * cols[yv] / n_s
            stat += 2.0 * obs * math.log(obs / expected)

    n_strata = 1
    for v in s:
        n_strata *= dataset.card(v)
    df = (cx - 1) * (cy - 1) * n_strata
    if df <= 0:
        return GTestResult(stat, 0, True)
    independent = chi2_sf(stat, df) >= cfg.alpha
    return GTestResult(stat, df, independent)
