"""G-test of conditional independence on the count table a ``Dataset``
builds once.  The test itself, ``_g_test``, takes position bitmasks and
reads four marginals, over s | x | y, s, s | x and s | y (the ones the
exact backend's CI check reads for a query that is not a binary pair),
from the dataset's own marginal lattice (``distribution._Lattice.ci_cells``),
which every query on one dataset, from any ``GTestOracle`` or direct call,
shares.  A ``GTestOracle`` hands it the masks it checked; ``g_test``
checks its names with ``graph.query_masks`` on the dataset's name index.

The only floating-point zone in the codebase: the G statistic, and the
chi-squared tail (series / continued-fraction regularized incomplete gamma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .distribution import Dataset, DistributionError
from .graph import _bits, query_masks

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
    """Stratified G statistic: G = 2 sum O ln(O/E) over the cells with
    O > 0, where O = n_sxy and E = n_sx n_sy / n_s within each s-assignment.

    The counts n_sxy, n_s, n_sx and n_sy come from the dataset's lattice,
    aligned on the cells over s | x | y in variable order.  Each term is
    O ln(O n_s / (n_sx n_sy)), one correctly rounded quotient of integers,
    and ``math.fsum`` rounds their sum once, so G is the same float for
    any order of s and either order of x and y.
    df = (|dom x| - 1)(|dom y| - 1) * number of strata, where the strata
    are all possible s-assignments, empty ones included.  A malformed
    query is refused before an empty dataset, as by a ``GTestOracle``.
    """
    masks = query_masks(dataset._pos, (x,), (y,), s, DistributionError)
    return _g_test(dataset, *masks, cfg or GTestConfig())


def _g_test(dataset: Dataset, mx: int, my: int, ms: int, cfg: GTestConfig) -> GTestResult:
    """``g_test`` on the position bitmasks of x, y and s in ``dataset``."""
    if len(dataset) == 0:
        raise DistributionError("dataset is empty")
    cells = dataset._lattice.ci_cells(mx, my, ms)
    stat = 2.0 * math.fsum(
        obs * math.log(obs * n_s / (n_sx * n_sy)) for obs, n_s, n_sx, n_sy in zip(*cells) if obs
    )
    card = dataset._lattice.cards
    strata = math.prod(card[i] for i in _bits(ms))
    df = (card[mx.bit_length() - 1] - 1) * (card[my.bit_length() - 1] - 1) * strata
    if df <= 0:
        return GTestResult(stat, 0, True)
    return GTestResult(stat, df, chi2_sf(stat, df) >= cfg.alpha)
