"""G-test of conditional independence on the count table a ``Dataset``
builds once.  The test itself, ``_g_test``, takes position bitmasks and
reads four marginals, over s | x | y, s, s | x and s | y (the ones the
exact backend's CI check reads for a query that is not a binary pair),
from the dataset's own marginal lattice (``distribution._Lattice.ci_cells``),
which every query on one dataset, from any ``GTestOracle`` or direct call,
shares; the lattice's root, the whole count table with its
cardinalities, gives the degrees of freedom.  A ``GTestOracle`` hands it
the masks it checked; ``g_test`` checks its names with
``graph.query_masks`` on the dataset's name index.

The only floating-point zone in the codebase: the G statistic, and the
chi-squared tail at integer df, a finite sum that stops early once the
rest is below one ulp of the total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .distribution import Dataset, DistributionError
from .graph import _bits, query_masks


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


def chi2_sf(stat: float, df: int) -> float:
    """Survival function of the chi-squared distribution at an integer
    ``df``, as the finite sum (Abramowitz & Stegun 26.4.4 and 26.4.5)

        Q(df/2, x) = [erfc(sqrt x) if df is odd] + sum of e^-x x^a / Gamma(a + 1)
                     over a = a0, a0 + 1, ... below df/2,

    with x = stat/2 and a0 = 1/2 for odd df, 0 for even.  Each term is the
    exp of its logarithm, so it does not underflow where e^-x alone would.
    The sum stops early once a > 2x and a term is below 2^-53 of the
    total: each later term is less than half the one before, so the rest
    is below one ulp.
    """
    if not isinstance(df, int):
        raise ValueError("df must be an int")
    if df <= 0:
        raise ValueError("df must be positive")
    if stat <= 0:
        return 1.0
    x = stat / 2.0
    log_x = math.log(x)
    a, total = (0.5, math.erfc(math.sqrt(x))) if df % 2 else (0.0, 0.0)
    for _ in range(df // 2):
        term = math.exp(a * log_x - x - math.lgamma(a + 1.0))
        total += term
        if term < total * 2.0**-53 and a > stat:
            break
        a += 1.0
    return min(total, 1.0)


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
    lattice = dataset._lattice
    cells = lattice.ci_cells(mx, my, ms)
    stat = 2.0 * math.fsum(
        obs * math.log(obs * n_s / (n_sx * n_sy)) for obs, n_s, n_sx, n_sy in zip(*cells) if obs
    )
    card = lattice[lattice.full][1]
    strata = math.prod(card[i] for i in _bits(ms))
    df = (card[mx.bit_length() - 1] - 1) * (card[my.bit_length() - 1] - 1) * strata
    if df <= 0:
        return GTestResult(stat, 0, True)
    return GTestResult(stat, df, chi2_sf(stat, df) >= cfg.alpha)
