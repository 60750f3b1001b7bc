"""G-test backend: chi-squared tail, df accounting, level and power."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from kassoc.distribution import MAX_CELLS, Cpt, Dataset, DiscreteJoint, DistributionError
from kassoc.graph import Dag
from kassoc.gtest import GTestConfig, GTestResult, chi2_sf, g_test
from kassoc.oracle import GTestOracle
from kassoc.scenarios import BUILTINS, builtin
from conftest import zero_cell_joints
from references import regularized_gamma_p


def rowscan_g_test(dataset, x, y, s=(), cfg=None):
    """Reference: the row-scan G-test that ``g_test`` replaced, kept as it
    was apart from reading cardinalities from ``dataset.variables``.  It
    rebuilds the strata from every row on every call, in order of first
    appearance."""
    cfg = cfg or GTestConfig()
    if len(dataset) == 0:
        raise DistributionError("dataset is empty")
    s = list(s)
    names = [x, y] + s
    if len(set(names)) != len(names):
        raise DistributionError("query variables must be distinct")
    card = dict(dataset.variables)
    cx, cy = card[x], card[y]
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
        n_strata *= card[v]
    df = (cx - 1) * (cy - 1) * n_strata
    if df <= 0:
        return GTestResult(stat, 0, True)
    independent = chi2_sf(stat, df) >= cfg.alpha
    return GTestResult(stat, df, independent)


class TestChiSquaredTail:
    # survival values cross-checked against standard chi-squared tables
    @pytest.mark.parametrize(
        "stat,df,expected",
        [
            (3.841, 1, 0.05),
            (6.635, 1, 0.01),
            (5.991, 2, 0.05),
            (9.210, 2, 0.01),
            (7.815, 3, 0.05),
            (20.09, 8, 0.01),
        ],
    )
    def test_table_values(self, stat, df, expected):
        assert chi2_sf(stat, df) == pytest.approx(expected, rel=5e-3)

    def test_zero_statistic(self):
        assert chi2_sf(0.0, 3) == pytest.approx(1.0)

    def test_monotone_in_statistic(self):
        values = [chi2_sf(x, 4) for x in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)]
        assert values == sorted(values, reverse=True)

    def test_gamma_p_complements(self):
        for a in (0.5, 1.5, 4.0):
            for x in (0.1, 1.0, 5.0, 20.0):
                p = regularized_gamma_p(a, x)
                assert 0.0 <= p <= 1.0

    def test_known_point(self):
        # Q(1, 2) = e^-2
        assert chi2_sf(4.0, 2) == math.exp(-2.0)

    @pytest.mark.parametrize("stat", [1e-3, 0.5, 3.841, 10.0, 75.0, 600.0])
    def test_closed_forms(self, stat):
        x = stat / 2
        assert math.isclose(chi2_sf(stat, 1), math.erfc(math.sqrt(x)), rel_tol=1e-15)
        assert math.isclose(chi2_sf(stat, 2), math.exp(-x), rel_tol=1e-15)
        assert math.isclose(chi2_sf(stat, 4), math.exp(-x) * (1 + x), rel_tol=1e-13)

    @pytest.mark.parametrize("df", [*range(1, 65), 256, 1000, 4096])
    def test_agrees_with_incomplete_gamma(self, df):
        """The twin's 1 - P is one rounded subtraction from 1, so it is
        known only to about 2^-53 absolute: a tail far below that is checked
        by the pinned values below, not here."""
        for ratio in (0.05, 0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0):
            stat = ratio * df
            want = 1.0 - regularized_gamma_p(df / 2, stat / 2)
            assert abs(chi2_sf(stat, df) - want) <= 1e-9 * want + 2.0**-52, (df, ratio)

    # Q(df/2, stat/2) by mpmath 1.3.0 at 40 digits, rounded to the nearest
    # float: mpmath.gammainc(mpf(df)/2, mpf(stat)/2, mpmath.inf,
    # regularized=True), at the float stat = df + z * math.sqrt(2 * df).
    # Past a few thousand df the twin stops before it converges (at 2^18 and
    # z = 0 it gives 0.5831).
    @pytest.mark.parametrize("df, z, want", [
        (65536, -1, 0.8413459816499506),
        (65536, 0, 0.49926537802188137),
        (65536, 2.33, 0.010118704043558394),
        (2**18, -1, 0.8413450543558174),
        (2**18, 0, 0.4996326890576427),
        (2**18, 2.33, 0.010010863928398344),
    ])
    def test_large_df(self, df, z, want):
        assert math.isclose(chi2_sf(df + z * math.sqrt(2 * df), df), want, rel_tol=1e-9)

    # Q(df/2, stat/2) by mpmath 1.3.0, as above; 1 - P reads each as 0.0,
    # or, near 1e-9, wrong in its 8th digit
    @pytest.mark.parametrize("stat, df, want", [
        (37.3, 1, 1.0128460462528371e-09),
        (41.4465, 2, 1.000015837071816e-09),
        (100.0, 7, 1.0787979671702883e-18),
        (300.0, 30, 2.648048485630878e-46),
        (1300.0, 1, 1.1303728441492743e-284),
        (1400.0, 10, 9.920391479800145e-295),
    ])
    def test_small_tail(self, stat, df, want):
        assert math.isclose(chi2_sf(stat, df), want, rel_tol=1e-12)

    @pytest.mark.parametrize("df, text", [
        (2.0, "an int"), (1.5, "an int"), ("2", "an int"), (None, "an int"),
        (0, "positive"), (-1, "positive"),
    ])
    def test_df_must_be_a_positive_int(self, df, text):
        with pytest.raises(ValueError, match=f"^df must be {text}$"):
            chi2_sf(3.0, df)


def two_coins(n, seed):
    j = DiscreteJoint.from_cpts(
        Dag(["A", "B"], []), [Cpt.coin("A", F(1, 2)), Cpt.coin("B", F(1, 2))]
    )
    return j.sample(n, seed)


def coupled(n, seed):
    # B is a noisy copy of A
    a = Cpt.coin("A", F(1, 2))
    b = Cpt.noisy_function("B", ("A",), (2,), lambda v: v, F(1, 10))
    j = DiscreteJoint.from_cpts(Dag(["A", "B"], [("A", "B")]), [a, b])
    return j.sample(n, seed)


class TestGTest:
    def test_df_marginal(self):
        res = g_test(two_coins(500, 0), "A", "B")
        assert res.df == 1

    def test_df_counts_all_strata(self, example1):
        data = example1.joint.sample(500, 0)
        res = g_test(data, "X", "Z", ("Y",))
        assert res.df == 2  # (2-1)(2-1) * 2 strata

    def test_accepts_true_independence(self):
        hits = sum(
            g_test(two_coins(2000, s), "A", "B", (), GTestConfig(0.01)).independent
            for s in range(40)
        )
        assert hits >= 38

    def test_rejects_strong_dependence(self):
        for s in range(10):
            res = g_test(coupled(2000, s), "A", "B", (), GTestConfig(0.01))
            assert not res.independent

    def test_statistic_nonnegative(self):
        assert g_test(two_coins(300, 5), "A", "B").statistic >= 0.0

    def test_degenerate_df_defaults_independent(self):
        # a one-state variable leaves no degree of freedom: every observed
        # count is its expected count, and the verdict is independent
        data = Dataset([("A", 1), ("B", 3)], [(0, b) for b in (0, 1, 1, 2, 2, 2)])
        for x, y in (("A", "B"), ("B", "A")):
            assert g_test(data, x, y, (), GTestConfig(alpha=0.01)) == GTestResult(0.0, 0, True)


class TestFrozenAcceptanceThresholds:
    """Level/power spot check at the frozen operating point (n=10^4,
    alpha=0.01); the full 100-seed sweep lives in the acceptance suite."""

    def test_example1_single_seed(self, example1):
        data = example1.joint.sample(10_000, 12345)
        cfg = GTestConfig(alpha=0.01)
        assert g_test(data, "X", "Y", (), cfg).independent
        assert not g_test(data, "X", "Z", ("Y",), cfg).independent


def assert_agrees_with_rowscan(data, cfg=None):
    """Every pair and every conditioning set: same df and verdict as the
    row scan, and the statistic equal up to float summation order.  The
    result is the very same with x and y swapped and s reversed, and fresh
    oracles (empty caches) give one verdict for either orientation."""
    names = data.names
    for x, y in itertools.permutations(names, 2):
        rest = [v for v in names if v not in (x, y)]
        for r in range(len(rest) + 1):
            for s in itertools.combinations(rest, r):
                got, want = g_test(data, x, y, s, cfg), rowscan_g_test(data, x, y, s, cfg)
                assert (got.df, got.independent) == (want.df, want.independent)
                assert abs(got.statistic - want.statistic) <= 1e-10 * max(1.0, want.statistic)
                assert got == g_test(data, y, x, s[::-1], cfg), (x, y, s)
                assert GTestOracle(data, cfg).query(y, x, s) == GTestOracle(data, cfg).query(x, y, s)


DISCRETE = sorted(n for n in BUILTINS if builtin(n).kind == "discrete")


class TestSampledCountsAgreeWithCheckedRows:
    """``sample`` takes its dataset's count table from the cells it drew;
    the reference is the dataset that checks and counts the same rows."""

    @pytest.mark.parametrize("n,seed", [(n, seed) for n in (1, 1000) for seed in range(3)])
    def test_every_sampled_joint(self, cpt_nets, n, seed):
        joints = [builtin(name).joint for name in DISCRETE]
        joints += [DiscreteJoint.from_cpts(dag, cpts) for dag, cpts in cpt_nets]
        joints += zero_cell_joints()
        for j in joints:
            data = j.sample(n, seed)
            ref = Dataset(data.variables, data.rows)
            assert data == ref and len(data) == n
            assert data._pos == ref._pos
            assert data._lattice[data._lattice.full] == ref._lattice[ref._lattice.full]
            names = data.names
            for x, y in itertools.permutations(names, 2):
                rest = [v for v in names if v not in (x, y)]
                for r in range(len(rest) + 1):
                    for s in itertools.combinations(rest, r):
                        assert g_test(data, x, y, s) == g_test(ref, x, y, s), (x, y, s)


class TestAgreesWithRowScan:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", DISCRETE)
    def test_builtin_samples(self, name, seed):
        assert_agrees_with_rowscan(builtin(name).joint.sample(1000, seed))

    @pytest.mark.parametrize("seed", range(4))
    def test_small_tables_with_empty_strata(self, seed):
        # cardinalities 1, 3 and 4; 25 rows over 36 cells leave strata empty
        rng = random.Random(seed)
        variables = (("A", 3), ("B", 4), ("C", 1), ("D", 3))
        rows = tuple(
            tuple(rng.randrange(c) for _, c in variables) for _ in range(25)
        )
        assert_agrees_with_rowscan(Dataset(variables, rows), GTestConfig(alpha=0.2))

    def test_single_row(self):
        assert_agrees_with_rowscan(Dataset((("A", 2), ("B", 3), ("C", 2)), ((1, 2, 0),)))


class TestDatasetChecks:
    VARIABLES = (("A", 2), ("B", 3))

    @pytest.mark.parametrize("rows", [
        ((0, 1), (2, 0)),
        ((0, 1), (1, -1)),
        ((0, 1), (1,)),
        ((0, 1), (1, 2, 0)),
        ((0, 1), (1.0, 2)),
    ], ids=["out-of-domain", "negative", "short-row", "long-row", "float"])
    def test_bad_row_is_refused(self, rows):
        with pytest.raises(DistributionError,
                           match=r"is not one value in range\(card\) per variable$"):
            Dataset(self.VARIABLES, rows)

    def test_domain_wider_than_max_cells_is_refused(self):
        width = MAX_CELLS.bit_length()  # 2**width > MAX_CELLS
        with pytest.raises(DistributionError, match="too large"):
            Dataset(tuple((f"V{i}", 2) for i in range(width)), ())

    @pytest.mark.parametrize("x,y,s", [
        ("A", "B", ("Q",)), ("Q", "B", ()), ("A", "Q", ()),
    ], ids=["given", "x", "y"])
    def test_unknown_variable(self, x, y, s):
        data = Dataset(self.VARIABLES, ((0, 1), (1, 2)))
        with pytest.raises(DistributionError, match="unknown variable 'Q'"):
            g_test(data, x, y, s)

    def test_empty_dataset_is_refused_after_the_names(self):
        """``g_test`` checks its names first, as an oracle does before its
        backend reads the dataset."""
        data = Dataset(self.VARIABLES, ())
        with pytest.raises(DistributionError, match="^unknown variable 'Q'$"):
            g_test(data, "A", "Q")
        with pytest.raises(DistributionError, match="^dataset is empty$"):
            g_test(data, "A", "B")
        with pytest.raises(DistributionError, match="^dataset is empty$"):
            GTestOracle(data).query("A", "B")

    def test_counts_do_not_affect_equality(self):
        a = Dataset(self.VARIABLES, ((0, 1), (1, 2)))
        b = Dataset(self.VARIABLES, ((0, 1), (1, 2)))
        assert a == b and hash(a) == hash(b)
        assert "_lattice" not in repr(a) and "_pos" not in repr(a)

    def test_list_input_is_stored_as_its_tuple_twin(self):
        rows = ((0, 1), (1, 2), (1, 0), (0, 2), (1, 1))
        twin = Dataset(self.VARIABLES, rows)
        data = Dataset([["A", 2], ["B", 3]], [list(r) for r in rows])
        assert data.variables == self.VARIABLES and data.rows == rows
        assert data == twin and hash(data) == hash(twin)
        assert g_test(data, "A", "B") == g_test(twin, "A", "B")
        with pytest.raises(DistributionError, match="^cardinality of A must be an int, not '2'$"):
            Dataset([["A", "2"], ["B", 3]], [list(r) for r in rows])
