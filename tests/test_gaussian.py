"""Exact linear-Gaussian algebra and path cancellation."""

import itertools
import random
from fractions import Fraction as F

import pytest

from kassoc.gaussian import (
    GaussianError,
    GaussianSystem,
    partial_correlation_zero,
)
from references import identity, inverse_partial_correlation_zero, mat_inverse, random_sem


# -- reference algebra: the matrix covariance, kept as the slow twin of the
# -- recursion in kassoc.gaussian; the Gauss-Jordan criterion is in references


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [
        [sum((a[i][t] * b[t][j] for t in range(k)), F(0)) for j in range(m)]
        for i in range(n)
    ]


def matrix_covariance(system):
    """Reference covariance (I - B)^-1 D (I - B)^-T in ``nodes`` order."""
    n = len(system.nodes)
    pos = {name: i for i, name in enumerate(system.nodes)}
    a = identity(n)
    for (c, p), w in system.coefficients.items():
        a[pos[c]][pos[p]] -= w
    ainv = mat_inverse(a)
    d = identity(n)
    for name, v in system.noise_variances.items():
        d[pos[name]][pos[name]] = v
    at = [[ainv[j][i] for j in range(n)] for i in range(n)]
    return mat_mul(mat_mul(ainv, d), at)


def every_query(n):
    """Every ordered pair (x, y) with every conditioning set of the rest."""
    for x, y in itertools.permutations(range(n), 2):
        rest = [v for v in range(n) if v not in (x, y)]
        for r in range(len(rest) + 1):
            for s in itertools.combinations(rest, r):
                yield x, y, s


def chain_system():
    # X -> Z -> Y with unit weights and noises
    return GaussianSystem(
        ("X", "Z", "Y"),
        {("Z", "X"): F(1), ("Y", "Z"): F(1)},
        {"X": F(1), "Z": F(1), "Y": F(1)},
    )


def cancelling_system(alpha=F(1), beta=F(1)):
    # Z := alpha X, Y := beta Z - gamma X with gamma = alpha * beta
    return GaussianSystem(
        ("X", "Z", "Y"),
        {("Z", "X"): alpha, ("Y", "Z"): beta, ("Y", "X"): -alpha * beta},
        {"X": F(1), "Z": F(1), "Y": F(1)},
    )


class TestMatrixAlgebra:
    def test_inverse_roundtrip(self):
        a = [[F(2), F(1)], [F(1), F(1)]]
        ident = mat_mul(a, mat_inverse(a))
        assert ident == [[F(1), F(0)], [F(0), F(1)]]

    def test_inverse_rejects_singular(self):
        with pytest.raises(GaussianError):
            mat_inverse([[F(1), F(1)], [F(1), F(1)]])


class TestSystem:
    def test_rejects_cyclic_coefficients(self):
        with pytest.raises(GaussianError):
            GaussianSystem(
                ("A", "B"),
                {("A", "B"): F(1), ("B", "A"): F(1)},
                {"A": F(1), "B": F(1)},
            )

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(GaussianError):
            GaussianSystem(("A",), {}, {"A": F(0)})

    def test_float_coefficients_are_refused(self):
        # Fraction(0.1) would store 3602879701896397/36028797018963968
        with pytest.raises(GaussianError, match="coefficient of X->Y"):
            GaussianSystem(("X", "Y"), {("Y", "X"): 0.1}, {"X": F(1), "Y": F(1)})

    def test_float_noise_variances_are_refused(self):
        with pytest.raises(GaussianError, match="noise variance of Y"):
            GaussianSystem(("X", "Y"), {("Y", "X"): 1}, {"X": 1, "Y": 0.5})

    @pytest.mark.parametrize("matrix", [
        [[1.0, 0.5], [0.5, 1.0]],
        [[F(1), F(1, 2)], [F(1, 2), 1.0]],
    ], ids=["all-float", "one-float"])
    def test_float_covariance_is_refused(self, matrix):
        with pytest.raises(GaussianError, match="ints or Fractions, not 1.0"):
            partial_correlation_zero(matrix, 0, 1, [])

    def test_chain_covariance_exact(self):
        cov = chain_system().covariance()
        # Var(Z) = 1 + 1 = 2, Cov(X, Y) = 1, Var(Y) = 2 + 1 = 3
        assert cov[1][1] == F(2)
        assert cov[0][2] == F(1)
        assert cov[2][2] == F(3)


class TestPartialCorrelation:
    def test_chain_blocks_through_middle(self):
        cov = chain_system().covariance()
        nodes = ("X", "Z", "Y")
        assert partial_correlation_zero(cov, 0, 2, (1,))
        assert not partial_correlation_zero(cov, 0, 2, ())
        del nodes

    def test_cancellation_zeroes_the_marginal(self):
        cov = cancelling_system().covariance()
        assert cov[0][2] == 0
        assert partial_correlation_zero(cov, 0, 2, ())

    def test_cancellation_opens_conditionally(self):
        cov = cancelling_system().covariance()
        assert not partial_correlation_zero(cov, 0, 2, (1,))

    def test_cancellation_for_general_weights(self):
        cov = cancelling_system(F(2, 3), F(-5, 7)).covariance()
        assert cov[0][2] == 0

    def test_noise_scaling_preserves_ci_answers(self):
        base = cancelling_system()
        scaled = GaussianSystem(
            base.nodes,
            base.coefficients,
            {k: 4 * v for k, v in base.noise_variances.items()},
        )
        a, b = base.covariance(), scaled.covariance()
        for x in range(3):
            for y in range(3):
                if x == y:
                    continue
                for s in ((), tuple({0, 1, 2} - {x, y})):
                    assert partial_correlation_zero(
                        a, x, y, s
                    ) == partial_correlation_zero(b, x, y, s)


class TestFourNodeCancellation:
    def test_cancelled_and_open_pairs(self, all_builtins):
        sys4 = all_builtins["cancel4"].gaussian
        cov = sys4.covariance()
        pos = {n: i for i, n in enumerate(sys4.nodes)}
        x, y, z, w = pos["X"], pos["Y"], pos["Z"], pos["W"]
        assert partial_correlation_zero(cov, x, y, ())
        assert partial_correlation_zero(cov, x, w, (z,))
        assert not partial_correlation_zero(cov, x, z, ())
        assert not partial_correlation_zero(cov, z, w, ())
        assert not partial_correlation_zero(cov, w, y, ())
        assert not partial_correlation_zero(cov, x, y, (z,))


class TestAgreementWithReferences:
    """The one-pass code must match the Gauss-Jordan and matrix references."""

    def _assert_criteria_agree(self, system):
        cov = system.covariance()
        independent = 0
        for x, y, s in every_query(len(system.nodes)):
            fast = partial_correlation_zero(cov, x, y, s)
            assert fast == inverse_partial_correlation_zero(cov, x, y, s), (x, y, s)
            independent += fast
        return independent

    @pytest.mark.parametrize("name", ["cancel3", "cancel4"])
    def test_criterion_on_cancelling_builtins(self, all_builtins, name):
        assert self._assert_criteria_agree(all_builtins[name].gaussian) > 0

    @pytest.mark.parametrize("seed", range(12))
    def test_criterion_on_random_sems(self, seed):
        rng = random.Random(seed)
        self._assert_criteria_agree(random_sem(rng, rng.randint(4, 7)))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_covariance_matches_matrix_form(self, n):
        rng = random.Random(n)
        for _ in range(4):
            system = random_sem(rng, n)
            assert system.covariance() == matrix_covariance(system)

    def test_covariance_matches_matrix_form_on_builtins(self, all_builtins):
        for scenario in all_builtins.values():
            if scenario.gaussian is not None:
                assert scenario.gaussian.covariance() == matrix_covariance(
                    scenario.gaussian
                )

    @pytest.mark.parametrize("matrix", [
        [[F(1), F(1)], [F(1), F(1)]],  # singular
        [[F(1), F(2)], [F(2), F(1)]],  # indefinite
        [[F(1), F(0), F(0)], [F(0), F(-1, 3), F(0)], [F(0), F(0), F(2)]],
        [[1, 0, 0], [0, 1, 2], [0, 2, 1]],  # indefinite on x and y, given s
    ], ids=["singular", "indefinite", "negative-variance", "indefinite-given"])
    def test_non_positive_definite_raises_in_both(self, matrix):
        n = len(matrix)
        with pytest.raises(GaussianError, match="^covariance submatrix is not positive definite$"):
            partial_correlation_zero(matrix, n - 2, n - 1, list(range(n - 2)))
        with pytest.raises(GaussianError):
            inverse_partial_correlation_zero(matrix, n - 2, n - 1, list(range(n - 2)))

    def test_repeated_index_raises_in_both(self):
        cov = chain_system().covariance()
        with pytest.raises(GaussianError):
            partial_correlation_zero(cov, 0, 2, (0,))
        with pytest.raises(GaussianError):
            inverse_partial_correlation_zero(cov, 0, 2, (0,))

    @pytest.mark.parametrize("x,y,s", [
        (0, -1, []), (0, 5, []), (0, -1, [2]), (0, 1, [3]),
    ], ids=["negative", "past-the-end", "negative-with-given", "given-past-the-end"])
    def test_out_of_range_index_is_refused(self, x, y, s):
        """A negative index would silently read from the end of the matrix."""
        cov = chain_system().covariance()
        assert len(cov) == 3
        with pytest.raises(GaussianError, match=r"^query indices must lie in range\(3\)$"):
            partial_correlation_zero(cov, x, y, s)
