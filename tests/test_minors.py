"""The Gaussian minors lattice against its slow twin.

Every Gaussian backend call reads one M_S of its system's lattice
(``gaussian._Minors``).  Here each answer is checked, query by query,
under the real cell budget and under small ones, against the Gauss-Jordan
inverse of ``references.inverse_partial_correlation_zero``, which shares
no code with the lattice, and against ``partial_correlation_zero``, which
builds a lattice over each query's submatrix alone; and whole audit and
sparsest-permutation reports against an oracle that answers through
``partial_correlation_zero``, so that no two of its calls share a minor.
"""

import copy
import itertools
import pickle
import random
from fractions import Fraction as F
from types import SimpleNamespace
from unittest import mock

import pytest

from conftest import random_cpt_net
from references import inverse_partial_correlation_zero, random_sem
from kassoc import distribution
from kassoc.audit import audit_scenario
from kassoc.gaussian import GaussianError, GaussianSystem, _Minors, partial_correlation_zero
from kassoc.graph import _bits
from kassoc.oracle import GaussianOracle, IndependenceOracle
from kassoc.scenarios import builtin
from kassoc.sparsest import minimizer_dicts, sparsest_permutations


def pairwise_references(system):
    """{(x, y, s mask): answer} for every ordered pair of positions and
    every conditioning set of the rest, where the two references agree."""
    cov = system.covariance()
    table = {}
    for x, y in itertools.combinations(range(len(cov)), 2):
        rest = [v for v in range(len(cov)) if v not in (x, y)]
        for r in range(len(rest) + 1):
            for s in itertools.combinations(rest, r):
                ans = partial_correlation_zero(cov, x, y, s)
                assert ans == inverse_partial_correlation_zero(cov, x, y, s), (x, y, s)
                ms = sum(1 << v for v in s)
                table[x, y, ms] = table[y, x, ms] = ans
    return table


def assert_every_query_agrees(system):
    """Every query, pairwise or set, each side in both roles and under
    every conditioning set of the rest, answers as the references do (a
    set query as the conjunction of its pairs).  Returns the oracle."""
    want = pairwise_references(system)
    o = GaussianOracle(system)
    names = system.nodes
    asked = independent = 0
    for roles in itertools.product("xys-", repeat=len(names)):
        xs, ys, s = ([i for i, r in enumerate(roles) if r == k] for k in "xys")
        if not xs or not ys:
            continue
        ms = sum(1 << v for v in s)
        ans = o.query_sets([names[i] for i in xs], [names[i] for i in ys], [names[i] for i in s])
        assert ans == all(want[x, y, ms] for x in xs for y in ys), (xs, ys, s)
        asked += 1
        independent += ans
    assert o.query_count == asked and independent > 0
    return o


def random_systems(tag, sizes):
    for n in sizes:
        rng = random.Random(f"minors:{tag}:{n}")
        yield random_sem(rng, n)


@pytest.mark.parametrize("system", [
    *random_systems("every", [4, 4, 5, 5, 6, 6, 7]),
    builtin("cancel3").gaussian,
    builtin("cancel4").gaussian,
], ids=["sem4a", "sem4b", "sem5a", "sem5b", "sem6a", "sem6b", "sem7", "cancel3", "cancel4"])
def test_every_query_agrees_with_both_references(system):
    o = assert_every_query_agrees(system)
    lattice = o._minors
    # every conditioning set that leaves a pair outside it has been read
    full = lattice.full
    assert set(lattice) == {ms for ms in range(full) if (full ^ ms).bit_count() >= 2}
    assert lattice.cells <= distribution.MAX_CELLS


@pytest.mark.parametrize("budget", [0, 1, 26, 60])
def test_answers_stay_exact_under_a_small_cell_budget(budget):
    """Past the budget an M_S is computed and not kept; the answers do not
    change, and the lattice never holds more cells than the budget."""
    with mock.patch.object(distribution, "MAX_CELLS", budget):
        for system in random_systems(f"budget:{budget}", [5, 6]):
            lattice = assert_every_query_agrees(system)._minors
            assert lattice.cells <= budget
            assert 0 in lattice  # the covariance itself, not counted
            assert len(lattice) < (1 << len(system.nodes)) - 1
            if budget < 26:  # one M_S over five positions outside S takes 26 cells
                assert list(lattice) == [0]


def test_a_system_shares_one_lattice_and_a_copy_starts_empty():
    system = builtin("cancel4").gaussian
    o = GaussianOracle(system)
    assert not o.query("X", "Y", ["Z"])
    assert GaussianOracle(system)._minors is o._minors is system._minors
    assert len(system._minors) > 1
    copies = [copy.copy(system), copy.deepcopy(system), pickle.loads(pickle.dumps(system))]
    for twin in copies:
        assert twin == system and twin._minors is None
        fresh = GaussianOracle(twin)._minors
        assert fresh is not system._minors and list(fresh) == [0]
        assert fresh[0] == system._minors[0]
    assert all(twin._minors is not system._minors for twin in copies)


@pytest.mark.parametrize("block", [
    [[1, 1], [1, 1]],  # singular
    [[1, 2], [2, 1]],  # indefinite
    [[-1]],  # negative variance
], ids=["singular", "indefinite", "negative-variance"])
def test_a_conditioning_set_that_is_not_positive_definite_raises(block):
    """The chain of pivots D_S is the guard: conditioning on a block that
    is not positive definite raises ``GaussianError`` with the text that
    ``partial_correlation_zero`` uses, here on the block plus two
    independent unit-variance positions x and y."""
    k = len(block)
    cov = [row + [0, 0] for row in block] + [[0] * k + [1, 0], [0] * k + [0, 1]]
    message = "covariance submatrix is not positive definite"
    with pytest.raises(GaussianError, match=f"^{message}$"):
        partial_correlation_zero(cov, k, k + 1, range(k))
    with pytest.raises(GaussianError, match=f"^{message}$"):
        _Minors(cov).independent(1 << k, 1 << k + 1, (1 << k) - 1)


# -- whole reports against a backend that answers one submatrix at a time -----


class SubmatrixOracle(IndependenceOracle):
    """A Gaussian oracle whose every backend call is one
    ``partial_correlation_zero`` per (x, y) pair, on the Fraction
    covariance: a fresh lattice over each pair's submatrix, so that no
    minor is shared between calls or kept under the system's budget."""

    backend = "gaussian"

    def __init__(self, system: GaussianSystem):
        super().__init__(system.nodes)
        self._index = system.dag._index
        self._cov = system.covariance()

    def _query(self, mx, my, ms):
        s = list(_bits(ms))
        return all(partial_correlation_zero(self._cov, x, y, s)
                   for x in _bits(mx) for y in _bits(my))


def report_systems():
    """Seeded 8-10-node systems on sparse nets, weights +-k/2 (k 1-3),
    noise variances 1-3."""
    for n in (8, 9, 10):
        rng = random.Random(f"minors:report:{n}")
        dag, _ = random_cpt_net(rng, n, n + 2, 3)
        coefficients = {(c, p): F(rng.choice([-3, -2, -1, 1, 2, 3]), 2) for p, c in dag.edges}
        noise = {v: F(rng.randint(1, 3)) for v in dag.nodes}
        yield GaussianSystem(dag.nodes, coefficients, noise)


@pytest.mark.parametrize("system", list(report_systems()), ids=["n8", "n9", "n10"])
def test_audit_and_sp_reports_match_the_slow_twin(system):
    """The audit report, and on 8 nodes (the most ``sparsest_permutations``
    lists) the sparsest-permutation minimizers, are those of
    ``SubmatrixOracle``, and so is each run's backend-call count."""
    fast, slow = GaussianOracle(system), SubmatrixOracle(system)
    reports = [audit_scenario(SimpleNamespace(name="sem", dag=system.dag, oracle=lambda o=o: o))
               for o in (fast, slow)]
    assert reports[0].to_dict() == reports[1].to_dict()
    assert fast.query_count == slow.query_count > 0
    if len(system.nodes) <= 8:
        fast, slow = GaussianOracle(system), SubmatrixOracle(system)
        got = minimizer_dicts(sparsest_permutations(fast))
        assert got == minimizer_dicts(sparsest_permutations(slow))
        assert fast.query_count == slow.query_count > 0
