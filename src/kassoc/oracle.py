"""A single independence-query capability with interchangeable backends.

Backends: graph truth (d-separation), exact discrete joint, exact
linear-Gaussian partial correlation, and a sample-based G-test.  An
oracle itself changes after construction only in its answer cache and its
query counter, which counts the queries a backend answered.  The marginal
lattice a discrete or G-test query reads belongs to the table (the
``DiscreteJoint`` or ``Dataset``), not to the oracle: every oracle over
one table, and the table's other users, share its cached marginals.
"""

from __future__ import annotations

from typing import Iterable

from .distribution import Dataset, DiscreteJoint
from .gaussian import GaussianSystem, integer_scaled, partial_correlation_zero
from .graph import Dag
from .gtest import GTestConfig, g_test


class OracleError(ValueError):
    """Invalid query for the given backend."""


class IndependenceOracle:
    """Base type: answers "is x independent of y given s?"."""

    backend = "abstract"

    def __init__(self, variables: Iterable[str]):
        self._variables = tuple(variables)
        self._count = 0
        self._cache: dict = {}

    @property
    def variables(self) -> tuple[str, ...]:
        return self._variables

    @property
    def query_count(self) -> int:
        return self._count

    def query(self, x: str, y: str, s: Iterable[str] = ()) -> bool:
        """True = independent. Deterministic given the backend state."""
        s = frozenset(s)
        key = (x, y, s) if x <= y else (y, x, s)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        self._check((x,), (y,), s)  # a cached key passed this check when stored
        ans = self._cache[key] = self._query(x, y, s)
        self._count += 1
        return ans

    def query_sets(self, xs: Iterable[str], ys: Iterable[str], s: Iterable[str] = ()) -> bool:
        """Set-valued query; not every backend supports it."""
        raise OracleError(f"{self.backend} backend does not support set queries")

    def _check(self, xs, ys, s):
        """The sides and conditioning set as tuples.  Raises OracleError
        unless both sides are non-empty, every name is known and no name
        occurs twice."""
        xs, ys, s = tuple(xs), tuple(ys), tuple(s)
        names = xs + ys + s
        if not xs or not ys:
            raise OracleError("query sets must be non-empty")
        for v in names:
            if v not in self._variables:
                raise OracleError(f"unknown variable {v!r}")
        if len(set(names)) != len(names):
            raise OracleError("query sets must be pairwise disjoint and repeat no variable")
        return xs, ys, s

    def _query(self, x, y, s) -> bool:
        raise NotImplementedError


class GraphOracle(IndependenceOracle):
    """Ground-truth backend: independence = d-separation."""

    backend = "graph"

    def __init__(self, dag: Dag):
        super().__init__(dag.nodes)
        self.dag = dag

    def _query(self, x, y, s):
        return self.dag.d_separated((x,), (y,), s)

    def query_sets(self, xs, ys, s=()):
        ans = self.dag.d_separated(*self._check(xs, ys, s))
        self._count += 1
        return ans


class DiscreteOracle(IndependenceOracle):
    """Exact-distribution backend over a rational joint table."""

    backend = "discrete"

    def __init__(self, joint: DiscreteJoint):
        super().__init__(joint.names)
        self.joint = joint

    def _query(self, x, y, s):
        return self.joint.is_independent(x, y, s)

    def query_sets(self, xs, ys, s=()):
        ans = self.joint.is_independent_sets(*self._check(xs, ys, s))
        self._count += 1
        return ans


class GaussianOracle(IndependenceOracle):
    """Exact linear-Gaussian backend: zero partial correlation."""

    backend = "gaussian"

    def __init__(self, system: GaussianSystem):
        super().__init__(system.nodes)
        self.system = system
        self._cov = integer_scaled(system.covariance())
        self._idx = {n: i for i, n in enumerate(system.nodes)}

    def _query(self, x, y, s):
        return partial_correlation_zero(
            self._cov, self._idx[x], self._idx[y], [self._idx[v] for v in s]
        )

    def query_sets(self, xs, ys, s=()):
        # for a multivariate Gaussian, block independence reduces to all
        # pairwise partial correlations vanishing
        xs, ys, s = self._check(xs, ys, s)
        ans = all(self._query(x, y, s) for x in xs for y in ys)
        self._count += 1
        return ans


class GTestOracle(IndependenceOracle):
    """Finite-sample backend; deterministic given the dataset."""

    backend = "gtest"

    def __init__(self, dataset: Dataset, config: GTestConfig | None = None):
        super().__init__(dataset.names)
        self.dataset = dataset
        self.config = config or GTestConfig()

    def _query(self, x, y, s):
        return g_test(self.dataset, x, y, s, self.config).independent
