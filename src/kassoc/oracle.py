"""A single independence-query capability with interchangeable backends.

Backends: graph truth (d-separation), exact discrete joint, exact
linear-Gaussian partial correlation, and a sample-based G-test.  All
backends are immutable after construction except the answer cache and the
query counter, which counts the queries a backend answered.
"""

from __future__ import annotations

from typing import Iterable

from .distribution import Dataset, DiscreteJoint
from .gaussian import GaussianSystem, partial_correlation_zero
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
        return self.dag.d_separated({x}, {y}, s)

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
        self._joint = joint._with_lattice()  # marginals cached for this oracle

    def _query(self, x, y, s):
        return self._joint.is_independent(x, y, s)

    def query_sets(self, xs, ys, s=()):
        ans = self._joint.is_independent_sets(*self._check(xs, ys, s))
        self._count += 1
        return ans


class GaussianOracle(IndependenceOracle):
    """Exact linear-Gaussian backend: zero partial correlation."""

    backend = "gaussian"

    def __init__(self, system: GaussianSystem):
        super().__init__(system.nodes)
        self.system = system
        self._cov = system.covariance()
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
        self._dataset = dataset._with_lattice()  # marginals cached for this oracle

    def _query(self, x, y, s):
        return g_test(self._dataset, x, y, sorted(s), self.config).independent
