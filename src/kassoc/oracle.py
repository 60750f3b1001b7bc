"""A single independence-query capability with interchangeable backends.

Backends: graph truth (d-separation), exact discrete joint, exact
linear-Gaussian partial correlation, and a sample-based G-test.  An
oracle itself changes after construction only in its answer cache and its
query counter, which counts the queries a backend answered.  The marginal
lattice a discrete or G-test query reads belongs to the table (the
``DiscreteJoint`` or ``Dataset``), and the minors lattice a Gaussian query
reads to the ``GaussianSystem``, not to the oracle: every oracle over one
table or system, and the table's other users, share its cached marginals
or minors.  Both lattices are ``distribution._MaskLattice``s: one
budgeted store keyed by marginal or conditioning mask.

Names are checked once and turned into bitmasks of positions in the
oracle's variable order through the table's own name index
(``Dag._index``, ``DiscreteJoint._pos`` or ``Dataset._pos``).  ``query``
is that check plus ``_ask(mx, my, ms)``, which holds the cache (keyed on
the masks) and the counter.  ``query`` looks its one x, its one y and
each name of s up directly in the index; a query that fails a check goes
to ``graph.query_masks``, which ``query_sets`` and the one subset scan
(``association._first_independent``, which then asks ``_ask`` directly)
always use: the one rule, and the one wording, that every name-level CI
entry point shares (here with ``OracleError``).  The scans and the
sparsest-permutation DP, whose sets are already position masks, ask
``_ask``; ``query`` serves grow-shrink, outside callers and the tests'
name-level references.  Every backend answers on masks
(``_query(mx, my, ms)``) with one call of its mask-level core
(``graph.dconnected``, ``DiscreteJoint._independent``,
``gaussian._Minors.independent``, ``gtest._g_test``).  The graph kernel
reads the DAG's descendant masks, which the ``Dag`` builds on its first
d-separation and every oracle over it shares, as the Gaussian kernel
reads the system's minors.
"""

from __future__ import annotations

from typing import Iterable

from .distribution import Dataset, DiscreteJoint
from .gaussian import GaussianSystem
from .graph import Dag, dconnected, query_masks
from .gtest import GTestConfig, _g_test


class OracleError(ValueError):
    """Invalid query for the given backend."""


class IndependenceOracle:
    """Base type: answers "is x independent of y given s?".

    A backend sets ``_index``, the position of each name of ``variables``,
    and implements ``_query(mx, my, ms)`` on validated position bitmasks.
    """

    backend = "abstract"
    _index: dict[str, int]

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
        s = tuple(s)  # read once: a failed check hands the same names to query_masks
        index = self._index
        try:
            mx, my = 1 << index[x], 1 << index[y]
            ms = 0
            for v in s:
                ms |= 1 << index[v]
            valid = (mx | my | ms).bit_count() == len(s) + 2
        except KeyError:
            valid = False
        if not valid:
            mx, my, ms = query_masks(self._index, (x,), (y,), s, OracleError)
        return self._ask(mx, my, ms)

    def _ask(self, mx: int, my: int, ms: int) -> bool:
        """``query`` on checked masks: the cached answer, else the backend's."""
        key = (mx | my, ms)
        ans = self._cache.get(key)
        if ans is None:
            ans = self._cache[key] = self._query(mx, my, ms)
            self._count += 1
        return ans

    def query_sets(self, xs: Iterable[str], ys: Iterable[str], s: Iterable[str] = ()) -> bool:
        """Set-valued query, not cached; not every backend supports it."""
        ans = self._query(*query_masks(self._index, xs, ys, s, OracleError))
        self._count += 1
        return ans

    def _query(self, mx: int, my: int, ms: int) -> bool:
        raise NotImplementedError


class GraphOracle(IndependenceOracle):
    """Ground-truth backend: independence = d-separation."""

    backend = "graph"
    _desc = None  # the dag's descendant masks, read on the first query

    def __init__(self, dag: Dag):
        super().__init__(dag.nodes)
        self.dag = dag
        self._index = dag._index
        self._parents, self._children = dag._parent_masks, dag._child_masks

    def _query(self, mx, my, ms):
        desc = self._desc
        if desc is None:
            desc = self._desc = self.dag._descendants()
        return not dconnected(self._parents, self._children, desc, mx, my, ms)

    # each backend's own name, so that a trace can tell its set queries apart
    query_sets = IndependenceOracle.query_sets


class DiscreteOracle(IndependenceOracle):
    """Exact-distribution backend over a rational joint table."""

    backend = "discrete"

    def __init__(self, joint: DiscreteJoint):
        super().__init__(joint.names)
        self.joint = joint
        self._index = joint._pos

    def _query(self, mx, my, ms):
        return self.joint._independent(mx, my, ms)

    query_sets = IndependenceOracle.query_sets


class GaussianOracle(IndependenceOracle):
    """Exact linear-Gaussian backend: zero partial correlation, read from
    the system's minors lattice, which every oracle over it shares."""

    backend = "gaussian"

    def __init__(self, system: GaussianSystem):
        super().__init__(system.nodes)
        self.system = system
        self._index = system.dag._index
        self._minors = system._lattice()

    def _query(self, mx, my, ms):
        return self._minors.independent(mx, my, ms)

    query_sets = IndependenceOracle.query_sets


class GTestOracle(IndependenceOracle):
    """Finite-sample backend; deterministic given the dataset."""

    backend = "gtest"

    def __init__(self, dataset: Dataset, config: GTestConfig | None = None):
        super().__init__(dataset.names)
        self.dataset = dataset
        self.config = config or GTestConfig()
        self._index = dataset._pos

    def _query(self, mx, my, ms):
        return _g_test(self.dataset, mx, my, ms, self.config).independent

    def query_sets(self, xs, ys, s=()):
        raise OracleError(f"{self.backend} backend does not support set queries")
