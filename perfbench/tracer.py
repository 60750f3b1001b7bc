"""Span tracer that wraps kassoc's public functions from outside the package.

``Tracer.install()`` replaces each function or method named in ``WRAPPED``
with a wrapper that records a span (name, start, end, parent) and
``uninstall()`` puts the originals back.  Nothing inside ``src/`` is
edited: module-level functions are rebound in every ``kassoc`` module that
imported them, methods are rebound on their class.

Self time of a span is its duration minus the time covered by its child
spans.  Aggregates (calls, self time, inclusive time per group) are kept
exactly for every call; the raw spans themselves are kept in memory up to
``KEEP_SPANS`` and written out by ``write_spans`` when the run ends, because one
round of ``sp_graph`` alone makes about 700,000 oracle calls.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter

# layer -> [(attribute path in kassoc.<layer>, inclusive-time group or None)]
WRAPPED = {
    "cli": [("run", None)],
    "scenarios": [
        ("Scenario.__init__", "scenarios.build"),
        ("builtin", "scenarios.load"),
        ("load", "scenarios.load"),
        ("load_path", "scenarios.load"),
        ("save", None),
    ],
    "audit": [("audit_scenario", None)],
    "orientation": [("orient", None), ("check_nonadjacency", None),
                    ("detect_of_failure", None)],
    "association": [
        ("is_1_associated", None),
        ("is_2_associated", None),
        ("is_strictly_2_associated", None),
        ("is_weakly_associated", None),
        ("find_unfaithful_triples", None),
    ],
    "growshrink": [("markov_blanket", None), ("grow", None), ("shrink", None)],
    "sparsest": [("sparsest_permutations", None), ("dag_from_permutation", None)],
    "oracle": [
        ("IndependenceOracle.query", None),
        ("GraphOracle.query_sets", None),
        ("DiscreteOracle.query_sets", None),
        ("GaussianOracle.query_sets", None),
    ],
    "graph": [("Dag.d_separated", "graph.dsep")],
    "distribution": [
        ("DiscreteJoint.from_cpts", "distribution.from_cpts"),
        ("DiscreteJoint.is_independent", None),
        ("DiscreteJoint.is_independent_sets", "distribution.ci"),
        ("DiscreteJoint.marginalize", None),
        ("DiscreteJoint.sample", "distribution.sample"),
    ],
    "gaussian": [
        ("partial_correlation_zero", "gaussian.pcorr"),
        ("GaussianSystem.covariance", "gaussian.covariance"),
    ],
    "gtest": [("g_test", "gtest")],
}

LAYERS = tuple(WRAPPED)
KEEP_SPANS = 200_000


class Tracer:
    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    # -- recording -----------------------------------------------------------

    def reset(self):
        """Forget every span and counter (the wrappers stay installed)."""
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.group_s: dict[str, float] = {}
        self._group_depth: dict[str, int] = {}
        self._stack: list[list] = []  # [span id, start, child time, group]
        self.n_spans = 0
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.oracles: list = []
        self.query_hits = 0
        self.cond_size_sum = 0
        self.rows_scanned = 0

    def _enter(self, name: str, group: str | None) -> None:
        start = perf_counter()
        sid = self.n_spans
        self.n_spans += 1
        if group is not None:
            self._group_depth[group] = self._group_depth.get(group, 0) + 1
        if sid < KEEP_SPANS:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            self.span_name.append(nid)
            self.span_parent.append(self._stack[-1][0] if self._stack else -1)
            self.span_start.append(start)
            self.span_end.append(start)
        self._stack.append([sid, start, 0.0, group])

    def _exit(self, name: str) -> None:
        end = perf_counter()
        sid, start, child, group = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        if group is not None:
            depth = self._group_depth[group] - 1
            self._group_depth[group] = depth
            if depth == 0:
                self.group_s[group] = self.group_s.get(group, 0.0) + dur
        if sid < KEEP_SPANS:
            self.span_end[sid] = end

    # -- installation --------------------------------------------------------

    def _wrap(self, name, group, fn):
        enter, exit_ = self._enter, self._exit

        def wrapper(*args, **kwargs):
            enter(name, group)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(name)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_query(self, name, fn):
        # counts cache hits (the oracle's query_count does not move) and
        # conditioning-set sizes; never consumes ``s`` itself
        enter, exit_ = self._enter, self._exit
        tracer = self

        def query(oracle, x, y, s=()):
            before = oracle.query_count
            if hasattr(s, "__len__"):
                tracer.cond_size_sum += len(s)
            enter(name, None)
            try:
                return fn(oracle, x, y, s)
            finally:
                exit_(name)
                if oracle.query_count == before:
                    tracer.query_hits += 1

        query.__wrapped__ = fn
        return query

    def _wrap_gtest(self, name, group, fn):
        inner = self._wrap(name, group, fn)
        tracer = self

        def g_test(dataset, *args, **kwargs):
            tracer.rows_scanned += len(dataset)
            return inner(dataset, *args, **kwargs)

        g_test.__wrapped__ = fn
        return g_test

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, kassoc) -> None:
        """Wrap every entry of ``WRAPPED`` in the imported ``kassoc`` package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer in WRAPPED:
            importlib.import_module(f"kassoc.{layer}")
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "kassoc" or k.startswith("kassoc."))]
        for layer, entries in WRAPPED.items():
            module = getattr(kassoc, layer)
            for path, group in entries:
                name = f"{layer}.{path}"
                if "." in path:
                    cls_name, meth = path.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[meth]
                    is_static = isinstance(raw, staticmethod)
                    fn = raw.__func__ if is_static else raw
                    if path == "IndependenceOracle.query":
                        new = self._wrap_query(name, fn)
                    else:
                        new = self._wrap(name, group, fn)
                    self._set(cls, meth, staticmethod(new) if is_static else new)
                    continue
                fn = getattr(module, path)
                if layer == "gtest":
                    new = self._wrap_gtest(name, group, fn)
                else:
                    new = self._wrap(name, group, fn)
                for m in modules:  # rebind every import of the function
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._set(m, attr, new)
        base = kassoc.oracle.IndependenceOracle
        init = base.__dict__["__init__"]
        tracer = self

        def register(oracle, *args, **kwargs):
            init(oracle, *args, **kwargs)
            tracer.oracles.append(oracle)

        self._set(base, "__init__", register)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def backend_calls(self, start: int = 0) -> int:
        """Sum of ``query_count`` over oracles created since index ``start``."""
        return sum(o.query_count for o in self.oracles[start:])

    def layer_calls(self, layer: str) -> int:
        return sum(c for n, c in self.calls.items() if n.startswith(layer + "."))

    def layer_self_s(self, layer: str) -> float:
        return sum(s for n, s in self.self_s.items() if n.startswith(layer + "."))

    def write_spans(self, path) -> int:
        """Write the kept spans as CSV (id, parent, name, start_s, end_s)."""
        kept = len(self.span_end)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i in range(kept):
                fh.write(f"{i},{self.span_parent[i]},{self.names[self.span_name[i]]},"
                         f"{self.span_start[i]!r},{self.span_end[i]!r}\n")
        return kept
