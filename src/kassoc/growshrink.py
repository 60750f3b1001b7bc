"""Markov blanket recovery by grow-and-shrink.

``modified`` mode adds the paired-conditioning clause to the grow phase
(add X when the target depends on X given S plus one helper node Z), which
picks up strict 2-associations that the classic grow phase misses.  The
shrink phase removes singletons only and is shared by both modes.  Both
phases scan the non-target variables in the oracle's order; the blanket
does not depend on that order, only the query log does.  Every query is
logged, in order, as a :class:`GsStep` in a plain list.

The target and every candidate are checked once and carry their position
bit in the oracle's variable order, and each phase keeps its conditioning
set twice: as the frozenset of names that the trace records, shared by
the steps that ask it, and as the position mask beside it.  Each step asks
the oracle's ``_ask(target, candidate, S)`` on those masks directly, past
``query``'s name check: the same cache keys, backend calls and
``query_count`` as ``query`` on the names, which the name-level twin in
``tests/references.py`` asks.  A step is built at C level by
``tuple.__new__``, past the ``NamedTuple``'s Python-level ``__new__``, and
no step decodes names from a mask.  ``markov_blanket`` calls the
module-level ``grow`` and ``shrink``, which ``perfbench/tracer.py`` wraps
by name.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .graph import query_masks
from .oracle import IndependenceOracle, OracleError


class GsStep(NamedTuple):
    phase: str  # "grow" | "shrink"
    candidate: str
    helper: str | None  # pair-clause partner, if any
    conditioning: frozenset[str]
    independent: bool
    action: str  # "add" | "remove" | "keep" | "skip"

    def to_dict(self) -> dict:
        return {
            "phase": self.phase,
            "candidate": self.candidate,
            "helper": self.helper,
            "conditioning": sorted(self.conditioning),
            "independent": self.independent,
            "action": self.action,
        }


def grow(
    o: IndependenceOracle,
    target: str,
    *,
    mode: str = "modified",
    trace: list[GsStep] | None = None,
) -> set[str]:
    """Fixpoint of the grow clauses; returns a superset of the blanket.

    Scan policy per pass: single-node candidates in oracle order first, then
    (candidate, helper) pairs; the first hit is added and the pass
    restarts.  The helper may already be in S (then the pair clause
    coincides with the single clause and never fires anew).
    """
    t, order = _positions(o, target)
    if mode not in ("modified", "classic"):
        raise OracleError(f"unknown mode {mode!r}")
    trace = trace if trace is not None else []
    s: set[str] = set()
    ms = 0
    while True:
        added = _grow_pass(o._ask, t, frozenset(s), ms, order, mode, trace)
        if added is None:
            return s
        x, bit = added
        s.add(x)
        ms |= bit


def _grow_pass(ask, t, s, ms, order, mode, trace):
    new, append = tuple.__new__, trace.append
    for x, bit in order:
        if bit & ms:
            continue
        indep = ask(t, bit, ms)
        append(new(GsStep, ("grow", x, None, s, indep, "skip" if indep else "add")))
        if not indep:
            return x, bit
    if mode == "classic":
        return None
    # S plus each helper, as the trace's names and as the oracle's mask
    helpers = [(z, s | {z}, ms | zbit) for z, zbit in order]
    for x, bit in order:
        if bit & ms:
            continue
        for z, cond, mc in helpers:
            if z == x:
                continue
            indep = ask(t, bit, mc)
            append(new(GsStep, ("grow", x, z, cond, indep, "skip" if indep else "add")))
            if not indep:
                return x, bit
    return None


def shrink(
    o: IndependenceOracle,
    target: str,
    s: Iterable[str],
    *,
    trace: list[GsStep] | None = None,
) -> set[str]:
    """Fixpoint removal of single nodes separable from the target.

    Every candidate is checked as a query's names are (``graph.query_masks``)
    before the first query: the scan visits only ``o.variables``, so an
    unknown name would otherwise stay in the blanket unasked.
    """
    t, order = _positions(o, target)
    s = dict.fromkeys(s)  # in the caller's order, which names the first unknown
    if target in s:
        raise OracleError("target cannot be in its own candidate blanket")
    ms = query_masks(o._index, s, (target,), (), OracleError)[0] if s else 0
    s = frozenset(s)
    trace = trace if trace is not None else []
    ask, new, append = o._ask, tuple.__new__, trace.append
    changed = True
    while changed:
        changed = False
        for x, bit in order:
            if not bit & ms:
                continue
            cond = s - {x}
            indep = ask(t, bit, ms ^ bit)
            append(new(GsStep, ("shrink", x, None, cond, indep, "remove" if indep else "keep")))
            if indep:
                s, ms = cond, ms ^ bit
                changed = True
                break
    return set(s)


def markov_blanket(
    o: IndependenceOracle,
    target: str,
    *,
    mode: str = "modified",
) -> tuple[set[str], list[GsStep]]:
    """Grow then shrink; ``modified`` or ``classic`` grow phase."""
    trace: list[GsStep] = []
    grown = grow(o, target, mode=mode, trace=trace)
    final = shrink(o, target, grown, trace=trace)
    return final, trace


def _positions(o, target):
    """The target's position bit, and every other variable with its bit in
    the oracle's order."""
    if target not in o.variables:
        raise OracleError(f"unknown target {target!r}")
    index = o._index
    return 1 << index[target], [(v, 1 << index[v]) for v in o.variables if v != target]
