"""Markov blanket recovery by grow-and-shrink.

``modified`` mode adds the paired-conditioning clause to the grow phase
(add X when the target depends on X given S plus one helper node Z), which
picks up strict 2-associations that the classic grow phase misses.  The
shrink phase removes singletons only and is shared by both modes.  Both
phases scan the non-target variables in the oracle's order; the blanket
does not depend on that order, only the query log does.  Every query is
logged, in order, as a :class:`GsStep` in a plain list.
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
    _check_target(o, target)
    if mode not in ("modified", "classic"):
        raise OracleError(f"unknown mode {mode!r}")
    order = [v for v in o.variables if v != target]
    trace = trace if trace is not None else []
    s: set[str] = set()
    while True:
        added = _grow_pass(o, target, s, order, mode, trace)
        if added is None:
            return s
        s.add(added)


def _grow_pass(o, target, s, order, mode, trace):
    for x in order:
        if x in s:
            continue
        indep = o.query(target, x, s)
        trace.append(GsStep("grow", x, None, frozenset(s), indep, "skip" if indep else "add"))
        if not indep:
            return x
    if mode == "classic":
        return None
    for x in order:
        if x in s:
            continue
        for z in order:
            if z == x:
                continue
            cond = s | {z}
            indep = o.query(target, x, cond)
            trace.append(
                GsStep("grow", x, z, frozenset(cond), indep, "skip" if indep else "add")
            )
            if not indep:
                return x
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
    _check_target(o, target)
    s = dict.fromkeys(s)  # in the caller's order, which names the first unknown
    if target in s:
        raise OracleError("target cannot be in its own candidate blanket")
    if s:
        query_masks(o._index, s, (target,), (), OracleError)
    s = set(s)
    order = [v for v in o.variables if v != target]
    trace = trace if trace is not None else []
    changed = True
    while changed:
        changed = False
        for x in order:
            if x not in s:
                continue
            cond = s - {x}
            indep = o.query(target, x, cond)
            trace.append(
                GsStep("shrink", x, None, frozenset(cond), indep, "remove" if indep else "keep")
            )
            if indep:
                s.remove(x)
                changed = True
                break
    return s


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


def _check_target(o, target):
    if target not in o.variables:
        raise OracleError(f"unknown target {target!r}")
