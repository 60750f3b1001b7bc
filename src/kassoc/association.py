"""k-associations and unfaithful triples.

1-, 2- and strict 2-associations are universally quantified dependence
patterns; they are decided by exhaustive enumeration of conditioning sets
against an independence oracle, all by one mask-level primitive,
``_first_independent``, which the orientation rule and the audits share.
Subsets are enumerated smallest-first (ties broken lexicographically in
pool order; the pools here keep the oracle's variable order) so reported
separating witnesses are minimal-size and reproducible.
``weak_associations`` alone lists a node's weak associations, for
``assoc`` and the 2-AF and 2-OF audits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from .graph import query_masks
from .oracle import DiscreteOracle, IndependenceOracle, OracleError


@dataclass(frozen=True)
class AssociationBudget:
    """Cap on conditioning-set size; None means unbounded (|V| - 2)."""

    max_size: int | None = None

    def __post_init__(self):
        if self.max_size is not None and type(self.max_size) is not int:  # bools too
            raise ValueError(f"budget must be an int or None, not {self.max_size!r}")
        if self.max_size is not None and self.max_size < 0:
            raise ValueError("budget must be non-negative")

    def cap(self, pool_size: int) -> int:
        if self.max_size is None:
            return pool_size
        return min(self.max_size, pool_size)

    def capped(self, pool_size: int) -> bool:
        return self.max_size is not None and self.max_size < pool_size


UNBOUNDED = AssociationBudget()


@dataclass(frozen=True)
class AssociationReport:
    """Outcome of an association check.

    ``witness`` carries, for a negative answer, the first CI statement
    found in enumeration order that defeats the pattern.
    """

    target: str
    partners: tuple[str, ...]
    kind: str  # "one", "two" or "strict-two"
    holds: bool
    witness: dict | None = None
    up_to_budget: bool = False

    def __post_init__(self):
        if self.kind not in ("one", "two", "strict-two"):
            raise ValueError(f"unknown association kind {self.kind!r}")
        if len(self.partners) not in (1, 2):
            raise ValueError("partner set must have one or two nodes")
        if self.kind in ("two", "strict-two") and len(self.partners) != 2:
            raise ValueError(f"{self.kind} association needs two partners")

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "partners": list(self.partners),
            "kind": self.kind,
            "holds": self.holds,
            "witness": self.witness,
            "up_to_budget": self.up_to_budget,
        }


def _first_independent(
    o: IndependenceOracle,
    clauses: Sequence[tuple[str, str, Sequence[str]]],
    pool: Sequence[str],
    max_size: int,
) -> tuple[str, str, tuple[str, ...]] | None:
    """The first ``(a, b, core + S)`` with a independent of b given core
    plus S, or None.  S runs over the subsets of at most ``max_size`` nodes
    of ``pool`` (oracle variables in no clause), smallest first and
    lexicographic in ``pool`` order; under each S the clauses ``(a, b,
    core)`` are asked in order.  Names are checked once; the oracle's
    ``_ask`` answers on masks."""
    index = o._index
    asks = [(a, b, core, *query_masks(index, (a,), (b,), core, OracleError))
            for a, b, core in clauses]
    bits = [1 << index[v] for v in pool]
    ask = o._ask
    for size in range(max_size + 1):
        for subset in itertools.combinations(bits, size):
            ms = sum(subset)
            for a, b, core, mx, my, mc in asks:
                if ask(mx, my, mc | ms):
                    return a, b, (*core, *(v for v, bit in zip(pool, bits) if bit & ms))
    return None


def _ci_statement(x: str, y: str, given: Iterable[str], independent: bool) -> dict:
    return {"x": x, "y": y, "given": sorted(given), "independent": independent}


def is_1_associated(
    o: IndependenceOracle,
    x: str,
    y: str,
    budget: AssociationBudget = UNBOUNDED,
) -> AssociationReport:
    """X is 1-associated to Y iff X and Y are dependent given every subset."""
    if x == y:
        raise OracleError("x and y must be distinct")
    pool = [v for v in o.variables if v not in (x, y)]
    found = _first_independent(o, [(x, y, ())], pool, budget.cap(len(pool)))
    if found is not None:
        return AssociationReport(x, (y,), "one", False, _ci_statement(*found, True))
    return AssociationReport(x, (y,), "one", True, None, budget.capped(len(pool)))


def is_2_associated(
    o: IndependenceOracle,
    x: str,
    y1: str,
    y2: str,
    budget: AssociationBudget = UNBOUNDED,
) -> AssociationReport:
    """Three universally quantified dependence clauses over all subsets S.

    For every S avoiding {x, y1, y2}: x dep y1 | S+y2, x dep y2 | S+y1 and
    y1 dep y2 | S+x.
    """
    if len({x, y1, y2}) != 3:
        raise OracleError("x, y1, y2 must be distinct")
    pool = [v for v in o.variables if v not in (x, y1, y2)]
    clauses = [(x, y1, (y2,)), (x, y2, (y1,)), (y1, y2, (x,))]
    found = _first_independent(o, clauses, pool, budget.cap(len(pool)))
    if found is not None:
        return AssociationReport(x, (y1, y2), "two", False, _ci_statement(*found, True))
    return AssociationReport(x, (y1, y2), "two", True, None, budget.capped(len(pool)))


def is_strictly_2_associated(
    o: IndependenceOracle,
    x: str,
    y1: str,
    y2: str,
    budget: AssociationBudget = UNBOUNDED,
) -> AssociationReport:
    """Strict form: 2-associated and 1-associated to neither partner."""
    two = is_2_associated(o, x, y1, y2, budget)
    if not two.holds:
        return AssociationReport(x, (y1, y2), "strict-two", False, two.witness)
    one_1 = is_1_associated(o, x, y1, budget)
    one_2 = is_1_associated(o, x, y2, budget)
    ok = not one_1.holds and not one_2.holds
    witness = None
    if not ok:
        offender = y1 if one_1.holds else y2
        witness = {"one_associated_to": offender}
    capped = two.up_to_budget or one_1.up_to_budget or one_2.up_to_budget
    return AssociationReport(x, (y1, y2), "strict-two", ok, witness, capped)


def is_weakly_associated(
    o: IndependenceOracle,
    x: str,
    partners: Sequence[str],
    budget: AssociationBudget = UNBOUNDED,
) -> AssociationReport:
    """1-association for a single partner, strict 2-association for a pair."""
    partners = tuple(partners)
    if len(partners) == 1:
        return is_1_associated(o, x, partners[0], budget)
    if len(partners) == 2:
        return is_strictly_2_associated(o, x, partners[0], partners[1], budget)
    raise OracleError("partner set must have one or two nodes")


def weak_associations(
    o: IndependenceOracle,
    x: str,
    budget: AssociationBudget = UNBOUNDED,
) -> list[AssociationReport]:
    """The holding reports of x's weak associations: 1-associations to the
    other variables in oracle order, then strict 2-associations to pairs of
    them in ``itertools.combinations`` order.  A pair's strictness is read
    off the single-partner reports (a refuted one is never up to budget), so
    a pair with a 1-associated partner cannot be strict and is not scanned."""
    partners = [v for v in o.variables if v != x]
    ones = {y: is_1_associated(o, x, y, budget) for y in partners}
    found = [r for r in ones.values() if r.holds]
    for y1, y2 in itertools.combinations(partners, 2):
        if ones[y1].holds or ones[y2].holds:
            continue
        two = is_2_associated(o, x, y1, y2, budget)
        if two.holds:
            found.append(replace(two, kind="strict-two"))
    return found


@dataclass(frozen=True)
class UnfaithfulTriple:
    nodes: tuple[str, str, str]
    minimal: bool
    witnesses: tuple[dict, ...] = field(default=())

    def to_dict(self) -> dict:
        return {
            "nodes": list(self.nodes),
            "minimal": self.minimal,
            "witnesses": list(self.witnesses),
        }


def find_unfaithful_triples(o: IndependenceOracle) -> list[UnfaithfulTriple]:
    """All triples that are pairwise marginally independent but whose joint
    does not factorize, flagged minimal when every within-triple pair stays
    dependent under all outside conditioning sets.

    Requires the discrete backend.  Given y and z independent, x, y, z are
    mutually independent iff x is independent of (y, z): one set query,
    counted by the oracle like every other.
    """
    if not isinstance(o, DiscreteOracle):
        raise OracleError("unfaithful-triple search needs the discrete backend")
    out = []
    for x, y, z in itertools.combinations(o.variables, 3):
        if not (o.query(x, y) and o.query(x, z) and o.query(y, z)):
            continue
        if o.query_sets([x], [y, z]):
            continue
        witnesses = ()
        pool = [v for v in o.variables if v not in (x, y, z)]
        for clause in ((x, y, (z,)), (x, z, (y,)), (y, z, (x,))):
            found = _first_independent(o, [clause], pool, len(pool))
            if found is not None:
                witnesses = (_ci_statement(*found, True),)
                break
        out.append(UnfaithfulTriple((x, y, z), not witnesses, witnesses))
    return out
