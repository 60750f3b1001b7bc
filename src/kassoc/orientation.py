"""Sound collider orientation from universally quantified dependencies.

The rule orients side sets into a centre node when every cross pair stays
dependent under all supersets of the required core, and witnesses a
non-collider otherwise.  When neither condition fires on an unshielded
configuration, a 2-orientation-faithfulness failure has been detected.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .association import (
    AssociationBudget,
    UNBOUNDED,
    _ci_statement,
    _first_independent,
    is_1_associated,
    is_strictly_2_associated,
    is_weakly_associated,
)
from .oracle import IndependenceOracle


class PreconditionError(ValueError):
    """Orientation preconditions are violated; no verdict is produced."""


@dataclass(frozen=True)
class OrientationQuery:
    center: str
    left: tuple[str, ...]
    right: tuple[str, ...]
    oracle: IndependenceOracle
    budget: AssociationBudget = UNBOUNDED

    def __post_init__(self):
        left, right = tuple(self.left), tuple(self.right)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        if not 1 <= len(left) <= 2 or not 1 <= len(right) <= 2:
            raise PreconditionError("side sets must have one or two nodes")
        if len({*left, *right}) != len(left) + len(right):
            raise PreconditionError("side sets must be disjoint and repeat no node")
        if self.center in left or self.center in right:
            raise PreconditionError("centre node cannot be in a side set")
        known = set(self.oracle.variables)
        for v in {self.center, *left, *right}:
            if v not in known:
                raise PreconditionError(f"unknown variable {v!r}")


@dataclass(frozen=True)
class OrientationVerdict:
    outcome: str  # "collider" | "non-collider" | "inconclusive"
    edges: tuple[tuple[str, str], ...] = ()
    rule_i_holds: bool = False
    rule_ii_holds: bool = False
    of_failure_detected: bool = False
    shielding_caveat: bool = False
    witnesses: tuple[dict, ...] = field(default=())

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "edges": [f"{a}->{b}" for a, b in self.edges],
            "rule_i_holds": self.rule_i_holds,
            "rule_ii_holds": self.rule_ii_holds,
            "of_failure_detected": self.of_failure_detected,
            "shielding_caveat": self.shielding_caveat,
            "witnesses": list(self.witnesses),
        }


def check_nonadjacency(o: IndependenceOracle, x: str, z: str) -> bool:
    """True iff no association evidence of adjacency between x and z exists.

    Evidence of adjacency: a 1-association between x and z, or a third node
    u making one of them strictly 2-associated to a pair containing the
    other.  The check is conservative: strict-2 evidence is ambiguous (the
    shared path may be shielded or unshielded) but still counts as
    possible adjacency.
    """
    if x == z:
        raise PreconditionError("x and z must be distinct")
    return not (
        is_1_associated(o, x, z).holds
        or _strict2_third_node_evidence(o, x, z, UNBOUNDED)
    )


def _strict2_third_node_evidence(o, x, z, budget) -> bool:
    for u in o.variables:
        if u in (x, z):
            continue
        if (
            is_strictly_2_associated(o, x, z, u, budget).holds
            or is_strictly_2_associated(o, z, x, u, budget).holds
        ):
            return True
    return False


def _rule_defeat(o, center, left, right, with_center, order, budget):
    """The first ``(x, z, given)`` defeating rule i (``with_center``) or
    rule ii, or None when the rule holds.

    Rule i: every cross pair (x, z) stays dependent given the centre, the
    rest of both side sets and any extra set E.  Rule ii: the same without
    the centre, which E avoids too.  For each cross pair in turn, one
    ``_first_independent`` scan runs E over the nodes of ``order`` outside
    the centre and both side sets (one pool for every pair), smallest
    first and lexicographic in ``order``, up to ``budget``.
    """
    pool = [v for v in order if v != center and v not in left and v not in right]
    for x, z in itertools.product(left, right):
        core = [*(v for v in left if v != x), *(v for v in right if v != z)]
        if with_center:
            core.append(center)
        found = _first_independent(o, [(x, z, core)], pool, budget.cap(len(pool)))
        if found is not None:
            return found
    return None


def orient(q: OrientationQuery) -> OrientationVerdict:
    """Apply the orientation rule.

    Verifies the premises first: the centre must be (strictly, for pairs)
    associated to each side set and no cross pair may show 1-association
    evidence of adjacency.  Any premise failure raises PreconditionError.
    """
    o, budget = q.oracle, q.budget
    for side in (q.left, q.right):
        rep = is_weakly_associated(o, q.center, side, budget)
        if not rep.holds:
            raise PreconditionError(
                f"centre {q.center} is not associated to side set {side}: {rep.witness}"
            )
    caveat = False
    for x, z in itertools.product(q.left, q.right):
        if is_1_associated(o, x, z, budget).holds:
            raise PreconditionError(f"side nodes {x} and {z} are 1-associated (adjacent)")
        if _strict2_third_node_evidence(o, x, z, budget):
            caveat = True

    defeat_i = _rule_defeat(o, q.center, q.left, q.right, True, o.variables, budget)
    defeat_ii = _rule_defeat(o, q.center, q.left, q.right, False, o.variables, budget)
    rule_i, rule_ii = defeat_i is None, defeat_ii is None
    defeats = () if rule_i else (d for d in (defeat_i, defeat_ii) if d)
    witnesses = tuple(_ci_statement(x, z, given, True) for x, z, given in defeats)
    return OrientationVerdict(
        "collider" if rule_i else "non-collider" if rule_ii else "inconclusive",
        tuple((v, q.center) for v in q.left + q.right) if rule_i else (),
        rule_i, rule_ii, not (rule_i or rule_ii), caveat, witnesses,
    )


def detect_of_failure(q: OrientationQuery) -> bool:
    """True iff neither orientation rule fires on the query."""
    return orient(q).of_failure_detected
