"""Exhaustive assumption audits for scenarios.

Each check re-derives an assumption annotation (Markov condition,
adjacency faithfulness, 2-adjacency faithfulness, orientation
faithfulness, 2-orientation faithfulness, and the spouse-detection
condition used by the modified grow phase) directly from the scenario's
exact oracle.  Annotations are outputs of verification, never trusted
inputs.  CMC (the local Markov statements that scenario construction
checks too) and 2-AF (partner sets inside the Markov blanket) are exact
at every size.  Above ``EXHAUSTIVE_LIMIT`` variables the AF, OF, 2-OF and
spouse-condition scans truncate their conditioning sets and are flagged
as partial.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .association import first_separating_set, is_weakly_associated
from .graph import Dag
from .oracle import IndependenceOracle

EXHAUSTIVE_LIMIT = 6
PARTIAL_MAX_SUBSET = 3


@dataclass(frozen=True)
class AuditResult:
    assumption: str
    holds: bool
    witness: dict | None = None
    exhaustive: bool = True

    def to_dict(self) -> dict:
        return {
            "assumption": self.assumption,
            "holds": self.holds,
            "witness": self.witness,
            "exhaustive": self.exhaustive,
        }


@dataclass(frozen=True)
class AuditReport:
    scenario: str
    results: tuple[AuditResult, ...] = field(default_factory=tuple)

    def __getitem__(self, assumption: str) -> AuditResult:
        for r in self.results:
            if r.assumption == assumption:
                return r
        raise KeyError(assumption)

    @property
    def exhaustive(self) -> bool:
        return all(r.exhaustive for r in self.results)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "exhaustive": self.exhaustive,
            "results": [r.to_dict() for r in self.results],
        }


def _max_subset(n: int) -> int | None:
    return None if n <= EXHAUSTIVE_LIMIT else PARTIAL_MAX_SUBSET


def _separating_set(oracle, x, z, core, pool, limit):
    """First ``core | S`` separating x and z; S runs over the subsets of
    ``pool`` (at most ``limit`` nodes), smallest first, lexicographic by
    label."""
    pool = sorted(pool)
    top = len(pool) if limit is None else limit
    return first_separating_set(oracle, x, z, frozenset(core), pool, pool, top)


def check_cmc(dag: Dag, oracle: IndependenceOracle) -> AuditResult:
    """Every d-separation in the graph holds as an independence.

    For a DAG the local Markov statements imply every d-separation, so at
    most one set query per node decides it; the witness is the first
    failing statement, itself a d-separation the oracle denies.
    """
    for v, rest, parents in dag.local_markov_statements():
        if not oracle.query_sets([v], rest, parents):
            return AuditResult("CMC", False, {"xs": [v], "ys": rest, "given": parents})
    return AuditResult("CMC", True)


def check_af(dag: Dag, oracle: IndependenceOracle) -> AuditResult:
    """Adjacency faithfulness: adjacent nodes dependent under every S."""
    limit = _max_subset(len(dag.nodes))
    for x, y in dag.edges:
        s = _separating_set(oracle, x, y, (), set(dag.nodes) - {x, y}, limit)
        if s is not None:
            witness = {"edge": [x, y], "separating_set": sorted(s)}
            return AuditResult("AF", False, witness, limit is None)
    return AuditResult("AF", True, None, limit is None)


def check_2af(dag: Dag, oracle: IndependenceOracle) -> AuditResult:
    """Every adjacency is witnessed by a weak (1- or strict-2) association
    with a partner set inside the Markov blanket."""
    for x, y in itertools.chain(dag.edges, ((b, a) for a, b in dag.edges)):
        mb = dag.markov_blanket(x)
        candidates = [(y,)] + [tuple(sorted((y, z))) for z in sorted(mb - {y})]
        if not any(is_weakly_associated(oracle, x, c).holds for c in candidates):
            return AuditResult("2-AF", False, {"node": x, "adjacent": y})
    return AuditResult("2-AF", True)


def check_of(dag: Dag, oracle: IndependenceOracle) -> AuditResult:
    """Orientation faithfulness over unshielded triples."""
    limit = _max_subset(len(dag.nodes))
    for y in dag.nodes:
        neigh = sorted(dag.parents(y) | dag.children(y))
        for x, z in itertools.combinations(neigh, 2):
            if dag.adjacent(x, z):
                continue
            # the path x - y - z is active given S: y in S iff y is a collider
            collider = y in dag.children(x) and y in dag.children(z)
            core = {y} if collider else set()
            top = None if limit is None else limit - len(core)
            s = _separating_set(oracle, x, z, core, set(dag.nodes) - {x, y, z}, top)
            if s is not None:
                witness = {"triple": [x, y, z], "collider": collider, "given": sorted(s)}
                return AuditResult("OF", False, witness, limit is None)
    return AuditResult("OF", True, None, limit is None)


def _weak_partner_sets(dag: Dag, oracle: IndependenceOracle, y: str):
    """Partner sets (size 1 or 2) that y is weakly associated to."""
    others = [v for v in dag.nodes if v != y]
    found = []
    for size in (1, 2):
        for c in itertools.combinations(others, size):
            if is_weakly_associated(oracle, y, c).holds:
                found.append(c)
    return found


def _eligible_configs(dag: Dag, oracle: IndependenceOracle):
    """Triples (y, xs, zs) with y weakly associated to both disjoint sides."""
    for y in dag.nodes:
        partners = _weak_partner_sets(dag, oracle, y)
        for xs, zs in itertools.combinations(partners, 2):
            if set(xs) & set(zs):
                continue
            yield y, xs, zs


def _is_collider_config(dag: Dag, y, xs, zs) -> bool:
    return all(y in dag.children(v) for v in xs + zs)


def _condition_witness(dag, oracle, y, xs, zs, limit, with_center):
    """First cross pair separated given a superset of the remainders.

    Condition i (``with_center``): each cross pair stays dependent given
    any superset of {y} + remainders.  Condition ii: the same for the
    supersets of the remainders that avoid y.
    """
    for x, z in itertools.product(xs, zs):
        core = (set(xs) - {x}) | (set(zs) - {z})
        if with_center:
            core.add(y)
        rest = set(dag.nodes) - {x, z, y} - core
        s = _separating_set(oracle, x, z, core, rest, limit)
        if s is not None:
            return {"x": x, "z": z, "given": sorted(s)}
    return None


def check_2of(dag: Dag, oracle: IndependenceOracle) -> AuditResult:
    """2-orientation faithfulness over all eligible configurations."""
    limit = _max_subset(len(dag.nodes))
    for y, xs, zs in _eligible_configs(dag, oracle):
        if any(dag.adjacent(x, z) for x, z in itertools.product(xs, zs)):
            continue
        collider = _is_collider_config(dag, y, xs, zs)
        bad = _condition_witness(dag, oracle, y, xs, zs, limit, collider)
        condition = "i" if collider else "ii"
        if bad is not None:
            witness = {
                "center": y,
                "left": list(xs),
                "right": list(zs),
                "condition": condition,
                **bad,
            }
            return AuditResult("2-OF", False, witness, limit is None)
    return AuditResult("2-OF", True, None, limit is None)


def check_spouse_condition(dag: Dag, oracle: IndependenceOracle) -> AuditResult:
    """Condition i extended to shielded configurations: collider sides stay
    cross-dependent given any superset of the center and remainders."""
    limit = _max_subset(len(dag.nodes))
    for y, xs, zs in _eligible_configs(dag, oracle):
        if not _is_collider_config(dag, y, xs, zs):
            continue
        bad = _condition_witness(dag, oracle, y, xs, zs, limit, True)
        if bad is not None:
            witness = {"center": y, "left": list(xs), "right": list(zs), **bad}
            return AuditResult("spouse-condition", False, witness, limit is None)
    return AuditResult("spouse-condition", True, None, limit is None)


CHECKS = (
    check_cmc,
    check_af,
    check_2af,
    check_of,
    check_2of,
    check_spouse_condition,
)


def audit_scenario(scenario) -> AuditReport:
    """Run every assumption check against the scenario's exact oracle."""
    oracle = scenario.oracle()
    results = tuple(check(scenario.dag, oracle) for check in CHECKS)
    return AuditReport(scenario.name, results)
