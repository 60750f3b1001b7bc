"""Exhaustive assumption audits for scenarios.

Each check re-derives an assumption annotation (Markov condition,
adjacency faithfulness, 2-adjacency faithfulness, orientation
faithfulness, 2-orientation faithfulness, and the spouse-detection
condition used by the modified grow phase) directly from the scenario's
exact oracle.  Annotations are outputs of verification, never trusted
inputs.  Every check is exact at every size: CMC queries the local Markov
statements, and AF, OF, 2-OF and the spouse condition scan every
conditioning set, smallest first and lexicographic by label, with the
one mask-level subset scan under every association check,
``association._first_independent``, which checks the names once per
scan and asks the oracle on masks.  2-AF, 2-OF and the spouse condition
read one table of each node's weak associations
(``association.weak_associations``), filled on first use and kept for
one audit.  OF, 2-OF and the spouse condition are the orientation rule's
own scan (rule i at a collider, rule ii elsewhere), so the audit checks
exactly the conditions under which ``orient`` is sound.

Exhaustive means exponential: AF alone may ask every subset of the other
nodes for every edge, so ``audit_scenario`` refuses scenarios of more than
``MAX_AUDIT_NODES`` nodes.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .association import UNBOUNDED, _first_independent, weak_associations
from .graph import Dag
from .oracle import IndependenceOracle, OracleError
from .orientation import _rule_defeat

MAX_AUDIT_NODES = 12


@dataclass(frozen=True)
class AuditResult:
    assumption: str
    holds: bool
    witness: dict | None = None

    def to_dict(self) -> dict:
        # the report format keeps the "exhaustive" flag; every check is exact
        return {
            "assumption": self.assumption,
            "holds": self.holds,
            "witness": self.witness,
            "exhaustive": True,
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

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "exhaustive": True,
            "results": [r.to_dict() for r in self.results],
        }


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
    order = sorted(dag.nodes)
    for x, y in dag.edges:
        pool = [v for v in order if v not in (x, y)]
        found = _first_independent(oracle, [(x, y, ())], pool, len(pool))
        if found is not None:
            witness = {"edge": [x, y], "separating_set": sorted(found[2])}
            return AuditResult("AF", False, witness)
    return AuditResult("AF", True)


def check_2af(dag: Dag, partner_sets) -> AuditResult:
    """Every adjacency x - y is witnessed by one of ``partner_sets(x)``, the
    sets x is weakly associated to, that holds y and lies inside MB(x)."""
    for x, y in itertools.chain(dag.edges, ((b, a) for a, b in dag.edges)):
        mb = dag.markov_blanket(x)
        if not any(y in c and mb.issuperset(c) for c in partner_sets(x)):
            return AuditResult("2-AF", False, {"node": x, "adjacent": y})
    return AuditResult("2-AF", True)


def check_of(dag: Dag, oracle: IndependenceOracle) -> AuditResult:
    """Orientation faithfulness: over every unshielded triple x - y - z,
    rule i holds if y is a collider and rule ii holds otherwise."""
    order = sorted(dag.nodes)
    for y in dag.nodes:
        neigh = sorted(dag.parents(y) | dag.children(y))
        for x, z in itertools.combinations(neigh, 2):
            if dag.adjacent(x, z):
                continue
            collider = {x, z} <= dag.parents(y)
            bad = _rule_defeat(oracle, y, (x,), (z,), collider, order, UNBOUNDED)
            if bad is not None:
                witness = {"triple": [x, y, z], "collider": collider, "given": sorted(bad[2])}
                return AuditResult("OF", False, witness)
    return AuditResult("OF", True)


def check_2of_and_spouse(
    dag: Dag, oracle: IndependenceOracle, partner_sets
) -> tuple[AuditResult, AuditResult]:
    """2-orientation faithfulness and the spouse condition, in one pass.

    A configuration is a centre y weakly associated to two disjoint side
    sets, in ``partner_sets(y)`` order.  2-OF: at every unshielded
    configuration (no cross pair adjacent) rule i holds if every side node
    is a parent of y, rule ii otherwise.  Spouse condition: rule i holds at
    every such collider configuration, shielded or not.  Each reports its
    first failure.
    """
    order = sorted(dag.nodes)
    configs = (
        (y, xs, zs)
        for y in dag.nodes
        for xs, zs in itertools.combinations(partner_sets(y), 2)
        if not set(xs) & set(zs)
    )
    two_of = spouse = None
    for y, xs, zs in configs:
        unshielded = not any(dag.adjacent(x, z) for x, z in itertools.product(xs, zs))
        collider = set(xs + zs) <= dag.parents(y)
        want_2of = unshielded and two_of is None
        want_spouse = collider and spouse is None
        if not (want_2of or want_spouse):
            continue
        bad = _rule_defeat(oracle, y, xs, zs, collider, order, UNBOUNDED)
        if bad is None:
            continue
        x, z, given = bad
        witness = {"center": y, "left": list(xs), "right": list(zs),
                   "x": x, "z": z, "given": sorted(given)}
        if want_2of:
            two_of = {**witness, "condition": "i" if collider else "ii"}
        if want_spouse:
            spouse = witness
        if two_of and spouse:
            break
    return (
        AuditResult("2-OF", two_of is None, two_of),
        AuditResult("spouse-condition", spouse is None, spouse),
    )


def audit_scenario(scenario) -> AuditReport:
    """Run every assumption check against the scenario's exact oracle."""
    if len(scenario.dag.nodes) > MAX_AUDIT_NODES:
        raise OracleError(
            f"audits are exhaustive and run on at most {MAX_AUDIT_NODES} nodes "
            f"(this scenario has {len(scenario.dag.nodes)})"
        )
    dag, oracle = scenario.dag, scenario.oracle()

    @functools.cache  # one table per audit, filled on first use
    def partner_sets(y: str) -> list[tuple[str, ...]]:
        return [r.partners for r in weak_associations(oracle, y)]

    results = (
        check_cmc(dag, oracle),
        check_af(dag, oracle),
        check_2af(dag, partner_sets),
        check_of(dag, oracle),
        *check_2of_and_spouse(dag, oracle, partner_sets),
    )
    return AuditReport(scenario.name, results)
