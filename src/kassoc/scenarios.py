"""Canonical generator scenarios: worked examples and failure modes.

Each scenario bundles a ground-truth DAG with an exact distribution
payload (discrete CPTs or a linear-Gaussian system) plus its parameters.
A builtin states its graph once, in its payload: a discrete builtin's edges
are read off its CPTs' parents, a Gaussian builtin's graph is its system's
own.  A scenario file states the graph and the payload separately, so
:class:`Scenario` still checks that they agree.  Unobserved noise coins are
marginalised into the CPTs, they are never graph nodes.  Every scenario
satisfies the causal Markov condition by construction, so building one
asks no CI question: a distribution that factorizes along a DAG satisfies
each of its local Markov statements exactly, zero cells included
(Lauritzen 1996, Thm 3.27).  A discrete joint is such a product, of one
exact CPT per node over its DAG parents (checked by :class:`Cpt` and
:meth:`DiscreteJoint.from_cpts`), and so is a Gaussian system whose
coefficients form the DAG.  Each layer of a build makes one pass: the
graph is sorted once, by its own cycle check, and each CPT is checked
over its whole table at once.  The one CMC check is the audit's
(:func:`kassoc.audit.check_cmc`); a scenario neither runs nor caches an
audit itself.  :func:`save` and :func:`load` give a bit-exact JSON form,
with every rational as a "num/den" string.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .distribution import Cpt, DiscreteJoint, DistributionError, exact
from .gaussian import GaussianSystem
from .graph import Dag
from .oracle import (
    DiscreteOracle,
    GaussianOracle,
    GraphOracle,
    IndependenceOracle,
)

HALF = Fraction(1, 2)


class ScenarioError(ValueError):
    """Invalid scenario parameters or file contents."""


@dataclass(frozen=True)
class Scenario:
    name: str
    dag: Dag
    kind: str  # "discrete" | "gaussian" | "graph"
    cpts: tuple[Cpt, ...] | None = None
    gaussian: GaussianSystem | None = None
    params: Mapping[str, Fraction] = field(default_factory=dict)
    notes: str = ""
    joint: DiscreteJoint | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "discrete":
            if self.cpts is None:
                raise ScenarioError("discrete payload needs CPTs")
            object.__setattr__(self, "cpts", tuple(self.cpts))
            object.__setattr__(self, "joint", DiscreteJoint.from_cpts(self.dag, self.cpts))
        elif self.kind == "gaussian":
            g = self.gaussian
            if g is not None and g.dag.nodes != self.dag.nodes:
                raise ScenarioError(f"gaussian order {list(g.dag.nodes)} must list the nodes "
                                    f"{list(self.dag.nodes)} in the same sequence")
            if g is None or g.dag != self.dag:
                raise ScenarioError("gaussian coefficients must form the scenario graph")
        elif self.kind != "graph":
            raise ScenarioError(f"unknown payload kind {self.kind!r}")
        # save writes only its kind's payload, so another would not round-trip
        for kind, payload, what in (("discrete", self.cpts, "CPTs"),
                                    ("gaussian", self.gaussian, "Gaussian system")):
            if payload is not None and self.kind != kind:
                raise ScenarioError(f"a {self.kind} scenario carries no {what}")
        object.__setattr__(self, "params", {
            k: exact(v, ScenarioError, f"parameter {k}") for k, v in self.params.items()})

    def oracle(self) -> IndependenceOracle:
        """Exact oracle over the scenario's distribution payload."""
        if self.kind == "discrete":
            return DiscreteOracle(self.joint)
        if self.kind == "gaussian":
            return GaussianOracle(self.gaussian)
        return GraphOracle(self.dag)


def _xor(*bits: int) -> int:
    return sum(bits) % 2


def _discrete(name, nodes, cpts, params, notes) -> Scenario:
    """A discrete builtin over ``nodes``, its edges read off the CPTs' parents."""
    dag = Dag(nodes, [(p, cpt.child) for cpt in cpts for p in cpt.parents])
    return Scenario(name, dag, "discrete", cpts=tuple(cpts), params=params, notes=notes)


# -- discrete generators ------------------------------------------------------


def noisy_xor(p: Fraction = Fraction(1, 4)) -> Scenario:
    """Collider X -> Y <- Z where Y is the xor of its parents plus a noise
    coin of bias p (0 <= p < 1/2).  All three pairs are marginally
    independent; the triple is a minimal unfaithful triple.
    """
    if not 0 <= p < HALF:
        raise ScenarioError("noise bias must satisfy 0 <= p < 1/2")
    cpts = [
        Cpt.coin("X", HALF),
        Cpt.coin("Z", HALF),
        Cpt.noisy_function("Y", ["X", "Z"], [2, 2], _xor, p),
    ]
    return _discrete("example1", ["X", "Y", "Z"], cpts, {"p": p},
                     "noisy xor collider; adjacency faithfulness fails on both edges")


def xor_with_context(p: Fraction = HALF, q: Fraction = Fraction(1, 4)) -> Scenario:
    """Four-node graph {X, Z, W} -> Y with Y = ((X xor Z) and W) xor noise.

    0 < p < 1 keeps W relevant, 0 < q < 1/2 keeps the mechanism noisy and
    detectable.  The W edge breaks the triple's symmetry, so the collider
    at Y is identifiable.
    """
    if not 0 < p < 1:
        raise ScenarioError("context bias must satisfy 0 < p < 1")
    if not 0 < q < HALF:
        raise ScenarioError("noise bias must satisfy 0 < q < 1/2")
    cpts = [
        Cpt.coin("X", HALF),
        Cpt.coin("Z", HALF),
        Cpt.coin("W", p),
        Cpt.noisy_function(
            "Y", ["X", "Z", "W"], [2, 2, 2], lambda x, z, w: (_xor(x, z) & w), q
        ),
    ]
    return _discrete("example2", ["X", "Z", "W", "Y"], cpts, {"p": p, "q": q},
                     "xor collider with context node W; Y orientable as the collider")


def baseline(kind: str, strength: Fraction = Fraction(1, 9)) -> Scenario:
    """Faithful three-node controls: chain X->Y->Z, fork X<-Y->Z, or the
    collider X->Y<-Z.  Strength must be non-degenerate (no implied extra
    independencies); the collider CPT uses distinct row probabilities
    s, 3s, 5s, 7s.
    """
    s = strength
    if kind in ("chain", "fork") and (s <= 0 or s >= HALF):
        raise ScenarioError("copy strength must satisfy 0 < s < 1/2")
    if kind == "collider" and (s <= 0 or 7 * s >= 1 or s == Fraction(1, 10)):
        # s = 1/10 makes one collider row exactly 1/2, degenerate for Z
        raise ScenarioError("collider strength must satisfy 0 < 7s < 1, s != 1/10")

    def copy_cpt(child, parent):
        return Cpt.noisy_function(child, [parent], [2], lambda v: v, s)

    if kind == "chain":
        cpts = [Cpt.coin("X", HALF), copy_cpt("Y", "X"), copy_cpt("Z", "Y")]
    elif kind == "fork":
        cpts = [Cpt.coin("Y", HALF), copy_cpt("X", "Y"), copy_cpt("Z", "Y")]
    elif kind == "collider":
        rows = {
            (x, z): (1 - s * (1 + 2 * x + 4 * z), s * (1 + 2 * x + 4 * z))
            for x in (0, 1)
            for z in (0, 1)
        }
        cpts = [
            Cpt.coin("X", HALF),
            Cpt.coin("Z", HALF),
            Cpt("Y", 2, ("X", "Z"), (2, 2), rows),
        ]
    else:
        raise ScenarioError(f"unknown baseline kind {kind!r}")
    return _discrete(kind, ["X", "Y", "Z"], cpts, {"strength": s}, "faithful control scenario")


def xor_chain() -> Scenario:
    """Five-node graph X -> U -> W <- Z, W -> Y with an xor collider at W
    and noisy-copy edges elsewhere.

    {X, Y, Z} is an unfaithful but non-minimal triple (X and Y separate
    given {U, Z}); {U, W, Z} is the minimal unfaithful triple.  Copy noise
    1/4 throughout, xor noise 1/4; these choices are locked in only
    because the exact oracle confirms the intended (in)dependencies (see
    tests).
    """
    flip = Fraction(1, 4)
    cpts = [
        Cpt.coin("X", HALF),
        Cpt.coin("Z", HALF),
        Cpt.noisy_function("U", ["X"], [2], lambda v: v, flip),
        Cpt.noisy_function("W", ["U", "Z"], [2, 2], _xor, flip),
        Cpt.noisy_function("Y", ["W"], [2], lambda v: v, flip),
    ]
    return _discrete("xor_chain", ["X", "U", "Z", "W", "Y"], cpts, {"flip": flip},
                     "xor collider at W embedded in a chain; only {U,W,Z} is minimal")


def noncollider_xor() -> Scenario:
    """W -> Y -> X <- Z: Y is a noisy copy of W and X a noisy xor of Y, Z.

    Mirror image of the orientable case: Y is strictly 2-associated to
    {X, Z} and 1-associated to W, yet Y is a non-collider, so the collider
    rule must not fire.  Noise levels (1/4 each) are implementer-chosen
    and verified against the intended dependence pattern in tests.
    """
    flip = Fraction(1, 4)
    cpts = [
        Cpt.coin("W", HALF),
        Cpt.coin("Z", HALF),
        Cpt.noisy_function("Y", ["W"], [2], lambda v: v, flip),
        Cpt.noisy_function("X", ["Y", "Z"], [2, 2], _xor, flip),
    ]
    return _discrete("noncollider_xor", ["W", "Y", "Z", "X"], cpts, {"flip": flip},
                     "Y is a non-collider between {X,Z} and W; rule i must not fire")


def transitivity_failure() -> Scenario:
    """Chain X -> Y -> Z with X independent of Z: a transitivity failure.

    Y is a four-state node carrying (X xor c, d) with c biased and d fair;
    Z is the xor of Y's two components.  The fair component masks X in Z,
    so X and Z are marginally independent AND independent given Y, which
    defeats both orientation rules on (X, Y, Z).
    """
    bias = Fraction(1, 4)
    # Y encodes (b1, b2) as 2*b1 + b2 with b1 = X xor c, b2 = d
    rows_y = {}
    for x in (0, 1):
        vec = [Fraction(0)] * 4
        for c in (0, 1):
            for d in (0, 1):
                pc = bias if c == 1 else 1 - bias
                vec[2 * _xor(x, c) + d] += pc * HALF
        rows_y[(x,)] = tuple(vec)
    rows_z = {(y,): ((1, 0) if _xor(y >> 1, y & 1) == 0 else (0, 1)) for y in range(4)}
    cpts = [
        Cpt.coin("X", HALF),
        Cpt("Y", 4, ("X",), (2,), rows_y),
        Cpt("Z", 2, ("Y",), (4,), rows_z),
    ]
    return _discrete("transitivity_failure", ["X", "Y", "Z"], cpts, {"bias": bias},
                     "X indep Z marginally and given Y; detectable 2-OF failure")


def independent_coins(n: int = 3) -> Scenario:
    """n isolated fair coins; the all-independent control."""
    labels = ["X", "Y", "Z", "U", "V", "W"][:n]
    return _discrete("coins", labels, [Cpt.coin(v, HALF) for v in labels], {},
                     "isolated fair coins")


# -- gaussian generators ------------------------------------------------------


def cancelling_paths_3(
    alpha: Fraction = Fraction(1), beta: Fraction = Fraction(1)
) -> Scenario:
    """X -> Z -> Y plus a direct edge X -> Y whose weight cancels the
    indirect path (gamma = alpha * beta, computed, never passed).

    The marginal X-Y association vanishes exactly.  This violation is not
    detectable in principle: the implied independencies are Markov
    equivalent to a graph without the direct edge.
    """
    if alpha == 0 or beta == 0:
        raise ScenarioError("coefficients must be nonzero")
    system = GaussianSystem(
        ("X", "Z", "Y"),
        {("Z", "X"): alpha, ("Y", "Z"): beta, ("Y", "X"): -alpha * beta},
        {"X": Fraction(1), "Z": Fraction(1), "Y": Fraction(1)},
    )
    return Scenario(
        "cancel3", system.dag, "gaussian", gaussian=system,
        params={"alpha": alpha, "beta": beta},
        notes="3-node cancellation; Markov-equivalent, undetectable in principle",
    )


def cancelling_paths_4(
    a: Fraction = Fraction(1), b: Fraction = Fraction(1), c: Fraction = Fraction(1)
) -> Scenario:
    """Paths X -> Y and X -> Z -> W -> Y cancelling exactly.

    Direct weight is -a*b*c by construction.  Unlike the 3-node case this
    violation is detectable: X ends up strictly 2-associated to {W, Y}.
    """
    if 0 in (a, b, c):
        raise ScenarioError("coefficients must be nonzero")
    system = GaussianSystem(
        ("X", "Z", "W", "Y"),
        {
            ("Z", "X"): a,
            ("W", "Z"): b,
            ("Y", "W"): c,
            ("Y", "X"): -a * b * c,
        },
        {n: Fraction(1) for n in ("X", "Z", "W", "Y")},
    )
    return Scenario(
        "cancel4", system.dag, "gaussian", gaussian=system,
        params={"a": a, "b": b, "c": c},
        notes="4-node cancellation; detectable via a strict 2-association",
    )


# -- registry and serialization ------------------------------------------------

BUILTINS = {
    "example1": noisy_xor,
    "example2": xor_with_context,
    "chain": lambda: baseline("chain"),
    "fork": lambda: baseline("fork"),
    "collider": lambda: baseline("collider"),
    "xor_chain": xor_chain,
    "noncollider_xor": noncollider_xor,
    "transitivity_failure": transitivity_failure,
    "coins": independent_coins,
    "cancel3": cancelling_paths_3,
    "cancel4": cancelling_paths_4,
}


def builtin(name: str) -> Scenario:
    try:
        return BUILTINS[name]()
    except KeyError:
        raise ScenarioError(f"unknown builtin scenario {name!r}") from None


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _parse_frac(s: str) -> Fraction:
    """A rational literal: a JSON string such as "1/2", as :func:`save` writes."""
    if not isinstance(s, str):
        raise ScenarioError(f"rational literal {s!r} must be a JSON string such as \"1/2\"")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ScenarioError(f"bad rational literal {s!r}") from exc


def save(scenario: Scenario) -> dict:
    """JSON-ready document; rationals as "num/den" strings.

    Edges are written as "parent->child" strings, which :func:`load` splits
    at the first "->" and strips, so a label containing "->" or with
    surrounding whitespace is refused here rather than written unloadable.
    """
    for v in scenario.dag.nodes:
        if "->" in v or v != v.strip():
            raise ScenarioError(f"node label {v!r} cannot be saved: it contains '->' "
                                "or surrounding whitespace")
    doc = {
        "name": scenario.name,
        "nodes": list(scenario.dag.nodes),
        "edges": sorted(f"{a}->{b}" for a, b in scenario.dag.edges),
        "params": {k: _frac_str(v) for k, v in sorted(scenario.params.items())},
        "notes": scenario.notes,
    }
    if scenario.kind == "discrete":
        blocks = []
        for cpt in scenario.cpts:
            rows = [
                {"given": list(pa), "probs": [_frac_str(p) for p in vec]}
                for pa, vec in sorted(cpt.rows.items())
            ]
            blocks.append(
                {
                    "child": cpt.child,
                    "cardinality": cpt.child_card,
                    "parents": list(cpt.parents),
                    "parent_cardinalities": list(cpt.parent_cards),
                    "rows": rows,
                }
            )
        doc["payload"] = {"type": "discrete", "cpts": blocks}
    elif scenario.kind == "gaussian":
        sys_ = scenario.gaussian
        doc["payload"] = {
            "type": "gaussian",
            "order": list(sys_.nodes),
            "coefficients": {
                f"{p}->{c}": _frac_str(w)
                for (c, p), w in sorted(sys_.coefficients.items())
            },
            "noise": {n: _frac_str(v) for n, v in sorted(sys_.noise_variances.items())},
        }
    else:
        doc["payload"] = {"type": "graph"}
    return doc


def _fractions(value, what: str) -> dict:
    """A JSON object of rational literals, parsed."""
    if not isinstance(value, dict):
        raise ScenarioError(f"{what} must be a JSON object")
    return {k: _parse_frac(v) for k, v in value.items()}


def _strings(value, what: str) -> list[str]:
    """A JSON list of strings, as given."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ScenarioError(f"{what} must be a JSON list of strings")
    return value


def _integer(value, what: str) -> int:
    """A JSON integer; true and false are not integers here."""
    if type(value) is not int:
        raise ScenarioError(f"{what} must be a JSON integer, not {value!r}")
    return value


def _integers(value, what: str) -> list[int]:
    """A JSON list of integers, as given."""
    if not isinstance(value, list) or not all(type(v) is int for v in value):
        raise ScenarioError(f"{what} must be a JSON list of integers")
    return value


def _split_edge(text: str) -> tuple[str, str]:
    if "->" not in text:
        raise ScenarioError(f"bad edge string {text!r}, expected 'parent->child'")
    a, b = text.split("->", 1)
    return a.strip(), b.strip()


def load(doc: dict) -> Scenario:
    """Inverse of :func:`save`; bit-exact round trip.

    Fields are read as strictly as :func:`save` writes them: node lists,
    CPT parents and the Gaussian order are JSON lists of strings,
    cardinalities and parent values JSON integers, and rationals and the
    notes JSON strings.  Every invalid document raises :class:`ScenarioError`,
    including those the graph, distribution and Gaussian layers reject (a
    cyclic edge list, a cardinality below 1, cyclic coefficients).
    """
    try:
        return _load(doc)
    except ScenarioError:
        raise
    except (ValueError, TypeError) as exc:
        raise ScenarioError(f"invalid scenario: {exc}") from exc


def _load(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    try:
        name = doc["name"]
        nodes = _strings(doc["nodes"], "nodes")
        edges = [_split_edge(e) for e in _strings(doc["edges"], "edges")]
        payload = doc["payload"]
        if not isinstance(payload, dict):
            raise ScenarioError("payload must be a JSON object")
        kind = payload["type"]
    except KeyError as exc:
        raise ScenarioError(f"malformed scenario document: missing {exc}") from exc
    if not isinstance(name, str):
        raise ScenarioError("name must be a string")
    dag = Dag(nodes, edges)
    params = _fractions(doc.get("params", {}), "params")
    notes = doc.get("notes", "")
    if not isinstance(notes, str):
        raise ScenarioError("notes must be a JSON string")
    if kind == "discrete":
        try:
            cpts = []
            for block in payload["cpts"]:
                child = block["child"]
                rows = {
                    tuple(_integers(row["given"], f"given of {child!r}")):
                        tuple(map(_parse_frac, _strings(row["probs"], f"probs of {child!r}")))
                    for row in block["rows"]
                }
                cpts.append(
                    Cpt(
                        child,
                        _integer(block["cardinality"], f"cardinality of {child!r}"),
                        tuple(_strings(block["parents"], f"parents of {child!r}")),
                        tuple(_integers(block["parent_cardinalities"],
                                        f"parent_cardinalities of {child!r}")),
                        rows,
                    )
                )
        except (KeyError, TypeError) as exc:
            raise ScenarioError(f"malformed discrete payload: {exc}") from exc
        except DistributionError as exc:
            raise ScenarioError(f"bad probability table: {exc}") from exc
        return Scenario(name, dag, "discrete", cpts=tuple(cpts), params=params, notes=notes)
    if kind == "gaussian":
        try:
            order = tuple(_strings(payload["order"], "order"))
            coeffs = {}
            for key, w in _fractions(payload["coefficients"], "coefficients").items():
                p, c = _split_edge(key)
                coeffs[(c, p)] = w
            noise = _fractions(payload["noise"], "noise")
        except (KeyError, TypeError) as exc:
            raise ScenarioError(f"malformed gaussian payload: {exc}") from exc
        system = GaussianSystem(order, coeffs, noise)
        return Scenario(name, dag, "gaussian", gaussian=system, params=params, notes=notes)
    if kind == "graph":
        return Scenario(name, dag, "graph", params=params, notes=notes)
    raise ScenarioError(f"unknown payload type {kind!r}")


def load_path(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ScenarioError("scenario file nests too deeply to parse") from None
    return load(doc)
