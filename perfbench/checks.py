"""Answer checks: result digests and independent re-verification.

Every task's ``result`` block is digested and compared with the committed
reference.  Two kinds of results get more than a digest:

* audit reports.  ``check_af`` and ``check_2af`` iterate the
  ``Dag.edges`` frozenset, so which witness they report depends on
  ``PYTHONHASHSEED`` (a known defect).  Until that is fixed only the
  verdict fields are digested, and each witness is re-verified against a
  fresh exact oracle so that a wrong witness still fails.
* sparsest permutations over a d-separation oracle.  The oracle is
  faithful by construction, so every minimizer must have exactly the true
  DAG's skeleton and edge count.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import kassoc


def digest(block) -> str:
    text = json.dumps(block, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def audit_key(block):
    """The hash-seed independent part of an audit report."""
    if block is None:
        return None
    return {
        "scenario": block["scenario"],
        "exhaustive": block["exhaustive"],
        "results": [
            {"assumption": r["assumption"], "holds": r["holds"],
             "exhaustive": r["exhaustive"], "has_witness": r["witness"] is not None}
            for r in block["results"]
        ],
    }


def _skeleton(edges):
    return {frozenset(e) for e in edges}


def verify_sp_graph(dag, block) -> str | None:
    want = len(dag.edges)
    if block["minimum_edges"] != want:
        return f"minimum edge count {block['minimum_edges']} != true DAG's {want}"
    skeleton = _skeleton(dag.edges)
    for m in block["minimizers"]:
        edges = [e.split("->") for e in m["dag"]["edges"]]
        if _skeleton(edges) != skeleton:
            return f"minimizer {m['permutation']} has a different skeleton"
    return None


def verify_audit(scenario, block) -> str | None:
    """Re-derive every reported witness from a fresh exact oracle."""
    for r in block["results"]:
        w = r["witness"]
        if w is None:
            continue
        check = _WITNESS.get(r["assumption"])
        if check is None:
            return f"no witness check for assumption {r['assumption']!r}"
        if not check(scenario.dag, scenario.oracle(), w):
            return f"{r['assumption']} witness does not hold: {w}"
    return None


def _cmc(dag, o, w):
    xs, ys, s = w["xs"], w["ys"], w["given"]
    return dag.d_separated(xs, ys, s) and not o.query_sets(xs, ys, s)


def _af(dag, o, w):
    x, y = w["edge"]
    return (x, y) in dag.edges and o.query(x, y, tuple(w["separating_set"]))


def _2af(dag, o, w):
    x, y = w["node"], w["adjacent"]
    candidates = [(y,)] + [tuple(sorted((y, z))) for z in sorted(dag.markov_blanket(x) - {y})]
    return dag.adjacent(x, y) and not any(
        kassoc.is_weakly_associated(o, x, c).holds for c in candidates
    )


def _of(dag, o, w):
    x, y, z = w["triple"]
    given = set(w["given"])
    collider = y in dag.children(x) and y in dag.children(z)
    active = (y in given) if collider else (y not in given)
    return (dag.adjacent(x, y) and dag.adjacent(y, z) and not dag.adjacent(x, z)
            and w["collider"] == collider and active and o.query(x, z, tuple(given)))


def _cross_pair(dag, o, w, with_center):
    y, xs, zs, x, z = w["center"], w["left"], w["right"], w["x"], w["z"]
    given = set(w["given"])
    core = (set(xs) - {x}) | (set(zs) - {z}) | ({y} if with_center else set())
    return (x in xs and z in zs and core <= given and (y in given) == with_center
            and o.query(x, z, tuple(given)))


def _2of(dag, o, w):
    collider = all(w["center"] in dag.children(v) for v in w["left"] + w["right"])
    shielded = any(dag.adjacent(a, b) for a, b in itertools.product(w["left"], w["right"]))
    return (not shielded and w["condition"] == ("i" if collider else "ii")
            and _cross_pair(dag, o, w, collider))


def _spouse(dag, o, w):
    collider = all(w["center"] in dag.children(v) for v in w["left"] + w["right"])
    return collider and _cross_pair(dag, o, w, True)


_WITNESS = {
    "CMC": _cmc,
    "AF": _af,
    "2-AF": _2af,
    "OF": _of,
    "2-OF": _2of,
    "spouse-condition": _spouse,
}
