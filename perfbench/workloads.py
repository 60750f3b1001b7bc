"""The benchmark's three workloads.

Each workload has three parts:

* ``inputs(instance, size)`` draws the instance's inputs as plain data
  (node lists, edge lists, CPT rows, Gaussian weights).  This is the
  benchmark's own code and is not timed.
* ``setup(inputs, workdir)`` builds kassoc's objects from them: graphs,
  CPTs, scenarios (with the construction-time Markov check), joints,
  oracles and scenario files.  This is what ``setup_s`` times.
* ``tasks(state)`` lists the round's analysis tasks.  Each round gets a
  fresh set-up, so no round profits from an earlier round's query cache.

Why these three:

* ``sp_graph``: factorial sparsest-permutation search over a d-separation
  oracle on each of 64 6-node DAGs.  10,800 oracle queries per search,
  of which 240 miss the cache, so oracle dispatch and the permutation
  loop dominate and the backend hardly runs.
* ``discrete_exact``: exact Fraction-table oracles on random binary
  networks.  Two 7-node networks are built through ``Scenario`` (with its
  construction-time Markov check) and scanned for associations of their
  highest-degree node by the CLI's ``assoc`` code; ten 8-node joints are
  built with ``from_cpts`` and run a modified grow-shrink blanket for
  every node.  Almost every query misses the cache and costs a full-table
  marginalisation.
* ``cli_suite``: in-process ``kassoc.cli.run`` over every builtin and over
  two random scenario files written at set-up (a 6-node binary network
  and a 6-node linear-Gaussian system).  Many short calls that each pay
  argument parsing, scenario load, oracle construction and JSON output;
  the only workload that reaches the Gaussian and G-test backends.

Random networks are dense (fixed edge count, capped in-degree) and
several of them make up one round.  Every graph has a fixed shape, drawn
once per shape name; the seed relabels it (and draws new CPTs or
weights): the Markov check's cost follows the number of d-separations in
the graph, and the search's memory the size of its answer, the DAG's
Markov equivalence class; on freshly drawn graphs the one varied by half
and the other by a third between seeds.  The grow-shrink joints keep
their labels too, since grow-shrink scans nodes in label order: with
fresh graphs the 90th-percentile blanket cost varied by 6% between
seeds, with relabelled ones the same, with fixed labels not at all.  Tasks are
kept short (tens of ms on a 2-vCPU machine) and rounds to 2 or 3 s, so
that a run holds several rounds to take medians over, and each task's
speed scaling (speed.py) follows the machine closely.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import kassoc
import kassoc.cli

import checks


@dataclass
class Outcome:
    code: int  # exit code; 0 for library calls that returned
    block: object  # JSON-ready result block compared with the reference
    reported_queries: int | None = None  # a CLI report's "oracle_queries"


@dataclass
class Task:
    id: str
    call: Callable[[], object]  # the timed analysis
    post: Callable[[object], Outcome]  # untimed: raw result -> outcome
    verify: Callable[[object], str | None] | None = None  # extra check on the block
    audit: bool = False  # digest only the verdict fields (see checks.audit_key)

    def digest(self, outcome: Outcome) -> str:
        return checks.digest(checks.audit_key(outcome.block) if self.audit else outcome.block)


class Workload(NamedTuple):
    inputs: Callable  # (instance, size) -> plain data; untimed
    setup: Callable  # (inputs, workdir) -> state; timed as setup_s
    tasks: Callable  # state -> [Task]


# -- seeded random inputs, as plain data ------------------------------------------


@dataclass(frozen=True)
class Net:
    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    cpts: tuple = ()  # (child, parents, rows) per node, binary


def random_edges(rng: random.Random, n: int, edges: int, max_in: int):
    """Nodes V0..V{n-1} and exactly ``edges`` edges (if the in-degree cap
    allows), drawn along a random topological order."""
    names = [f"V{i}" for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    indeg = [0] * n
    chosen = []
    for a, b in pairs:
        if len(chosen) == edges:
            break
        child = order[b]
        if indeg[child] < max_in:
            indeg[child] += 1
            chosen.append((names[order[a]], names[child]))
    return tuple(names), tuple(chosen)


def shaped_edges(rng: random.Random | None, shape: str, n: int, edges: int, max_in: int):
    """The fixed graph drawn for ``shape``, with its labels permuted by
    ``rng`` (kept as drawn if ``rng`` is None)."""
    names, chosen = random_edges(random.Random(f"shape:{shape}"), n, edges, max_in)
    if rng is None:
        return names, chosen
    perm = list(names)
    rng.shuffle(perm)
    label = dict(zip(names, perm))
    return names, tuple((label[a], label[b]) for a, b in chosen)


def random_cpt_rows(rng: random.Random, nodes, edges) -> tuple:
    """Binary CPT rows with probabilities k/16; a child's rows are never all
    equal, so no edge is trivially empty."""
    cpts = []
    for v in nodes:
        parents = tuple(sorted(a for a, b in edges if b == v))
        while True:
            rows = {}
            for pa in itertools.product((0, 1), repeat=len(parents)):
                p = Fraction(rng.randint(1, 15), 16)
                rows[pa] = (1 - p, p)
            if not parents or len(set(rows.values())) > 1:
                break
        cpts.append((v, parents, rows))
    return tuple(cpts)


def random_net(rng, shape, n, edges, max_in, relabel=True) -> Net:
    """The fixed graph of ``shape``, relabelled by ``rng`` unless told
    not to, with CPT rows drawn from ``rng``."""
    nodes, chosen = shaped_edges(rng if relabel else None, shape, n, edges, max_in)
    return Net(nodes, chosen, random_cpt_rows(rng, nodes, chosen))


def random_gaussian_weights(rng: random.Random, net: Net):
    weights = [Fraction(k, 2) for k in (-3, -2, -1, 1, 2, 3)]
    coefficients = {(b, a): rng.choice(weights) for a, b in sorted(net.edges)}
    noise = {v: Fraction(rng.randint(1, 3)) for v in net.nodes}
    return coefficients, noise


def _rng(workload: str, instance: int) -> random.Random:
    return random.Random(f"{workload}:{instance}")


def _max_degree_node(dag: kassoc.Dag) -> str:
    return max(dag.nodes, key=lambda v: (len(dag.parents(v) | dag.children(v)), -dag.index(v)))


# -- building kassoc objects (timed set-up) -----------------------------------------


def build_dag(net: Net) -> kassoc.Dag:
    return kassoc.Dag(net.nodes, net.edges)


def build_cpts(net: Net) -> tuple:
    return tuple(kassoc.Cpt(v, 2, parents, (2,) * len(parents), rows)
                 for v, parents, rows in net.cpts)


# -- sp_graph --------------------------------------------------------------------

SP_SIZES = {
    "full": {"dags": 64, "n": 6, "edges": 6, "max_in": 3},
    "tiny": {"dags": 1, "n": 5, "edges": 5, "max_in": 2},
}


def sp_inputs(instance, size):
    p = SP_SIZES[size]
    rng = _rng("sp_graph", instance)
    return [Net(*shaped_edges(rng, f"sp_graph:{size}:{i}", p["n"], p["edges"], p["max_in"]))
            for i in range(p["dags"])]


def sp_setup(nets, workdir):
    dags = [build_dag(net) for net in nets]
    return [(dag, kassoc.GraphOracle(dag)) for dag in dags]


def _sp_block(minimizers) -> Outcome:
    return Outcome(0, {
        "minimum_edges": minimizers[0][1].edge_count,
        "minimizers": [{"permutation": list(perm), "dag": pdag.to_dict()}
                       for perm, pdag in minimizers],
    })


def sp_tasks(state):
    return [
        Task(
            f"sp g{i}",
            lambda o=o: kassoc.sparsest_permutations(o),
            _sp_block,
            lambda block, dag=dag: checks.verify_sp_graph(dag, block),
        )
        for i, (dag, o) in enumerate(state)
    ]


# -- discrete_exact ----------------------------------------------------------------

DISCRETE_SIZES = {
    "full": {"scan": (2, 7, 11, 3), "gs": (10, 8, 16, 4)},
    "tiny": {"scan": (1, 5, 5, 2), "gs": (1, 6, 8, 3)},
}


def discrete_inputs(instance, size):
    """Fixed-shape networks, relabelled, for the ``Scenario`` builds; fixed
    graphs with fixed labels for the ``from_cpts`` joints, because
    grow-shrink scans the nodes in label order.  The seed draws every CPT."""
    p = DISCRETE_SIZES[size]
    rng = _rng("discrete_exact", instance)
    count, n, edges, max_in = p["scan"]
    scans = [random_net(rng, f"discrete_exact:{size}:scan{i}", n, edges, max_in)
             for i in range(count)]
    count, n, edges, max_in = p["gs"]
    joints = [random_net(rng, f"discrete_exact:{size}:gs{i}", n, edges, max_in, relabel=False)
              for i in range(count)]
    return scans, joints


def discrete_setup(inputs, workdir):
    """Scenario builds (with the Markov self-check) for the scan networks,
    ``from_cpts`` joints and their oracles for the blanket networks."""
    scans, joints = inputs
    scenarios = [kassoc.Scenario(f"scan{i}", build_dag(net), "discrete", cpts=build_cpts(net))
                 for i, net in enumerate(scans)]
    oracles = [kassoc.DiscreteOracle(kassoc.DiscreteJoint.from_cpts(build_dag(net),
                                                                     build_cpts(net)))
               for net in joints]
    return scenarios, oracles


def _gs_block(target):
    def post(raw) -> Outcome:
        blanket, _trace = raw
        return Outcome(0, {"target": target, "mode": "modified", "blanket": sorted(blanket)})
    return post


def _assoc_call(scenario, target):
    """The ``kassoc assoc`` scan, through the CLI's own command function
    (which builds its oracle from the scenario)."""
    args = argparse.Namespace(target=target, samples=None, budget=None)
    return lambda: kassoc.cli._cmd_assoc(scenario, args)


def discrete_tasks(state):
    scenarios, oracles = state
    tasks = []
    for j, o in enumerate(oracles):
        for v in o.variables:
            tasks.append(Task(
                f"mb n{j} {v}",
                lambda o=o, v=v: kassoc.markov_blanket(o, v, mode="modified"),
                _gs_block(v),
            ))
    for sc in scenarios:
        target = _max_degree_node(sc.dag)
        tasks.append(Task(
            f"assoc {sc.name} {target}",
            _assoc_call(sc, target),
            lambda raw: Outcome(0, raw[0]),
        ))
    return tasks


# -- cli_suite --------------------------------------------------------------------

CLI_SIZES = {
    "full": {"builtins": None, "n": 6, "edges": 8, "max_in": 3, "samples": 1000},
    "tiny": {"builtins": ("example1", "cancel3"), "n": 4, "edges": 4, "max_in": 2,
             "samples": 200},
}
ORIENT = {  # (centre, left, right) of the builtins made to exercise ``orient``
    "example2": ("Y", "X,Z", "W"),
    "noncollider_xor": ("Y", "X,Z", "W"),
}


def cli_inputs(instance, size):
    """The two random scenario files' contents, as data; and every builtin,
    loaded untimed only to learn its nodes and to re-verify audit
    witnesses (each CLI task loads its scenario itself)."""
    p = CLI_SIZES[size]
    rng = _rng("cli_suite", instance)
    binary = random_net(rng, f"cli_suite:{size}:bin", p["n"], p["edges"], p["max_in"])
    gauss = random_net(rng, f"cli_suite:{size}:gauss", p["n"], p["edges"], p["max_in"])
    names = p["builtins"] or sorted(kassoc.BUILTINS)
    return {
        "tag": f"{size}-{instance}",
        "binary": binary,
        "gauss": (gauss, *random_gaussian_weights(rng, gauss)),
        "builtins": {name: kassoc.builtin(name) for name in names},
        "samples": p["samples"],
        "seed": instance,
    }


def cli_setup(inputs, workdir):
    """Build the two random scenarios (the binary one with its Markov check)
    and write them as scenario files."""
    folder = workdir / "scenarios"
    folder.mkdir(parents=True, exist_ok=True)
    net = inputs["binary"]
    files = {"bin": kassoc.Scenario("random_binary", build_dag(net), "discrete",
                                    cpts=build_cpts(net))}
    net, coefficients, noise = inputs["gauss"]
    files["gauss"] = kassoc.Scenario("random_gaussian", build_dag(net), "gaussian",
                                     gaussian=kassoc.GaussianSystem(net.nodes, coefficients,
                                                                    noise))
    specs = {}
    for key, sc in files.items():
        path = folder / f"{inputs['tag']}-{key}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(kassoc.save(sc), fh, sort_keys=True, indent=2)
        specs[f"file:{key}"] = (str(path), sc)
    for name, sc in inputs["builtins"].items():
        specs[f"builtin:{name}"] = (f"builtin:{name}", sc)
    return {"specs": specs, "samples": inputs["samples"], "seed": inputs["seed"]}


def _cli_call(argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = kassoc.cli.run(argv)
        return code, out.getvalue()
    return call


def _cli_post(raw) -> Outcome:
    code, text = raw
    if code != 0:
        return Outcome(code, None)
    report = json.loads(text)
    return Outcome(code, report["result"], report["oracle_queries"])


def cli_tasks(state):
    tasks = []

    def add(spec, argv, *, audit_of=None):
        path, _sc = state["specs"][spec]
        full = [argv[0], "--scenario", path, *argv[1:]]
        verify = None
        if audit_of is not None:
            verify = lambda block, sc=audit_of: checks.verify_audit(sc, block)
        tasks.append(Task(" ".join([argv[0], spec, *argv[1:]]), _cli_call(full),
                          _cli_post, verify, audit=audit_of is not None))

    samples = ["--samples", str(state["samples"]), "--seed", str(state["seed"])]
    for spec, (_path, sc) in state["specs"].items():
        if spec.startswith("builtin:"):
            targets, modes = sc.dag.nodes, ("modified", "classic")
        else:
            # one target per random file: their cost varies with the seed,
            # and few of them keep it from deciding the p50/p90 ranks
            targets, modes = [_max_degree_node(sc.dag)], ("modified",)
        for v in targets:
            for mode in modes:
                add(spec, ["mb", "--target", v, "--mode", mode])
            add(spec, ["assoc", "--target", v])
            if sc.kind == "discrete":
                add(spec, ["mb", "--target", v, *samples])
        add(spec, ["sp"])
        add(spec, ["audit"], audit_of=sc)
        name = spec.split(":", 1)[1]
        if name in ORIENT and spec.startswith("builtin:"):
            centre, left, right = ORIENT[name]
            add(spec, ["orient", "--center", centre, "--left", left, "--right", right])
    return tasks


WORKLOADS = {
    "sp_graph": Workload(sp_inputs, sp_setup, sp_tasks),
    "discrete_exact": Workload(discrete_inputs, discrete_setup, discrete_tasks),
    "cli_suite": Workload(cli_inputs, cli_setup, cli_tasks),
}
