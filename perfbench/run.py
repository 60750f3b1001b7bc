"""Layered end-to-end benchmark for kassoc.

    python3 perfbench/run.py --workload sp_graph --seed 3 --seconds 30 --trace 0

Runs one workload (``sp_graph``, ``discrete_exact`` or ``cli_suite``; see
workloads.py) in this process, single-threaded, on the kassoc sources in
``src/`` next to this directory.  ``--seed`` selects instance ``seed % 16``;
``reference.json`` holds the digest of every task's result for each
instance, and every answer is checked against it.

``--trace 0`` measures the end-to-end metrics: rounds of set-up plus
every task run until ``--seconds`` have passed; every timing is scaled to
a reference machine speed (speed.py) and medians are reported (see
measure).  ``--trace 1`` alternates untraced and traced passes (set-up
plus one round each, at least two of each, until ``--seconds`` have
passed) and reports per-layer metrics from the fastest traced pass; every
count must repeat exactly between passes.  Spans and a summary go to
``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from speed import Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
POOL = 16
REFERENCE = HERE / "reference.json"
OUT = ROOT / ".perfbench_out"
SPEC = ROOT / "BENCHMARK.json"  # metric names and units
TIME_UNITS = ("s", "ms", "x")
SETUP_BUDGET_S, SETUP_MAX_REPS = 0.3, 200  # per round
KNOWN_DEFECT = ("audit AF/2-AF witnesses depend on PYTHONHASHSEED (check_af/check_2af "
                "iterate the Dag.edges frozenset); audit verdict fields are digested and "
                "each witness is re-verified")


class BenchError(Exception):
    """The benchmark cannot run here; exit without a result."""


def bootstrap():
    """Import kassoc from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "kassoc" / "__init__.py").is_file():
        raise BenchError(f"no kassoc sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import kassoc

    if Path(kassoc.__file__).resolve().parent != (SRC / "kassoc").resolve():
        raise BenchError(f"imported kassoc from {kassoc.__file__}, not from {SRC}")
    return kassoc


def load_reference(path, size, workload, instance):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        return doc["digests"][size][workload][str(instance)]
    except KeyError:
        raise BenchError(f"{path} has no digests for {size}/{workload}/{instance}") from None


# -- running and checking tasks -------------------------------------------------


def run_round(tasks, on_result, speed=None):
    """Run every task once; returns the latencies.  After each task, untimed,
    ``speed.sample(latency)`` takes calibration samples (see Speed) and
    ``on_result(task, raw result or None, error text or None)`` is called;
    the round keeps no result itself, so none outlives its check."""
    latencies = []
    for task in tasks:
        t0 = perf_counter()
        try:
            raw, err = task.call(), None
        except Exception as exc:  # a raising task is a failed task, not a crash
            raw, err = None, f"raised {type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        latencies.append(dt)
        if speed is not None:
            speed.sample(dt)
        on_result(task, raw, err)
    return latencies


def outcome_of(task, raw, err):
    """(outcome, None), or (None, error text) for a task that raised or
    returned something unreadable."""
    if err is not None:
        return None, err
    try:
        return task.post(raw), None
    except (ValueError, KeyError, TypeError) as exc:
        return None, f"unreadable result: {exc}"


def check(task, outcome, reference):
    """Error text for a wrong answer, else None."""
    want = reference.get(task.id)
    if want is None:
        return "task missing from the reference"
    code, want_digest = want
    if outcome.code != code:
        return f"exit code {outcome.code}, expected {code}"
    if task.digest(outcome) != want_digest:
        return "result digest differs from the reference"
    if task.verify is not None and outcome.block is not None:
        return task.verify(outcome.block)
    return None


def checker(reference, tally):
    """An ``on_result`` that checks each answer and counts it in ``tally``."""
    def on_result(task, raw, err):
        outcome, msg = outcome_of(task, raw, err)
        tally.add(task, msg or check(task, outcome, reference))
    return on_result


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, task, msg):
        self.attempted += 1
        if msg:
            self.failed += 1
            self.errors.append(f"{task.id}: {msg}")


def quantile(values, q):
    """Linear-interpolation quantile; ``q`` in [0, 1]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# -- the two modes ---------------------------------------------------------------


def timed_setups(setup, inputs, speed):
    """Set up at least once and, while cheap, again; returns the last state
    and the time of each set-up.  ``speed`` samples after each."""
    times, spent = [], 0.0
    while not times or (spent < SETUP_BUDGET_S and len(times) < SETUP_MAX_REPS):
        t0 = perf_counter()
        state = setup(inputs, OUT)
        dt = perf_counter() - t0
        speed.sample(dt)
        times.append(dt)
        spent += dt
    return state, times


def measure(wl, instance, size, seconds, reference):
    """Rounds of set-up plus tasks until ``seconds`` have passed.  Every
    timing is scaled to the reference speed (see speed.py) and medians are
    reported: ``setup_s`` is the median set-up, ``wall_s`` the median
    round and each task's latency its median round."""
    OUT.mkdir(exist_ok=True)
    inputs = wl.inputs(instance, size)
    tally = Tally()
    setups, walls, raw_walls, all_factors, per_task = [], [], [], [], {}
    peak_rss = None
    deadline = perf_counter() + seconds
    while True:
        speed = Speed()
        state, times = timed_setups(wl.setup, inputs, speed)
        tasks = wl.tasks(state)
        lat = run_round(tasks, checker(reference, tally), speed)
        if peak_rss is None:  # every round repeats the first
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        factors = speed.factors()
        all_factors += factors
        setups += [t * f for t, f in zip(times, factors)]
        scaled = [t * f for t, f in zip(lat, factors[len(times):])]
        walls.append(sum(scaled))
        raw_walls.append(sum(lat))
        for task, dt in zip(tasks, scaled):
            per_task.setdefault(task.id, []).append(dt)
        if perf_counter() >= deadline:
            break
    latencies = [statistics.median(v) for v in per_task.values()]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "task_p50_ms": statistics.median(latencies) * 1e3,
        "task_p90_ms": quantile(latencies, 0.9) * 1e3,
        "peak_rss_mb": peak_rss,
    }
    beyond = sum(1 for x in latencies if x * 1e3 > metrics["task_p90_ms"])
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "peak_rss_mb": "set-up and first round",
        "wall_s": f"median of {len(walls)} rounds; unscaled median {statistics.median(raw_walls):.3f} s; "
                  f"speed factor median {statistics.median(all_factors):.3f}, "
                  f"range {min(all_factors):.3f}-{max(all_factors):.3f}",
        "task_p50_ms": f"{len(latencies)} tasks, each its median of {len(walls)} rounds",
        "task_p90_ms": f"{len(latencies)} tasks, {beyond} beyond p90"
        + ("" if beyond >= 10 else "; fewer than 10 beyond, indicative only"),
    }
    return metrics, notes, tally


def snapshot(tracer, layers, setup_s, wall_s, cli_pairs):
    t = tracer
    queries = t.calls.get("oracle.IndependenceOracle.query", 0)
    reported = sum(r for r, _ in cli_pairs)
    backend_in_cli = sum(b for _, b in cli_pairs)
    m = {
        "oracle.queries": queries,
        "oracle.backend_calls": t.backend_calls(),
        "oracle.hit_ratio": t.query_hits / queries if queries else 0.0,
        "oracle.self_s": t.layer_self_s("oracle"),
        "oracle.set_queries": sum(c for n, c in t.calls.items() if n.endswith(".query_sets")),
        "oracle.cond_size_mean": t.cond_size_sum / queries if queries else 0.0,
        "distribution.ci_calls": t.calls.get("distribution.DiscreteJoint.is_independent_sets", 0),
        "distribution.ci_s": t.group_s.get("distribution.ci", 0.0),
        "distribution.from_cpts_s": t.group_s.get("distribution.from_cpts", 0.0),
        "distribution.sample_s": t.group_s.get("distribution.sample", 0.0),
        "scenarios.builds": t.calls.get("scenarios.Scenario.__init__", 0),
        "scenarios.build_s": t.group_s.get("scenarios.build", 0.0),
        "scenarios.load_s": t.group_s.get("scenarios.load", 0.0),
        "graph.dsep_calls": t.calls.get("graph.Dag.d_separated", 0),
        "graph.dsep_s": t.group_s.get("graph.dsep", 0.0),
        "gaussian.pcorr_calls": t.calls.get("gaussian.partial_correlation_zero", 0),
        "gaussian.pcorr_s": t.group_s.get("gaussian.pcorr", 0.0),
        "gaussian.covariance_s": t.group_s.get("gaussian.covariance", 0.0),
        "gtest.calls": t.calls.get("gtest.g_test", 0),
        "gtest.s": t.group_s.get("gtest", 0.0),
        "gtest.rows_scanned": t.rows_scanned,
    }
    for layer in ("sparsest", "growshrink", "association", "orientation", "audit", "cli"):
        m[f"{layer}.calls"] = t.layer_calls(layer)
    for layer in layers:
        m[f"{layer}.self_s"] = t.layer_self_s(layer)
    m["cli.report_oracle_queries"] = reported
    m["cli.unreported_backend_calls"] = backend_in_cli - reported
    m["trace.spans"] = t.n_spans
    m["trace.setup_s"] = setup_s
    m["trace.wall_s"] = wall_s
    return m


def traced(wl, instance, size, seconds, reference, kassoc, tracer_mod, label, units):
    """Alternate untraced and traced passes (set-up plus one round each),
    at least two of each, until ``seconds`` have passed."""
    OUT.mkdir(exist_ok=True)
    inputs = wl.inputs(instance, size)
    tally = Tally()
    tracer = tracer_mod.Tracer()
    passes, untraced_walls, task_rows = [], [], []
    deadline = perf_counter() + seconds
    while len(passes) < 2 or perf_counter() < deadline:
        state = wl.setup(inputs, OUT)
        lat = run_round(wl.tasks(state), checker(reference, tally))
        untraced_walls.append(sum(lat))

        tracer.reset()
        tracer.install(kassoc)
        try:
            t0 = perf_counter()
            state = wl.setup(inputs, OUT)
            setup_s = perf_counter() - t0
            tasks = wl.tasks(state)
            backend, results, first_oracle = {}, [], len(tracer.oracles)

            def keep(task, raw, err):  # checks make oracles too: run them untraced
                nonlocal first_oracle  # backend calls of the oracles the task created
                backend[task.id] = tracer.backend_calls(first_oracle)
                first_oracle = len(tracer.oracles)
                results.append((task, *outcome_of(task, raw, err)))

            lat = run_round(tasks, keep)
        finally:
            tracer.uninstall()
        pairs = []
        for task, outcome, _msg in results:
            if outcome is not None and outcome.reported_queries is not None:
                pairs.append((outcome.reported_queries, backend[task.id]))
                if not passes:
                    task_rows.append((task.id, outcome.reported_queries, backend[task.id]))
        passes.append(snapshot(tracer, tracer_mod.LAYERS, setup_s, sum(lat), pairs))
        if len(passes) == 1:
            spans_kept = tracer.write_spans(OUT / f"spans-{label}.csv")
            function_stats = {n: {"calls": c, "self_s": tracer.self_s[n]}
                              for n, c in sorted(tracer.calls.items())}
        for task, outcome, msg in results:
            tally.add(task, msg or check(task, outcome, reference))
        del results

    count_errors = [
        f"count {k} changed between traced passes: {v} -> {m[k]} (pass {i})"
        for i, m in enumerate(passes[1:], 2)
        for k, v in passes[0].items()
        if units[k] not in TIME_UNITS and m[k] != v
    ]
    # the fastest traced pass is reported whole, so the layer times stay
    # consistent with each other (per-layer times are not speed-scaled)
    metrics = dict(min(passes, key=lambda m: m["trace.wall_s"]))
    metrics["trace.untraced_wall_s"] = min(untraced_walls)
    metrics["trace.overhead"] = metrics["trace.wall_s"] / metrics["trace.untraced_wall_s"]
    summary = {
        "workload": label, "kernel": kassoc.KERNEL, "passes": len(passes),
        "spans_kept": spans_kept, "metrics": metrics, "functions": function_stats,
        "cli_oracle_queries": [
            {"task": t, "report_oracle_queries": r, "backend_calls": b} for t, r, b in task_rows
        ],
    }
    with open(OUT / f"trace-{label}.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    return metrics, task_rows, tally, count_errors


# -- entry point -----------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny is for the benchmark's self-tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        kassoc = bootstrap()
        import tracer as tracer_mod
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
        instance = args.seed % POOL
        reference = load_reference(REFERENCE, args.size, args.workload, instance)
        with open(SPEC, encoding="utf-8") as fh:
            kind = "per_layer" if args.trace else "end_to_end"
            units = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    label = f"{args.workload}-{args.size}-seed{args.seed}"
    print(f"perfbench {args.workload}: seed {args.seed} -> instance {instance}, "
          f"size {args.size}, kernel {kassoc.KERNEL}, trace {args.trace}")
    if args.trace:
        metrics, task_rows, tally, count_errors = traced(
            wl, instance, args.size, args.seconds, reference, kassoc, tracer_mod, label, units)
        notes = {}
        gaps = [(t, r, b) for t, r, b in task_rows if r != b]
        if task_rows:
            print(f"  cli reports: {len(task_rows)} tasks; report oracle_queries vs traced "
                  f"backend calls differ on {len(gaps)}:")
            for t, r, b in gaps:
                print(f"    {t}: report {r}, backend {b}")
        total = metrics["trace.setup_s"] + metrics["trace.wall_s"]
        print(f"  traced pass: setup {metrics['trace.setup_s']:.3f} s + tasks "
              f"{metrics['trace.wall_s']:.3f} s; self time share of that total:")
        for layer in tracer_mod.LAYERS:
            v = metrics[f"{layer}.self_s"]
            print(f"    {layer:<14} {v:>10.4f} s  {100 * v / total:5.1f}%")
        print(f"  spans and summary in {OUT.relative_to(ROOT)}/*-{label}.*")
    else:
        metrics, notes, tally = measure(wl, instance, args.size, args.seconds, reference)
        count_errors = []
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} disagree with {SPEC.name}",
              file=sys.stderr)
        return 2
    for k, unit in units.items():
        note = f"  ({notes[k]})" if k in notes else ""
        print(f"  {k:<32} {metrics[k]:>14.6f} {unit}{note}")
    frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'failed_frac':<32} {frac:>14.6f} ratio  ({tally.failed} of {tally.attempted} tasks)")
    if args.workload == "cli_suite":
        print(f"  known defect: {KNOWN_DEFECT}")
    for e in count_errors + tally.errors[:20]:
        print(f"  FAILED {e}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0 and not count_errors and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
