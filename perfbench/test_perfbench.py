"""Self-tests of the benchmark at tiny size.

    python3 -m pytest perfbench -q

Each test runs ``run.py`` in a subprocess, as the benchmark is run for
real, on the tiny inputs (``--size tiny``), whose digests are also in
reference.json.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, env=None, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--size", "tiny", "--seconds", "0.3", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
        env={**os.environ, **(env or {})},
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_prints_with_its_unit(workload, trace, kind):
    proc = bench("--workload", workload, "--seed", "5", "--trace", trace)
    out = result(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    assert got == units(kind)
    for name, unit in got.items():  # the human-readable lines name them too
        assert any(line.split()[:1] == [name] and f" {unit}" in line
                   for line in proc.stdout.splitlines()), name
    assert "failed_frac" in proc.stdout


def copy_benchmark(tmp_path, *, with_sources):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"] + (["src"] if with_sources else []):
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / "perfbench" / "run.py"


def test_corrupted_reference_digest_fails_the_task(tmp_path):
    script = copy_benchmark(tmp_path, with_sources=True)
    ref = tmp_path / "perfbench" / "reference.json"
    doc = json.loads(ref.read_text())
    entries = doc["digests"]["tiny"]["discrete_exact"]["5"]
    task = sorted(entries)[0]
    entries[task][1] = "0" * 16
    ref.write_text(json.dumps(doc))
    proc = bench("--workload", "discrete_exact", "--seed", "5", "--trace", "0",
                 cwd=tmp_path, script=script)
    out = result(proc)
    assert out["correct"] is False
    assert 0 < out["failed"] < out["attempted"]
    frac = next(line.split()[1] for line in proc.stdout.splitlines()
                if line.split()[:1] == ["failed_frac"])
    assert float(frac) > 0
    assert task in proc.stderr


def counts(out):
    return {k: v["value"] for k, v in out["metrics"].items() if v["unit"] == "count"}


@pytest.mark.parametrize("workload", ["sp_graph", "discrete_exact"])
def test_counts_repeat_across_processes_and_hash_seeds(workload):
    a = result(bench("--workload", workload, "--seed", "2", "--trace", "1",
                     env={"PYTHONHASHSEED": "1"}))
    b = result(bench("--workload", workload, "--seed", "2", "--trace", "1",
                     env={"PYTHONHASHSEED": "2"}))
    assert counts(a) == counts(b)


def test_cli_counts_repeat_across_processes():
    # the audit's query counts follow Dag.edges iteration order, so the two
    # processes share a hash seed here (see the known defect in README.md)
    env = {"PYTHONHASHSEED": "3"}
    a = result(bench("--workload", "cli_suite", "--seed", "2", "--trace", "1", env=env))
    b = result(bench("--workload", "cli_suite", "--seed", "2", "--trace", "1", env=env))
    assert counts(a) == counts(b)
    assert a["metrics"]["cli.unreported_backend_calls"]["value"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    script = copy_benchmark(tmp_path, with_sources=False)
    proc = bench("--workload", "sp_graph", "--seed", "1", "--trace", "0",
                 cwd=tmp_path, script=script)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
