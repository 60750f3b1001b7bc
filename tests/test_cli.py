"""Command-line front-end: reports, determinism, exit codes."""

import argparse
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from kassoc import cli
from kassoc.cli import run
from kassoc.scenarios import BUILTINS, builtin, save

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


class TestMb:
    def test_example1_modified(self, capsys):
        code, report, err = invoke(
            capsys, "mb", "--scenario", "builtin:example1",
            "--target", "Y", "--mode", "modified",
        )
        assert code == 0
        assert report["result"]["blanket"] == ["X", "Z"]
        assert "MB(Y)" in err

    def test_classic_failure_documented(self, capsys):
        code, report, _ = invoke(
            capsys, "mb", "--scenario", "builtin:example1",
            "--target", "Y", "--mode", "classic",
        )
        assert code == 0
        assert report["result"]["blanket"] == []

    def test_trace_included_on_request(self, capsys):
        _, bare, _ = invoke(
            capsys, "mb", "--scenario", "builtin:example1", "--target", "Y",
        )
        _, traced, _ = invoke(
            capsys, "mb", "--scenario", "builtin:example1", "--target", "Y",
            "--trace",
        )
        assert "trace" not in bare["result"]
        assert traced["result"]["trace"]

    def test_trace_does_not_leak_into_the_next_run(self, capsys):
        # test_trace_included_on_request in the other order: the parser is
        # built once and reused, so a --trace run must leave no default behind
        _, traced, _ = invoke(
            capsys, "mb", "--scenario", "builtin:example1", "--target", "Y",
            "--trace",
        )
        _, bare, _ = invoke(
            capsys, "mb", "--scenario", "builtin:example1", "--target", "Y",
        )
        assert traced["result"]["trace"]
        assert "trace" not in bare["result"]


class TestOrient:
    def test_example2_collider(self, capsys):
        code, report, _ = invoke(
            capsys, "orient", "--scenario", "builtin:example2",
            "--center", "Y", "--left", "X,Z", "--right", "W",
        )
        assert code == 0
        v = report["result"]["verdict"]
        assert v["outcome"] == "collider"
        assert sorted(v["edges"]) == ["W->Y", "X->Y", "Z->Y"]

    def test_precondition_failure_exits_one(self, capsys):
        # a well-formed query whose premise (the centre is associated to
        # each side) fails is an analysis failure, not malformed input
        code, report, err = invoke(
            capsys, "orient", "--scenario", "builtin:example2",
            "--center", "Y", "--left", "X", "--right", "W",
        )
        assert code == 1
        assert report is None
        assert err.startswith("error: orientation precondition failed: centre Y "
                              "is not associated to side set")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("left,right", [
        (",", "W"), ("X,Z,W", "W"), ("Y", "W"), ("X", "X"), ("X,X", "W"), ("Q", "W"),
    ], ids=["empty-side", "three-nodes", "centre-in-side", "overlapping-sides",
            "repeated-node", "unknown-variable"])
    def test_malformed_query_exits_two_with_one_line(self, capsys, left, right):
        code, report, err = invoke(
            capsys, "orient", "--scenario", "builtin:example2",
            "--center", "Y", "--left", left, "--right", right,
        )
        assert code == 2
        assert report is None
        assert err.startswith("error: ") and err.count("\n") == 1


class TestAssoc:
    def test_example1_target_y(self, capsys):
        code, report, _ = invoke(
            capsys, "assoc", "--scenario", "builtin:example1", "--target", "Y",
        )
        assert code == 0
        kinds = {
            (r["kind"], tuple(r["partners"])): r["holds"]
            for r in report["result"]["associations"]
        }
        assert kinds == {("strict-two", ("X", "Z")): True}


class TestSpAuditSample:
    def test_sp_example2(self, capsys):
        code, report, _ = invoke(capsys, "sp", "--scenario", "builtin:example2")
        assert code == 0
        assert report["result"]["minimum_edges"] == 3
        for m in report["result"]["minimizers"]:
            assert m["permutation"][-1] == "Y"

    def test_audit_example1(self, capsys):
        code, report, err = invoke(
            capsys, "audit", "--scenario", "builtin:example1",
        )
        assert code == 0
        af = next(
            r for r in report["result"]["results"] if r["assumption"] == "AF"
        )
        assert not af["holds"]
        assert af["witness"]["separating_set"] == []
        assert "AF=FAIL" in err

    def test_sample_deterministic(self, capsys):
        _, a, _ = invoke(
            capsys, "sample", "--scenario", "builtin:example1",
            "--samples", "20", "--seed", "4",
        )
        _, b, _ = invoke(
            capsys, "sample", "--scenario", "builtin:example1",
            "--samples", "20", "--seed", "4",
        )
        assert a["result"]["rows"] == b["result"]["rows"]

    def test_sample_rejects_gaussian(self, capsys):
        code, _, err = invoke(
            capsys, "sample", "--scenario", "builtin:cancel3",
        )
        assert code == 1


class TestScenarioLoading:
    def test_unknown_builtin_exits_two(self, capsys):
        code, _, err = invoke(
            capsys, "mb", "--scenario", "builtin:nope", "--target", "Y",
        )
        assert code == 2
        assert "nope" in err

    def test_file_scenario(self, tmp_path, capsys):
        p = tmp_path / "ex1.json"
        p.write_text(json.dumps(save(builtin("example1"))))
        code, report, _ = invoke(
            capsys, "mb", "--scenario", str(p), "--target", "Y",
        )
        assert code == 0
        assert report["result"]["blanket"] == ["X", "Z"]

    def test_malformed_file_exits_two(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"name": "x", "nodes": ["A"]}')
        code, _, err = invoke(capsys, "mb", "--scenario", str(p), "--target", "A")
        assert code == 2
        assert "edges" in err  # diagnostic names the offending field

    @pytest.mark.parametrize("defect", ["cyclic_edges", "cardinality", "cyclic_gaussian"])
    def test_invalid_file_contents_exit_two(self, tmp_path, capsys, defect):
        if defect == "cyclic_edges":
            doc = save(builtin("example1"))
            doc["edges"] = ["X->Y", "Y->X"]
        elif defect == "cardinality":
            doc = save(builtin("example1"))
            doc["payload"]["cpts"][0]["cardinality"] = "x"
        else:
            doc = save(builtin("cancel3"))
            doc["payload"]["coefficients"]["Y->X"] = "1/1"
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        code, report, err = invoke(capsys, "mb", "--scenario", str(p), "--target", "X")
        assert code == 2
        assert report is None
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_gaussian_payload_off_the_graph_exits_two(self, tmp_path, capsys):
        doc = save(builtin("cancel3"))
        del doc["payload"]["coefficients"]["X->Y"]  # the graph keeps X->Y
        p = tmp_path / "mismatched.json"
        p.write_text(json.dumps(doc))
        code, report, err = invoke(capsys, "audit", "--scenario", str(p))
        assert code == 2
        assert report is None
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "gaussian coefficients" in err

    def test_unknown_variable_exits_two(self, capsys):
        code, _, _ = invoke(
            capsys, "mb", "--scenario", "builtin:example1", "--target", "Q",
        )
        assert code == 2


class TestOutOfRangeNumbers:
    @pytest.mark.parametrize("argv", [
        ["assoc", "--scenario", "builtin:example1", "--target", "Y", "--budget", "-1"],
        ["orient", "--scenario", "builtin:example2", "--center", "Y",
         "--left", "X,Z", "--right", "W", "--budget", "-1"],
        ["mb", "--scenario", "builtin:example1", "--target", "Y",
         "--samples", "100", "--alpha", "2"],
        ["mb", "--scenario", "builtin:example1", "--target", "Y", "--samples", "-5"],
        ["mb", "--scenario", "builtin:example1", "--target", "Y", "--samples", "0"],
        ["sample", "--scenario", "builtin:example1", "--samples", "0"],
        ["mb", "--scenario", "builtin:example1", "--target", "Y", "--alpha", "2"],
        ["sample", "--scenario", "builtin:example1", "--alpha", "0"],
    ], ids=["assoc-budget", "orient-budget", "mb-alpha", "mb-samples-negative",
            "mb-samples-zero", "sample-samples-zero", "mb-alpha-exact", "sample-alpha"])
    def test_exits_two_with_one_line(self, capsys, argv):
        code, report, err = invoke(capsys, *argv)
        assert code == 2
        assert report is None
        assert err.startswith("error: ") and err.count("\n") == 1


# Each subcommand's options: exactly the ones its ``_cmd_*`` function reads.
ORACLE_OPTIONS = {"--samples", "--seed", "--alpha"}
OPTIONS = {
    "assoc": {"--budget", *ORACLE_OPTIONS, "--target"},
    "orient": {"--budget", *ORACLE_OPTIONS, "--center", "--left", "--right"},
    "mb": {*ORACLE_OPTIONS, "--target", "--mode", "--trace"},
    "sp": ORACLE_OPTIONS,
    "audit": set(),
    "sample": {"--samples", "--seed"},
}


class TestParser:
    def test_built_once(self):
        assert cli._parser() is cli._parser()

    def test_each_subcommand_takes_only_the_options_it_reads(self):
        sub = next(a for a in cli._parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        declared = {
            name: {s for a in p._actions for s in a.option_strings if s.startswith("--")}
            for name, p in sub.choices.items()
        }
        assert declared == {
            name: {"--help", "--scenario", "--out", *own} for name, own in OPTIONS.items()
        }

    @pytest.mark.parametrize("argv", [
        ["audit", "--scenario", "builtin:example1", "--budget", "1"],
        ["audit", "--scenario", "builtin:example1", "--samples", "5"],
        ["audit", "--scenario", "builtin:example1", "--seed", "1"],
        ["audit", "--scenario", "builtin:example1", "--alpha", "0.05"],
        ["sp", "--scenario", "builtin:example1", "--budget", "1"],
        ["mb", "--scenario", "builtin:example1", "--target", "Y", "--budget", "1"],
        ["sample", "--scenario", "builtin:example1", "--budget", "1"],
        ["sample", "--scenario", "builtin:example1", "--alpha", "0.05"],
    ], ids=["audit-budget", "audit-samples", "audit-seed", "audit-alpha", "sp-budget",
            "mb-budget", "sample-budget", "sample-alpha"])
    def test_option_the_subcommand_does_not_read_exits_two(self, capsys, argv):
        code, report, err = invoke(capsys, *argv)
        assert code == 2
        assert report is None
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("argv", [
        ["mb", "--scenario", "builtin:example1"],
        ["assoc", "--scenario", "builtin:example1", "--target", "Y", "--budget", "abc"],
        ["frobnicate", "--scenario", "builtin:example1"],
        [],
    ], ids=["missing-target", "budget-not-a-number", "unknown-subcommand", "no-subcommand"])
    def test_usage_error_exits_two_with_one_line(self, capsys, argv):
        code, report, err = invoke(capsys, *argv)
        assert code == 2
        assert report is None
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["mb", "--help"])
        assert exc.value.code == 0
        assert "--target" in capsys.readouterr().out


def readme_commands():
    """The ``kassoc ...`` lines of the README's "Command line" block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("kassoc ")]


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
def test_readme_command_line_runs(capsys, argv):
    code, report, _ = invoke(capsys, *argv)
    assert code == 0
    assert report["command"] == argv[0]


class TestGoldenStability:
    def test_identical_invocations_identical_reports(self, capsys):
        args = ("sp", "--scenario", "builtin:example1")
        _, a, _ = invoke(capsys, *args)
        _, b, _ = invoke(capsys, *args)
        a.pop("wall_time_s"), b.pop("wall_time_s")
        assert a == b

    def test_reports_do_not_depend_on_the_hash_seed(self):
        script = (
            "import contextlib, io\n"
            "from kassoc.cli import run\n"
            "from kassoc.scenarios import BUILTINS\n"
            "runs = [['audit', '--scenario', 'builtin:' + n] for n in sorted(BUILTINS)]\n"
            "runs += [['sp', '--scenario', 'builtin:example2'],\n"
            "         ['mb', '--scenario', 'builtin:example2', '--target', 'Y']]\n"
            "for argv in runs:\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):\n"
            "        assert run(argv) == 0\n"
            "    for line in out.getvalue().splitlines():\n"
            "        if '\"wall_time_s\"' not in line:\n"
            "            print(line)\n"
        )
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (str(SRC), env.get("PYTHONPATH")) if p
            )
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].count('"command": "audit"') == len(BUILTINS)

    def test_out_flag_writes_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, stdout_report, _ = invoke(
            capsys, "mb", "--scenario", "builtin:example1",
            "--target", "Y", "--out", str(out),
        )
        assert code == 0
        assert stdout_report is None
        assert json.loads(out.read_text())["result"]["blanket"] == ["X", "Z"]


class TestSampledOracle:
    def test_mb_with_gtest_backend(self, capsys):
        code, report, _ = invoke(
            capsys, "mb", "--scenario", "builtin:example1", "--target", "Y",
            "--samples", "10000", "--seed", "0", "--alpha", "0.01",
        )
        assert code == 0
        assert report["result"]["blanket"] == ["X", "Z"]
