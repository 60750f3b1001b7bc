"""Command-line front-end: reports, determinism, exit codes."""

import argparse
import json
import os
import random
import shlex
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from conftest import random_cpt_net

from kassoc import cli
from kassoc.cli import run
from kassoc.distribution import Cpt
from kassoc.graph import Dag
from kassoc.scenarios import BUILTINS, Scenario, builtin, save

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

    def test_audit_refuses_more_than_twelve_nodes(self, tmp_path, capsys):
        nodes = [f"v{i:02d}" for i in range(13)]
        p = tmp_path / "chain13.json"
        p.write_text(json.dumps({
            "name": "chain13", "nodes": nodes, "params": {}, "notes": "",
            "edges": [f"{a}->{b}" for a, b in zip(nodes, nodes[1:])],
            "payload": {"type": "graph"},
        }))
        code, report, err = invoke(capsys, "audit", "--scenario", str(p))
        assert code == 1 and report is None
        assert err == "error: audits are exhaustive and run on at most 12 nodes " \
                      "(this scenario has 13)\n"

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

    @pytest.mark.parametrize("defect", [
        "cyclic_edges", "cardinality", "cyclic_gaussian",
        "params_list", "coefficients_list", "noise_list",
        "node_not_a_string", "nodes_not_a_list", "name_null",
        "cardinality_float", "parent_cardinality_float", "cardinality_bool",
        "parents_string", "order_not_a_list", "probs_bool", "param_float",
        "notes_not_a_string", "order_permuted",
    ])
    def test_invalid_file_contents_exit_two(self, tmp_path, capsys, defect):
        graph = {"name": "g", "nodes": ["X", "Y"], "edges": [], "payload": {"type": "graph"}}
        if defect == "cardinality_bool":
            # a one-state X, so that true read as 1 would load
            one = Scenario("one", Dag(["X", "Y"], []), "discrete",
                           cpts=(Cpt.prior("X", [F(1)]), Cpt.coin("Y", F(1, 2))))
            doc = save(one)
            doc["payload"]["cpts"][0]["cardinality"] = True
        elif defect in ("cardinality_float", "parent_cardinality_float",
                        "parents_string", "probs_bool", "param_float"):
            doc = save(builtin("example1"))  # CPTs X, Z, then Y given X, Z
            cpts = doc["payload"]["cpts"]
            if defect == "cardinality_float":
                cpts[0]["cardinality"] = 2.5
            elif defect == "parent_cardinality_float":
                cpts[2]["parent_cardinalities"] = [2.9, 2]
            elif defect == "parents_string":
                cpts[2]["parents"] = "XZ"
            elif defect == "probs_bool":
                cpts[0]["rows"][0]["probs"] = [True, False]
            else:
                doc["params"]["p"] = 0.1
        elif defect == "order_not_a_list":
            doc = save(builtin("cancel3"))
            doc["payload"]["order"] = {v: i for i, v in enumerate(doc["payload"]["order"])}
        elif defect == "order_permuted":
            doc = save(builtin("cancel3"))
            doc["payload"]["order"] = doc["payload"]["order"][::-1]
        elif defect == "node_not_a_string":
            doc = {**graph, "nodes": ["X", 1]}
        elif defect == "nodes_not_a_list":
            doc = {**graph, "nodes": "XYZ"}
        elif defect == "name_null":
            doc = {**graph, "name": None}
        elif defect == "notes_not_a_string":
            doc = save(builtin("example1"))
            doc["notes"] = {"a": [1]}
        elif defect == "cyclic_edges":
            doc = save(builtin("example1"))
            doc["edges"] = ["X->Y", "Y->X"]
        elif defect == "cardinality":
            doc = save(builtin("example1"))
            doc["payload"]["cpts"][0]["cardinality"] = "x"
        elif defect == "params_list":
            doc = save(builtin("example1"))
            doc["params"] = ["p"]
        elif defect == "cyclic_gaussian":
            doc = save(builtin("cancel3"))
            doc["payload"]["coefficients"]["Y->X"] = "1/1"
        else:
            doc = save(builtin("cancel3"))
            key = defect.split("_")[0]
            doc["payload"][key] = list(doc["payload"][key])
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        code, report, err = invoke(capsys, "mb", "--scenario", str(p), "--target", "X")
        assert code == 2
        assert report is None
        assert err.startswith("error: ") and err.count("\n") == 1
        if defect == "order_permuted":
            assert "gaussian order" in err

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


def readme_id(argv):
    """The subcommand; a run on a G-test oracle (``--samples`` on any
    subcommand but ``sample``) gets a ``-gtest`` suffix, so ids stay unique."""
    gtest = "--samples" in argv and argv[0] != "sample"
    return argv[0] + ("-gtest" if gtest else "")


@pytest.mark.parametrize("argv", readme_commands(), ids=readme_id)
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

    def test_reports_do_not_depend_on_the_hash_seed(self, tmp_path):
        # two 7-node files: one fails AF, 2-AF and OF, the other OF and 2-OF
        files = []
        for seed in (0, 9):
            dag, cpts = random_cpt_net(random.Random(f"hash-seed:{seed}"), 7, 10, 3)
            path = tmp_path / f"net{seed}.json"
            path.write_text(json.dumps(save(Scenario(path.stem, dag, "discrete",
                                                     cpts=tuple(cpts)))))
            files.append(str(path))
        script = (
            "import contextlib, io, sys\n"
            "from kassoc.cli import run\n"
            "from kassoc.scenarios import BUILTINS\n"
            "runs = [['audit', '--scenario', 'builtin:' + n] for n in sorted(BUILTINS)]\n"
            "runs += [['audit', '--scenario', path] for path in sys.argv[1:]]\n"
            "runs += [['sp', '--scenario', path] for path in sys.argv[1:]]\n"
            "runs += [['assoc', '--scenario', path, '--target', 'V0'] for path in sys.argv[1:]]\n"
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
                [sys.executable, "-c", script, *files], env=env,
                capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].count('"command": "audit"') == len(BUILTINS) + len(files)
        assert outputs[0].count('"command": "sp"') == 1 + len(files)
        assert outputs[0].count('"command": "assoc"') == len(files)

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
