"""Command-line front-end: reports, determinism, exit codes."""

import argparse
import hashlib
import json
import math
import os
import random
import shlex
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from conftest import child_env, random_cpt_net
from hypothesis import given, settings
from hypothesis import strategies as st

from kassoc import cli
from kassoc.cli import run
from kassoc.distribution import MAX_ROWS, Cpt
from kassoc.graph import Dag
from kassoc.oracle import OracleError
from kassoc.scenarios import BUILTINS, Scenario, builtin, save

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def reports_are_json_dumps_text(request, monkeypatch):
    """Every report a test writes is also written by ``json.dumps``, the
    writer's slow twin, and the two texts must be equal."""
    if request.cls is TestReportWriter:  # it compares the bare writer
        return
    write = cli._json

    def checked(o, pad=""):
        text = write(o, pad)
        if not pad:
            assert text == json.dumps(o, sort_keys=True, indent=2)
        return text
    monkeypatch.setattr(cli, "_json", checked)


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


# sha256 of each builtin's ``kassoc sp`` stdout, the wall_time_s line left
# out: exact, then with --samples 500 --seed 3, whose report also has the
# sampling block (None: not a discrete scenario)
SP_DIGESTS = {
    "example1": (
        "36b7614a3e01b3de81759d6315236387896d01483360b631ad9a6cc20bb5177a",
        "0f371fa0573542de03d4f8f6333ba64109c3e01b654b4c2df0f92a92c18ffba9"),
    "example2": (
        "f7a6bbcfb704bdfb4801c526f30c45cec446d57743dcdd5f911984451454cf42",
        "e3b28270c9b72c81000a2f0d6bc7f8535ff23360f795af961f0f7e593934cdf2"),
    "chain": (
        "b384a41da7d8cea7276795385c61c09186b86d3e39871f19355bb1d33a30d556",
        "3f92db6f1c2c1f18827517209bd3922300415f9ddc7b918523ae9b6ee934b91b"),
    "fork": (
        "ace399b387779c36e239507319bf4b19bd88691e1f17761e243d10f18696ed2d",
        "fabda8464fc2bf83cfe5a7fc9cb0c9dae1dcab9eb01ea757123a8da3790277a9"),
    "collider": (
        "39a0331b4f9d01ae31a5024e2a03e87fd9a149e07c7b218b29836c4654d8ee5b",
        "299969d8e1499d3617d91fb5fe93b63c243cc6bcf86bfd9e4577df594d721799"),
    "xor_chain": (
        "2f5a51b0e69b5178a0cfec783b55475b6501766b3e9fa88bd2c32097fe293be4",
        "7c215bdfe4ecef7c9aab583f02e3da13a589367fc5cb16d98f3f31eb00401fdd"),
    "noncollider_xor": (
        "950efce0380f2838f5f3ddec9c5eda85bdb1376199013b67abdeb900f81c9cd1",
        "af1fd52db7184f79197e52fb1df809aace36a7c61230bda2380142a169307ecf"),
    "transitivity_failure": (
        "e4187bb1e6c0f62849acc88b423e25cdf40928f1f58cd8d8e7db34a4335f072a",
        "7270820774a2ace976135eb6deffe0fc5c703c11a80528cbb8267a7e94808852"),
    "coins": (
        "c4b5163892759657679aea08cc6c448d13a2f56f0d67cf4129bb68e1b683c8dd",
        "9a4acb4f8dafd505aaa67f8520cf7f27f7833947987661217d8142369bbaaafe"),
    "cancel3": (
        "3589feca10096dd555834e16231a3d81bf2f29e9ef013114534b72ac943a1264",
        None),
    "cancel4": (
        "f5f86237caddd93d0ad4410be50fdad0bce5839273428bfbb48b9af9e4d33df9",
        None),
}


class TestSpTraffic:
    def test_every_builtin_is_pinned(self):
        assert list(SP_DIGESTS) == list(BUILTINS)
        assert [name for name, (_, sampled) in SP_DIGESTS.items() if sampled is None] == [
            name for name in BUILTINS if builtin(name).kind != "discrete"]

    @pytest.mark.parametrize("name, sampled", [
        (name, sampled) for name, digests in SP_DIGESTS.items()
        for sampled, digest in enumerate(digests) if digest is not None],
        ids=lambda v: {0: "exact", 1: "gtest"}.get(v, v))
    def test_one_question_per_pair_and_conditioning_set(self, capsys, name, sampled):
        extra = ("--samples", "500", "--seed", "3") if sampled else ()
        assert run(["sp", "--scenario", f"builtin:{name}", *extra]) == 0
        out = capsys.readouterr().out
        n = len(builtin(name).dag.nodes)
        assert json.loads(out)["oracle_queries"] == n * (n - 1) * 2 ** n // 8
        text = "".join(line for line in out.splitlines(True) if '"wall_time_s"' not in line)
        assert hashlib.sha256(text.encode()).hexdigest() == SP_DIGESTS[name][sampled]


class TestSamplingBlock:
    """A report that a G-test oracle answered names the sample it drew and
    the level it tested at; an exact report has no such block."""

    COMMANDS = {
        "assoc": ["--target", "Y"],
        "orient": ["--center", "Y", "--left", "X,Z", "--right", "W"],
        "mb": ["--target", "Y"],
        "sp": [],
    }

    @pytest.mark.parametrize("command", COMMANDS)
    def test_only_a_sampled_report_has_it(self, capsys, command):
        argv = [command, "--scenario", "builtin:example2", *self.COMMANDS[command]]
        code, report, err = invoke(capsys, *argv, "--samples", "2000", "--seed", "9",
                                   "--alpha", "0.05")
        assert code == 0, err
        assert report["sampling"] == {"samples": 2000, "seed": 9, "alpha": 0.05}
        code, report, err = invoke(capsys, *argv, "--seed", "9", "--alpha", "0.05")
        assert code == 0, err
        assert "sampling" not in report


DIGITS = 5000  # past the interpreter's default integer digit limit (4300), where it has one

# rational literals that Fraction() reads but save never writes
LITERALS = {"literal_exponent": "1e10000000", "literal_decimal": "0.5",
            "literal_underscore": "1_0/2_0"}
# a CPT child that is not a JSON string
CHILDREN = {"child_int": 5, "child_list": ["X"]}


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
        "document_list", "document_null", "document_string", "payload_list",
        "not_utf8", "nested_deep", "parent_cardinalities_longer",
        "cardinality_zero", "cardinality_negative", "parent_cardinality_zero",
        "literal_exponent", "literal_decimal", "literal_underscore", "json_integer_digits",
        "child_int", "child_list",
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
        elif defect in ("cardinality_zero", "cardinality_negative"):
            doc = save(builtin("example1"))
            cpt = doc["payload"]["cpts"][0]
            assert cpt["child"] == "X"
            cpt["cardinality"] = 0 if defect == "cardinality_zero" else -1
            cpt["rows"] = [{"given": [], "probs": []}]
        elif defect == "parent_cardinality_zero":
            doc = save(builtin("example1"))
            cpt = doc["payload"]["cpts"][2]
            cpt["parent_cardinalities"] = [2, 0]
            cpt["rows"] = []
        elif defect == "parent_cardinalities_longer":
            # Y given X alone, with X -> Y only, but a second parent
            # cardinality and four rows to match it
            doc = save(builtin("example1"))
            doc["edges"] = ["X->Y"]
            cpt = doc["payload"]["cpts"][2]
            assert cpt["child"] == "Y" and cpt["parents"] == ["X", "Z"]
            cpt["parents"] = ["X"]
        elif defect.startswith("literal_"):
            # an exponent is refused as written, never expanded
            doc = save(builtin("example1"))
            doc["payload"]["cpts"][0]["rows"][0]["probs"][0] = LITERALS[defect]
        elif defect == "order_not_a_list":
            doc = save(builtin("cancel3"))
            doc["payload"]["order"] = {v: i for i, v in enumerate(doc["payload"]["order"])}
        elif defect == "order_permuted":
            doc = save(builtin("cancel3"))
            doc["payload"]["order"] = doc["payload"]["order"][::-1]
        elif defect.startswith("document_"):
            doc = {"document_list": [], "document_null": None, "document_string": "x"}[defect]
        elif defect == "payload_list":
            doc = {**graph, "payload": []}
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
        elif defect in ("child_int", "child_list"):
            doc = save(builtin("example1"))
            doc["payload"]["cpts"][0]["child"] = CHILDREN[defect]
        elif defect == "params_list":
            doc = save(builtin("example1"))
            doc["params"] = ["p"]
        elif defect == "cyclic_gaussian":
            doc = save(builtin("cancel3"))
            doc["payload"]["coefficients"]["Y->X"] = "1/1"
        elif defect in ("not_utf8", "nested_deep", "json_integer_digits"):
            doc = None
        else:
            doc = save(builtin("cancel3"))
            key = defect.split("_")[0]
            doc["payload"][key] = list(doc["payload"][key])
        p = tmp_path / "bad.json"
        if defect == "not_utf8":
            p.write_bytes(b'{"name": "\xff"}')
        elif defect == "nested_deep":
            p.write_text("[" * 200_000 + "]" * 200_000)  # past the parser's recursion limit
        elif defect == "json_integer_digits":
            # a JSON number, not a string, as a parameter: past the digit
            # limit the parser itself refuses it, else load does
            text = json.dumps(save(builtin("example1")))
            p.write_text(text.replace('"params": {', f'"params": {{"big": {"9" * DIGITS}, ', 1))
        else:
            p.write_text(json.dumps(doc))
        code, report, err = invoke(capsys, "mb", "--scenario", str(p), "--target", "X")
        assert code == 2
        assert report is None
        assert err.startswith("error: ") and err.count("\n") == 1
        if defect == "order_permuted":
            assert "gaussian order" in err
        elif defect.startswith("document_"):
            assert err.endswith(": scenario document must be a JSON object\n")
        elif defect == "payload_list":
            assert err.endswith(": payload must be a JSON object\n")
        elif defect == "not_utf8":
            assert "scenario file is not valid JSON: 'utf-8' codec can't decode" in err
        elif defect == "nested_deep":
            assert err.endswith(": scenario file nests too deeply to parse\n")
        elif defect == "json_integer_digits":
            if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < DIGITS:
                assert ": scenario file holds a number too long to read: " in err
        elif defect.startswith("literal_"):
            assert err.endswith(f": bad rational literal {LITERALS[defect]!r}\n")
        elif defect == "parent_cardinalities_longer":
            assert err.endswith(
                "bad probability table: CPT for Y: 1 parents but 2 parent cardinalities\n")
        elif defect in ("cardinality_bool", "cardinality_float", "cardinality"):
            value = {"cardinality_bool": True, "cardinality_float": 2.5,
                     "cardinality": "x"}[defect]
            assert err.endswith("bad probability table: CPT for X: cardinality of X "
                                f"must be an int, not {value!r}\n")
        elif defect in ("child_int", "child_list"):
            assert err.endswith(f": CPT child {CHILDREN[defect]!r} must be a JSON string\n")
        elif defect in ("cardinality_zero", "cardinality_negative", "parent_cardinality_zero"):
            child, parent, value = {"cardinality_zero": ("X", "X", 0),
                                    "cardinality_negative": ("X", "X", -1),
                                    "parent_cardinality_zero": ("Y", "Z", 0)}[defect]
            assert err.endswith(f"bad probability table: CPT for {child}: cardinality of "
                                f"{parent} must be positive, not {value}\n")

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


class TestSampleCountBound:
    """A ``--samples`` count above ``MAX_ROWS`` is refused by the parser,
    before a scenario is loaded or anything drawn."""

    @pytest.mark.parametrize("command", [
        ["assoc", "--target", "Y"],
        ["orient", "--center", "Y", "--left", "X", "--right", "Z"],
        ["mb", "--target", "Y"],
        ["sp"],
        ["sample"],
    ], ids=["assoc", "orient", "mb", "sp", "sample"])
    @pytest.mark.parametrize("count", [str(MAX_ROWS + 1), "10000000000000",
                                       "99999999999999999999"])
    def test_exits_two_with_one_pinned_line(self, capsys, command, count):
        argv = [command[0], "--scenario", "builtin:example1", *command[1:],
                "--samples", count]
        code, report, err = invoke(capsys, *argv)
        assert code == 2
        assert report is None
        assert err == (f"error: kassoc {command[0]}: argument --samples: "
                       f"at most {MAX_ROWS} samples\n")

    def test_the_bound_is_checked_before_the_scenario_is_loaded(self, capsys):
        code, _, err = invoke(capsys, "mb", "--scenario", "builtin:nope", "--target", "Y",
                              "--samples", "99999999999999999999")
        assert code == 2
        assert "argument --samples" in err and "nope" not in err


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
        # ``_COMMANDS`` keeps every subparser under its name, and so does
        # each subparser's ``command`` default
        assert cli._COMMANDS == sub.choices
        assert all(p.get_default("command") == name for name, p in cli._COMMANDS.items())
        declared = {
            name: {s for a in p._actions for s in a.option_strings if s.startswith("--")}
            for name, p in sub.choices.items()
        }
        assert declared == {
            name: {"--help", "--scenario", "--out", *own} for name, own in OPTIONS.items()
        }

    @pytest.mark.parametrize("argv, extra", [
        (["audit", "--scenario", "builtin:example1"], ["--budget", "1"]),
        (["audit", "--scenario", "builtin:example1"], ["--samples", "5"]),
        (["audit", "--scenario", "builtin:example1"], ["--seed", "1"]),
        (["audit", "--scenario", "builtin:example1"], ["--alpha", "0.05"]),
        (["sp", "--scenario", "builtin:example1"], ["--budget", "1"]),
        (["mb", "--scenario", "builtin:example1", "--target", "Y"], ["--budget", "1"]),
        (["sample", "--scenario", "builtin:example1"], ["--budget", "1"]),
        (["sample", "--scenario", "builtin:example1"], ["--alpha", "0.05"]),
        (["mb", "--scenario", "builtin:example1", "--target", "Y"], ["--foo", "1", "extra"]),
    ], ids=["audit-budget", "audit-samples", "audit-seed", "audit-alpha", "sp-budget",
            "mb-budget", "sample-budget", "sample-alpha", "mb-unknown-and-stray"])
    def test_option_the_subcommand_does_not_read_exits_two(self, capsys, argv, extra):
        """The leftover words are reported by the top parser, in one pinned
        line that names ``kassoc``, not the subcommand."""
        code, report, err = invoke(capsys, *argv, *extra)
        assert code == 2
        assert report is None
        assert err == f"error: kassoc: unrecognized arguments: {' '.join(extra)}\n"

    @pytest.mark.parametrize("argv", [
        ["mb", "--scenario", "builtin:example1"],
        ["assoc", "--scenario", "builtin:example1", "--target", "Y", "--budget", "abc"],
        ["frobnicate", "--scenario", "builtin:example1"],
        [],
        ["--", "mb", "--scenario", "builtin:example1", "--target", "Y"],
    ], ids=["missing-target", "budget-not-a-number", "unknown-subcommand", "no-subcommand",
            "leading-double-dash"])
    def test_usage_error_exits_two_with_one_line(self, capsys, argv):
        code, report, err = invoke(capsys, *argv)
        assert code == 2
        assert report is None
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["mb", "--scenario", "builtin:example1", "--target", "Y"],
        ["sp", "--scenario", "builtin:example2"],
        ["audit", "--scenario", "builtin:cancel4"],
    ], ids=["mb", "sp", "audit"])
    def test_a_final_double_dash_only_ends_the_options(self, capsys, argv):
        """The report, exit code and stderr are those of the argv without
        it, ``wall_time_s`` aside."""
        code, report, err = invoke(capsys, *argv)
        dash_code, dash_report, dash_err = invoke(capsys, *argv, "--")
        report.pop("wall_time_s"), dash_report.pop("wall_time_s")
        assert code == 0
        assert (dash_code, dash_report, dash_err) == (code, report, err)

    def test_only_one_final_double_dash_is_dropped(self, capsys):
        code, report, err = invoke(capsys, "mb", "--scenario", "builtin:example1",
                                   "--target", "Y", "--", "--")
        assert (code, report) == (2, None)
        assert err == "error: kassoc: unrecognized arguments: --\n"

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["mb", "--help"])
        assert exc.value.code == 0
        assert "--target" in capsys.readouterr().out


class TestRunBoundary:
    @pytest.mark.parametrize("analysis, argv", [
        ("markov_blanket", ["mb", "--scenario", "builtin:example1", "--target", "Y"]),
        ("sparsest_permutations", ["sp", "--scenario", "builtin:example1"]),
        ("audit_scenario", ["audit", "--scenario", "builtin:example1"]),
        ("weak_associations", ["assoc", "--scenario", "builtin:example1", "--target", "Y"]),
    ], ids=["mb", "sp", "audit", "assoc"])
    def test_an_oracle_error_exits_one_with_its_text(self, capsys, monkeypatch, analysis, argv):
        def refuse(*args, **kwargs):
            raise OracleError("no such query")
        monkeypatch.setattr(cli, analysis, refuse)
        code, report, err = invoke(capsys, *argv)
        assert (code, report, err) == (1, None, "error: no such query\n")

    def test_a_value_json_cannot_write_raises(self, monkeypatch):
        # no str() fallback: a set would be written in hash-seed order
        class Report:
            results = ()

            def to_dict(self):
                return {"holds": {"AF", "OF"}}
        monkeypatch.setattr(cli, "audit_scenario", lambda scenario: Report())
        with pytest.raises(TypeError, match="set is not JSON serializable"):
            run(["audit", "--scenario", "builtin:example1"])


def corpus(name):
    """Each command on builtin ``name``, ``mb`` with ``--trace``; on a
    discrete builtin, each command that takes ``--samples`` also with it."""
    sc = builtin(name)
    spec = ["--scenario", f"builtin:{name}"]
    a, b, c = sc.dag.nodes[:3]
    runs = [["audit", *spec], ["sp", *spec], ["assoc", *spec, "--target", b],
            ["orient", *spec, "--center", b, "--left", a, "--right", c],
            *(["mb", *spec, "--target", b, "--mode", mode, "--trace"]
              for mode in ("modified", "classic"))]
    if sc.kind == "discrete":
        sampled = ["--samples", "400", "--seed", "2"]
        runs += [argv + sampled for argv in runs if argv[0] != "audit"]
        runs += [["sample", *spec], ["sample", *spec, "--samples", "50", "--seed", "4"]]
    return runs


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_every_command_writes_json_dumps_text(capsys, name):
    # reports_are_json_dumps_text compares each report with json.dumps; an
    # orientation whose precondition fails (exit 1) writes no report
    runs = corpus(name)
    for argv in runs:
        code, report, err = invoke(capsys, *argv)
        if (code, argv[0]) != (1, "orient"):
            assert (code, report["command"]) == (0, argv[0]), err
    assert len(runs) == (6 if builtin(name).kind == "gaussian" else 13)


def json_values(leaves):
    """Nested lists, tuples and dicts over ``leaves``, with str keys that
    need escaping and keys of the other types json accepts or refuses."""
    text = st.text(alphabet='"\\/\x00\x08\x1f\x7f\n\t a\xe9€\ud800\U0001f600')
    keys = st.one_of(text, st.integers(-3, 3), st.booleans(), st.none(), st.floats(),
                     st.tuples(st.integers()))
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(text, inner, max_size=4), st.dictionaries(keys, inner, max_size=3),
        ),
        max_leaves=20,
    )


SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(10 ** 40), 10 ** 40),
    st.floats(), st.sampled_from([-0.0, math.nan, math.inf, -math.inf]),
    st.text(), st.text(alphabet='"\\\x00\x1f\n\xe9\U0001f600'),
)
# the lists that _json joins with no Python call per item, and near misses
FLAT_LISTS = st.one_of(st.lists(st.text()), st.lists(st.integers()),
                       st.lists(st.integers()).map(tuple),
                       st.lists(st.one_of(st.integers(), st.booleans(), st.floats())))
# a set, a complex number and a Fraction: values json cannot write
UNWRITABLE = st.one_of(st.frozensets(st.integers(), max_size=2), st.complex_numbers(),
                       st.just(F(1, 3)))


class TestReportWriter:
    """``cli._json`` against its slow twin, ``json.dumps(..., sort_keys=True, indent=2)``."""

    @staticmethod
    def same_as_json(value):
        outcomes = []
        for write in (cli._json, lambda v: json.dumps(v, sort_keys=True, indent=2)):
            try:
                outcomes.append(write(value))
            except TypeError as exc:
                outcomes.append(type(exc))
        assert outcomes[0] == outcomes[1]

    @settings(max_examples=500, deadline=None)
    @given(json_values(st.one_of(SCALARS, FLAT_LISTS)))
    def test_same_text_as_json(self, value):
        self.same_as_json(value)

    @settings(max_examples=200, deadline=None)
    @given(json_values(st.one_of(SCALARS, UNWRITABLE)))
    def test_same_exception_as_json(self, value):
        self.same_as_json(value)

    # values no report holds, which _json hands to json.dumps two levels
    # down, at an indent of four spaces
    @pytest.mark.parametrize("value", [
        {"r": [{2: ["a", 1.5], 1: {"k": None}}, "b"]},
        {"r": [{True: 1, False: 2}], "s": []},
        {"r": {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "x": 0.5}},
        {"r": {"set": {1, 2}}},
    ], ids=["int_keys", "bool_keys", "non_finite_floats", "set"])
    def test_what_json_writes_itself_two_levels_deep(self, value):
        self.same_as_json(value)


class TestUnwritableReport:
    """A report that cannot be written exits 2 with one ``error:`` line."""

    def test_out_in_a_missing_folder(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.json"
        code, report, err = invoke(capsys, "sp", "--scenario", "builtin:example1",
                                   "--out", str(out))
        assert (code, report) == (2, None)
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, reads", [
        # a report of megabytes: the reader takes one line of it, then closes
        (["sample", "--scenario", "builtin:example1", "--samples", "50000", "--seed", "1"], True),
        # a report that fits in the pipe: the reader is gone before it starts
        (["sp", "--scenario", "builtin:example1"], False),
    ], ids=["sample-head-1", "sp-no-reader"])
    def test_a_closed_pipe(self, argv, reads):
        r, w = os.pipe()
        if not reads:
            os.close(r)
        proc = subprocess.Popen([sys.executable, "-m", "kassoc.cli", *argv], stdout=w,
                                stderr=subprocess.PIPE, env=child_env(), text=True)
        os.close(w)
        if reads:
            with open(r, "rb") as reader:
                assert reader.readline() == b"{\n"
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 2
        assert err == "error: cannot write stdout: [Errno 32] Broken pipe\n"

    def test_no_stdout(self):
        # started with descriptor 1 closed, the interpreter sets sys.stdout
        # to None, and print() would drop the report without an error
        script = 'exec "$0" -m kassoc.cli sp --scenario builtin:example1 >&-'
        proc = subprocess.run(["sh", "-c", script, sys.executable], env=child_env(),
                              stderr=subprocess.PIPE, text=True, timeout=300)
        assert proc.returncode == 2
        assert proc.stderr == "error: cannot write stdout: [Errno 9] stdout is closed\n"


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


EX1 = ["--scenario", "builtin:example1"]
PARITY = [
    # the command forms of the cli_suite benchmark and of the README
    *readme_commands(),
    ["mb", *EX1, "--target", "Y", "--mode", "classic"],
    ["mb", *EX1, "--target", "Y", "--trace"],
    ["assoc", *EX1, "--target", "X", "--budget", "1"],
    ["audit", *EX1],
    ["orient", "--scenario", "builtin:noncollider_xor", "--center", "Y",
     "--left", "X,Z", "--right", "W"],
    ["mb", "--scenario=builtin:example1", "--target=Y"],
    ["mb", "--scen", "builtin:example1", "--targ", "Y"],
    ["mb", "--target", "Y", *EX1, "--out", "/nonexistent-folder/report.json"],
    # a missing required option
    ["mb", *EX1],
    ["orient", "--scenario", "builtin:example2", "--center", "Y"],
    ["sp"],
    ["mb", "--scenario"],
    # bad values
    ["assoc", *EX1, "--target", "Y", "--budget", "abc"],
    ["assoc", *EX1, "--target", "Y", "--budget", "-1"],
    ["mb", *EX1, "--target", "Y", "--alpha", "2"],
    ["mb", *EX1, "--target", "Y", "--alpha", "x"],
    ["mb", *EX1, "--target", "Y", "--samples", "0"],
    ["mb", *EX1, "--target", "Y", "--samples", "99999999999999999999"],
    ["sample", *EX1, "--samples", "many"],
    ["mb", *EX1, "--target", "Y", "--mode", "fast"],
    ["mb", "--scenario", "builtin:nope", "--target", "Y"],
    ["mb", *EX1, "--target", "Q"],
    # an unknown option, a stray positional word, an option of another command
    ["mb", *EX1, "--target", "Y", "--foo", "1"],
    ["mb", *EX1, "--target", "Y", "extra"],
    ["sp", "extra", *EX1],
    ["audit", *EX1, "--budget", "1"],
    ["mb", *EX1, "--target", "Y", "--"],
    ["mb", "--", *EX1, "--target", "Y"],
    # an unknown, misplaced or absent command
    ["frobnicate", *EX1],
    ["MB", *EX1, "--target", "Y"],
    [*EX1, "mb", "--target", "Y"],
    ["--target", "Y", "mb", *EX1],
    [],
    # help
    ["-h"],
    ["--help"],
    ["--he"],
    ["mb", "--help"],
    ["sp", "-h"],
    ["mb", *EX1, "--target", "Y", "-h"],
    # "--" as the first word
    ["--", "mb", *EX1, "--target", "Y"],
    ["--"],
]


def outcome(capsys, argv):
    """``run(argv)``'s exit code, stdout (less the ``wall_time_s`` line) and
    stderr; help exits through ``SystemExit``, kept as ``("exit", code)``."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = ("exit", exc.code)
    out, err = capsys.readouterr()
    out = "".join(line for line in out.splitlines(True) if '"wall_time_s"' not in line)
    return code, out, err


class TestOneParse:
    """``run`` parses the words after a command's name with that command's
    parser alone.  Its slow twin is the top parser's route, which ``run``
    takes for every argv once ``_COMMANDS`` is empty: both must give the same
    exit code, stdout and stderr."""

    def outcomes(self, capsys, monkeypatch, argv):
        """The fast and slow routes' outcomes, and whether each went
        through the top parser's ``parse_args``."""
        top = cli._parser()
        calls = []

        def parse_args(args=None, namespace=None):
            calls.append(args)
            return argparse.ArgumentParser.parse_args(top, args, namespace)
        monkeypatch.setattr(top, "parse_args", parse_args)
        fast = outcome(capsys, argv), bool(calls)
        calls.clear()
        monkeypatch.setattr(cli, "_COMMANDS", {})
        slow = outcome(capsys, argv), bool(calls)
        return fast, slow

    @pytest.mark.parametrize("argv", PARITY, ids=lambda argv: " ".join(argv) or "no-words")
    def test_same_outcome_as_the_top_parser(self, capsys, monkeypatch, argv):
        (fast, fast_top), (slow, slow_top) = self.outcomes(capsys, monkeypatch, argv)
        assert fast == slow
        assert slow_top
        assert fast_top == (not argv or argv[0] not in OPTIONS)

    @pytest.mark.parametrize("argv", [
        ["mb", *EX1, "--target", "Y"],
        ["mb", *EX1, "--target", "Y", "--foo", "1"],
        ["mb", *EX1],
        ["--help"],
        [],
    ], ids=["mb", "mb-unknown-option", "mb-missing-target", "help", "no-words"])
    def test_no_argv_reads_sys_argv(self, capsys, monkeypatch, argv):
        given = outcome(capsys, list(argv))
        monkeypatch.setattr(sys, "argv", ["kassoc", *argv])
        (fast, _), (slow, _) = self.outcomes(capsys, monkeypatch, None)
        assert fast == slow == given


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
            proc = subprocess.run(
                [sys.executable, "-c", script, *files], env=child_env(PYTHONHASHSEED=seed),
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
