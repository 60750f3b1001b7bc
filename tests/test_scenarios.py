"""Scenario generators, parameter guards, serialization, audits."""

import copy
import itertools
import json
import pickle
import random
from fractions import Fraction as F

import pytest

from kassoc.audit import audit_scenario
from kassoc.distribution import DiscreteJoint
from kassoc.gaussian import GaussianSystem
from kassoc.graph import Dag
from kassoc.oracle import DiscreteOracle, GraphOracle, GTestOracle
from kassoc.scenarios import (
    BUILTINS,
    Scenario,
    ScenarioError,
    baseline,
    builtin,
    cancelling_paths_3,
    load,
    load_path,
    noisy_xor,
    save,
    xor_with_context,
)
from test_gaussian import random_sem


def pairwise_markov_holds(dag, joint):
    """Reference construction check: every pairwise d-separation of the DAG,
    over every conditioning set, holds as an exact independence."""
    for x, y in itertools.combinations(dag.nodes, 2):
        pool = [v for v in dag.nodes if v not in (x, y)]
        for k in range(len(pool) + 1):
            for s in itertools.combinations(pool, k):
                if dag.d_separated({x}, {y}, s) and not joint.is_independent(x, y, s):
                    return False
    return True


def local_markov_holds(dag, joint):
    return all(
        joint.is_independent_sets([v], rest, parents)
        for v, rest, parents in dag.local_markov_statements()
    )


def copy_joint(names, source, target):
    """Binary joint over ``names``: ``target`` copies ``source``, every other
    variable is an independent fair coin."""
    probs = []
    for a in itertools.product((0, 1), repeat=len(names)):
        v = dict(zip(names, a))
        probs.append(F(1, 2 ** (len(names) - 1)) if v[target] == v[source] else F(0))
    return DiscreteJoint([(n, 2) for n in names], probs)


class TestParameterGuards:
    def test_noisy_xor_rejects_half(self):
        with pytest.raises(ScenarioError):
            noisy_xor(F(1, 2))

    def test_noisy_xor_allows_zero_noise(self):
        s = noisy_xor(F(0))
        assert s.joint.prob({"X": 1, "Z": 1, "Y": 0}) == F(1, 4)

    def test_context_rejects_boundary(self):
        with pytest.raises(ScenarioError):
            xor_with_context(F(0), F(1, 4))
        with pytest.raises(ScenarioError):
            xor_with_context(F(1, 2), F(1, 2))

    def test_baseline_rejects_degenerate_strength(self):
        for bad in (F(0), F(1, 2), F(1)):
            with pytest.raises(ScenarioError):
                baseline("chain", bad)

    def test_baseline_rejects_unknown_kind(self):
        with pytest.raises(ScenarioError):
            baseline("triangle")

    def test_cancelling_rejects_zero_weight(self):
        with pytest.raises(ScenarioError):
            cancelling_paths_3(F(0), F(1))


class TestConstructionInvariants:
    def test_every_discrete_builtin_satisfies_pairwise_markov(self):
        # construction raises if the local Markov check fails in the joint
        for name in BUILTINS:
            builtin(name)

    def test_both_markov_checks_pass_on_builtins(self, all_builtins):
        for scenario in all_builtins.values():
            if scenario.kind == "discrete":
                assert local_markov_holds(scenario.dag, scenario.joint)
                assert pairwise_markov_holds(scenario.dag, scenario.joint)

    def test_both_markov_checks_pass_on_from_cpts_joints(self, cpt_nets):
        for dag, cpts in cpt_nets:
            joint = DiscreteJoint.from_cpts(dag, cpts)
            assert local_markov_holds(dag, joint)
            assert pairwise_markov_holds(dag, joint)

    @pytest.mark.parametrize("edges, source, target", [
        ([("X", "Y"), ("Z", "Y")], "X", "Z"),  # collider: X, Z marginally dependent
        ([("X", "Y"), ("Y", "Z")], "X", "Z"),  # chain: X, Z dependent given Y
        ([("X", "Y"), ("Z", "W")], "Y", "W"),  # two components made dependent
    ], ids=["collider", "chain", "components"])
    def test_both_markov_checks_reject_a_broken_d_separation(self, edges, source, target):
        nodes = sorted({v for e in edges for v in e})
        dag = Dag(nodes, edges)
        joint = copy_joint(nodes, source, target)
        assert not pairwise_markov_holds(dag, joint)
        assert not local_markov_holds(dag, joint)

    def test_gaussian_coefficients_must_form_the_graph(self):
        chain = GaussianSystem(
            ("X", "Y", "Z"), {("Y", "X"): 1, ("Z", "Y"): 1}, {v: 1 for v in "XYZ"}
        )
        for dag in (Dag(["X", "Y", "Z"], [("X", "Y")]), Dag(["Z", "Y", "X"], chain.dag.edges)):
            with pytest.raises(ScenarioError, match="gaussian coefficients"):
                Scenario("mismatched", dag, "gaussian", gaussian=chain)
        scenario = Scenario("chain", chain.dag, "gaussian", gaussian=chain)
        assert audit_scenario(scenario)["CMC"].holds

    def test_discrete_scenario_requires_cpts(self, example1):
        with pytest.raises(ScenarioError):
            Scenario("broken", example1.dag, "discrete")

    def test_unknown_builtin(self):
        with pytest.raises(ScenarioError):
            builtin("does-not-exist")


class TestSerialization:
    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_round_trip_is_bit_exact(self, name):
        s = builtin(name)
        assert load(save(s)) == s

    def test_round_trip_of_random_cpt_nets(self, cpt_nets):
        # cardinality-1 nodes and zero cells, which no builtin has
        cpts = [cpt for _, net in cpt_nets for cpt in net]
        assert any(cpt.child_card == 1 for cpt in cpts)
        assert any(p == 0 for cpt in cpts for row in cpt.rows.values() for p in row)
        for i, (dag, net) in enumerate(cpt_nets):
            s = Scenario(f"net{i}", dag, "discrete", cpts=tuple(net))
            assert load(json.loads(json.dumps(save(s)))) == s

    def test_round_trip_of_a_random_gaussian_system(self):
        system = random_sem(random.Random("round-trip"), 6)
        assert system.dag.edges
        s = Scenario("sem", system.dag, "gaussian", gaussian=system, params={"w": F(-3, 2)})
        assert load(json.loads(json.dumps(save(s)))) == s

    @pytest.mark.parametrize("kind", ["dag", "joint", "dataset", "discrete", "gaussian"])
    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_copies_equal_the_original_and_answer_alike(self, kind, clone):
        example2 = builtin("example2")
        original, oracle = {
            "dag": (example2.dag, GraphOracle),
            "joint": (example2.joint, DiscreteOracle),
            "dataset": (example2.joint.sample(300, 5), GTestOracle),
            "discrete": (example2, Scenario.oracle),
            "gaussian": (builtin("cancel4"), Scenario.oracle),
        }[kind]

        def answers(obj):
            o = oracle(obj)
            return [o.query(x, y, s)
                    for x, y in itertools.combinations(o.variables, 2)
                    for k in range(len(o.variables) - 1)
                    for s in itertools.combinations(
                        [v for v in o.variables if v not in (x, y)], k)]

        want = answers(original)
        twin = clone(original)
        assert twin is not original and twin == original
        if kind in ("joint", "dataset"):
            assert not twin._lattice.marginals  # the cache is not copied
        assert answers(twin) == want

    def test_document_is_json_serializable(self, example2):
        text = json.dumps(save(example2))
        assert '"num/den"' not in text  # rationals rendered as actual values
        assert "1/32" not in text  # CPT rows, not the dense joint

    def test_load_path(self, tmp_path, example1):
        p = tmp_path / "s.json"
        p.write_text(json.dumps(save(example1)))
        assert load_path(str(p)) == example1

    def test_malformed_document_rejected(self):
        with pytest.raises(ScenarioError):
            load({"name": "x"})

    def test_bad_probability_rejected(self, example1):
        doc = save(example1)
        doc["payload"]["cpts"][0]["rows"][0]["probs"] = ["1/2", "1/3"]
        with pytest.raises(ScenarioError):
            load(doc)


class TestAnnotations:
    def test_example1_flags(self, example1):
        ann = audit_scenario(example1)
        assert ann["CMC"].holds
        assert not ann["AF"].holds
        assert ann["AF"].witness["edge"] in (["X", "Y"], ["Z", "Y"])
        assert ann["2-AF"].holds

    def test_example2_flags(self, example2):
        ann = audit_scenario(example2)
        assert ann["2-AF"].holds
        assert ann["2-OF"].holds
        assert ann["spouse-condition"].holds

    def test_faithful_controls(self, all_builtins):
        for name in ("chain", "fork", "collider", "coins"):
            ann = audit_scenario(all_builtins[name])
            assert ann["AF"].holds and ann["OF"].holds, name

    def test_transitivity_failure_breaks_2of(self, all_builtins):
        ann = audit_scenario(all_builtins["transitivity_failure"])
        assert not ann["OF"].holds
        assert not ann["2-OF"].holds
        assert ann["2-OF"].witness["condition"] == "ii"

    def test_cancellations_break_af(self, all_builtins):
        for name in ("cancel3", "cancel4"):
            ann = audit_scenario(all_builtins[name])
            assert ann["CMC"].holds
            assert not ann["AF"].holds

    def test_report_is_exhaustive_at_desk_scale(self, all_builtins):
        for s in all_builtins.values():
            report = audit_scenario(s).to_dict()
            assert report["exhaustive"]
            assert all(r["exhaustive"] for r in report["results"])

    def test_seven_node_chain_audit_is_exhaustive_and_holds(self):
        nodes = [f"v{i}" for i in range(7)]
        edges = [(nodes[i], nodes[i + 1]) for i in range(6)]
        report = audit_scenario(Scenario("bigchain", Dag(nodes, edges), "graph")).to_dict()
        # every check is exact at any size
        assert report["exhaustive"]
        assert [r["assumption"] for r in report["results"] if r["exhaustive"]] == [
            "CMC", "AF", "2-AF", "OF", "2-OF", "spouse-condition"]
        for r in report["results"]:
            assert r["holds"] and r["witness"] is None, r["assumption"]
