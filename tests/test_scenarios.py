"""Scenario generators, parameter guards, serialization, audits."""

import itertools
import json
import math
from fractions import Fraction as F

import pytest

from kassoc.audit import audit_scenario
from kassoc.distribution import DiscreteJoint
from kassoc.gaussian import GaussianSystem
from kassoc.graph import Dag
from kassoc.gtest import GTestConfig, g_test
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
    sign_buckets,
    sign_product_sampler,
    xor_with_context,
)


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
        assert Scenario("chain", chain.dag, "gaussian", gaussian=chain).annotations()["CMC"].holds

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
        ann = example1.annotations()
        assert ann["CMC"].holds
        assert not ann["AF"].holds
        assert ann["AF"].witness["edge"] in (["X", "Y"], ["Z", "Y"])
        assert ann["2-AF"].holds

    def test_example2_flags(self, example2):
        ann = example2.annotations()
        assert ann["2-AF"].holds
        assert ann["2-OF"].holds
        assert ann["spouse-condition"].holds

    def test_faithful_controls(self, all_builtins):
        for name in ("chain", "fork", "collider", "coins"):
            ann = all_builtins[name].annotations()
            assert ann["AF"].holds and ann["OF"].holds, name

    def test_transitivity_failure_breaks_2of(self, all_builtins):
        ann = all_builtins["transitivity_failure"].annotations()
        assert not ann["OF"].holds
        assert not ann["2-OF"].holds
        assert ann["2-OF"].witness["condition"] == "ii"

    def test_cancellations_break_af(self, all_builtins):
        for name in ("cancel3", "cancel4"):
            ann = all_builtins[name].annotations()
            assert ann["CMC"].holds
            assert not ann["AF"].holds

    def test_annotations_cached(self, example1):
        assert example1.annotations() is example1.annotations()

    def test_report_is_exhaustive_at_desk_scale(self, all_builtins):
        for s in all_builtins.values():
            assert audit_scenario(s).exhaustive

    def test_large_graph_audit_is_flagged_partial(self):
        nodes = [f"v{i}" for i in range(7)]
        edges = [(nodes[i], nodes[i + 1]) for i in range(6)]
        s = Scenario("bigchain", Dag(nodes, edges), "graph")
        report = audit_scenario(s)
        assert not report.exhaustive
        # CMC (local Markov statements) and 2-AF (Markov-blanket partners)
        # are exact at any size; the other scans truncate conditioning sets
        assert [r.assumption for r in report.results if r.exhaustive] == ["CMC", "2-AF"]
        for r in report.results:
            assert r.holds and r.witness is None, r.assumption


class TestSignProductSampler:
    def test_deterministic(self):
        assert sign_product_sampler(50, 3) == sign_product_sampler(50, 3)

    def test_near_zero_marginal_correlation(self):
        rows = sign_product_sampler(100_000, 9)
        n = len(rows)
        mx = sum(r[0] for r in rows) / n
        my = sum(r[2] for r in rows) / n
        cov = sum((r[0] - mx) * (r[2] - my) for r in rows) / n
        sx = math.sqrt(sum((r[0] - mx) ** 2 for r in rows) / n)
        sy = math.sqrt(sum((r[2] - my) ** 2 for r in rows) / n)
        assert abs(cov / (sx * sy)) < 0.02

    def test_discretized_conditional_dependence(self):
        data = sign_buckets(sign_product_sampler(100_000, 9))
        res = g_test(data, "X", "Z", ("Y",), GTestConfig(alpha=0.01))
        assert not res.independent
