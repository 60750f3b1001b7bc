"""Scenario generators, parameter guards, serialization, audits."""

import copy
import dataclasses
import itertools
import json
import pickle
import random
import re
import sys
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_cpt_net
from kassoc.audit import audit_scenario, check_cmc
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
from references import integer_product, prob, random_sem


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
        assert prob(s.joint, {"X": 1, "Z": 1, "Y": 0}) == F(1, 4)

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

    def test_float_parameters_are_refused(self):
        for make in (lambda: noisy_xor(0.25), lambda: xor_with_context(0.5),
                     lambda: baseline("chain", 0.1), lambda: cancelling_paths_3(0.5)):
            with pytest.raises(ValueError, match="must be an int or a Fraction"):
                make()
        with pytest.raises(ScenarioError, match="parameter p must be"):
            Scenario("g", Dag(["X"], []), "graph", params={"p": 0.1})


def markov_sweep_nets(count):
    """Seeded (dag, cpts) pairs over 2-6 nodes, any edge count, cardinalities
    1-3 and CPT entries k/6, so that many rows hold zeros."""
    rng = random.Random("markov-sweep")
    nets = []
    for _ in range(count):
        n = rng.randint(2, 6)
        edges = rng.randint(0, n * (n - 1) // 2)
        nets.append(random_cpt_net(rng, n, edges, n - 1, cards=(1, 2, 3), denom=6))
    return nets


class TestConstructionInvariants:
    def test_every_discrete_builtin_satisfies_pairwise_markov(self):
        # the audit's CMC check is the only one: construction asks none
        for name in BUILTINS:
            s = builtin(name)
            assert check_cmc(s.dag, s.oracle()).holds, name

    def test_building_a_scenario_asks_no_ci_question(self):
        """Construction is the product of the CPTs and nothing more: no CI
        query and no marginal, for every builtin, a seeded random net, and
        each one's round-tripped copy."""
        dag, cpts = random_cpt_net(random.Random("no-ci-at-build"), 7, 9, 3, cards=(1, 2, 3))
        makers = [*BUILTINS.values(), lambda: Scenario("net7", dag, "discrete", cpts=cpts)]
        with mock.patch.object(DiscreteJoint, "is_independent_sets") as ci:
            built = [make() for make in makers]
            built += [load(save(s)) for s in built]
        assert ci.call_count == 0
        joints = [s.joint for s in built if s.kind == "discrete"]
        assert len(joints) == 2 * 10  # nine discrete builtins and the net
        assert all(not j._lattice.marginals for j in joints)

    def test_both_markov_checks_pass_on_builtins(self, all_builtins):
        for scenario in all_builtins.values():
            if scenario.kind == "discrete":
                assert local_markov_holds(scenario.dag, scenario.joint)
                assert pairwise_markov_holds(scenario.dag, scenario.joint)

    def test_both_markov_checks_pass_on_from_cpts_joints(self, cpt_nets):
        """A product of exact CPTs over a DAG is Markov to it, zero cells
        included; with no check at construction, this guards ``from_cpts``."""
        zeros = 0
        for dag, cpts in [*cpt_nets, *markov_sweep_nets(300)]:
            joint = DiscreteJoint.from_cpts(dag, cpts)
            assert local_markov_holds(dag, joint)
            assert pairwise_markov_holds(dag, joint)
            zeros += 0 in joint.probs
        assert zeros > 50

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
        with pytest.raises(ScenarioError, match="gaussian coefficients"):
            Scenario("mismatched", Dag(["X", "Y", "Z"], [("X", "Y")]), "gaussian", gaussian=chain)
        # the same graph with its nodes listed in another sequence
        with pytest.raises(ScenarioError, match=r"gaussian order \['X', 'Y', 'Z'\] must list "
                           r"the nodes \['Z', 'Y', 'X'\] in the same sequence"):
            Scenario("permuted", Dag(["Z", "Y", "X"], chain.dag.edges), "gaussian", gaussian=chain)
        scenario = Scenario("chain", chain.dag, "gaussian", gaussian=chain)
        assert audit_scenario(scenario)["CMC"].holds

    def test_discrete_scenario_requires_cpts(self, example1):
        with pytest.raises(ScenarioError):
            Scenario("broken", example1.dag, "discrete")

    # save writes only the payload of its scenario's kind, so a scenario
    # that carried another would not round-trip

    @pytest.mark.parametrize("payload", ["cpts", "gaussian"])
    def test_graph_scenario_refuses_a_payload(self, payload):
        source = builtin("example1" if payload == "cpts" else "cancel3")
        what = "CPTs" if payload == "cpts" else "Gaussian system"
        with pytest.raises(ScenarioError, match=f"^a graph scenario carries no {what}$"):
            Scenario("g", source.dag, "graph", **{payload: getattr(source, payload)})

    def test_discrete_scenario_refuses_a_gaussian_system(self, example1):
        system = GaussianSystem(example1.dag.nodes, {("Y", "X"): 1, ("Y", "Z"): 1},
                                {v: 1 for v in example1.dag.nodes})
        with pytest.raises(ScenarioError, match="^a discrete scenario carries no Gaussian system$"):
            Scenario("d", example1.dag, "discrete", cpts=example1.cpts, gaussian=system)

    def test_gaussian_scenario_refuses_cpts(self, example1):
        cancel3 = builtin("cancel3")
        with pytest.raises(ScenarioError, match="^a gaussian scenario carries no CPTs$"):
            Scenario("g", cancel3.dag, "gaussian", gaussian=cancel3.gaussian, cpts=example1.cpts)

    def test_unknown_builtin(self):
        with pytest.raises(ScenarioError):
            builtin("does-not-exist")


# Each builtin's node order and edges, written out by hand: a builtin reads
# its graph off its payload, so this table is what says the payload states
# the intended graph.  The node order fixes a report's "nodes" and every scan
# order.
BUILTIN_GRAPHS = {
    "example1": ("XYZ", ["XY", "ZY"]),
    "example2": ("XZWY", ["XY", "ZY", "WY"]),
    "chain": ("XYZ", ["XY", "YZ"]),
    "fork": ("XYZ", ["YX", "YZ"]),
    "collider": ("XYZ", ["XY", "ZY"]),
    "xor_chain": ("XUZWY", ["XU", "UW", "ZW", "WY"]),
    "noncollider_xor": ("WYZX", ["WY", "YX", "ZX"]),
    "transitivity_failure": ("XYZ", ["XY", "YZ"]),
    "coins": ("XYZ", []),
    "cancel3": ("XZY", ["XZ", "ZY", "XY"]),
    "cancel4": ("XZWY", ["XZ", "ZW", "WY", "XY"]),
}


class TestBuiltinGraphs:
    def test_the_table_lists_every_builtin(self):
        assert set(BUILTIN_GRAPHS) == set(BUILTINS)

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_graph_and_node_order(self, name):
        nodes, edges = BUILTIN_GRAPHS[name]
        dag = builtin(name).dag
        assert dag.nodes == tuple(nodes)
        assert dag.edges == tuple(sorted(tuple(e) for e in edges))


def _reordered(s):
    """``s`` over its nodes in reverse order, payload and all."""
    nodes = s.dag.nodes[::-1]
    g = s.gaussian
    if g is not None:
        g = GaussianSystem(nodes, g.coefficients, g.noise_variances)
    return dataclasses.replace(s, dag=Dag(nodes, s.dag.edges), gaussian=g)


def _one_row_changed(s):
    """``s`` with one probability row, or one Gaussian weight, changed."""
    if s.kind == "gaussian":
        g = s.gaussian
        (key, w), *_ = g.coefficients.items()
        coeffs = {**g.coefficients, key: 2 * w}
        return dataclasses.replace(s, gaussian=GaussianSystem(g.nodes, coeffs, g.noise_variances))
    cpt = s.cpts[-1]
    (given, vec), *_ = cpt.rows.items()
    point = (1,) + (0,) * (len(vec) - 1)
    vec = point if vec != point else point[::-1]
    changed = dataclasses.replace(cpt, rows={**cpt.rows, given: vec})
    return dataclasses.replace(s, cpts=s.cpts[:-1] + (changed,))


def _one_param_changed(s):
    """``s`` with one parameter value changed, or one added where it has none."""
    key = next(iter(s.params), "extra")
    return dataclasses.replace(s, params={**s.params, key: s.params.get(key, 0) + 1})


class TestScenarioEquality:
    """Equality compares every field but the joint, which the CPTs fix."""

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_two_builds_are_equal(self, name):
        a, b = builtin(name), builtin(name)
        assert a is not b and a == b and not a != b

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    @pytest.mark.parametrize("change", [
        lambda s: dataclasses.replace(s, name=s.name + "'"),
        _reordered,
        _one_row_changed,
        _one_param_changed,
        lambda s: dataclasses.replace(s, notes=s.notes + "."),
    ], ids=["name", "node-order", "payload", "params", "notes"])
    def test_one_changed_field_makes_them_unequal(self, name, change):
        s = builtin(name)
        twin = change(s)
        assert twin != s and s != twin

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_a_scenario_is_not_hashable(self, name):
        with pytest.raises(TypeError):
            hash(builtin(name))


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

    @pytest.mark.parametrize("label", ["A->B", " X", "X ", "->"])
    def test_labels_that_load_would_misread_are_refused(self, label):
        s = Scenario("labels", Dag([label, "Y"], [(label, "Y")]), "graph")
        with pytest.raises(ScenarioError, match="cannot be saved"):
            save(s)

    @pytest.mark.parametrize("label", ["A,B", "a b", "Zürich", "-", ">"])
    def test_other_labels_round_trip(self, label):
        s = Scenario("labels", Dag([label, "Y"], [(label, "Y")]), "graph")
        assert load(json.loads(json.dumps(save(s)))) == s

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

    def test_bare_and_negative_integer_literals_load(self):
        doc = save(builtin("cancel3"))
        doc["payload"]["coefficients"].update({"X->Y": "-3", "Z->Y": "2", "X->Z": "-4/6"})
        coefficients = load(doc).gaussian.coefficients
        assert (coefficients[("Y", "X")], coefficients[("Y", "Z")],
                coefficients[("Z", "X")]) == (F(-3), F(2), F(-2, 3))

    @pytest.mark.parametrize("literal", [
        "1e10000000", "1E3", "0.5", ".5", "1_0/2", "1/2_0", " 1/2", "1/2 ", "1/2\n",
        "+1/2", "1/-2", "1/+2", "1/0", "-0/0", "\u00bd", "\u0663/4", "1/", "/2", "-", "",
        "1/2/3", "inf", "nan",
    ])
    def test_only_integer_and_ratio_literals_load(self, literal):
        doc = save(builtin("cancel3"))
        doc["payload"]["coefficients"]["X->Y"] = literal
        with pytest.raises(ScenarioError, match=f"^bad rational literal {re.escape(repr(literal))}$"):
            load(doc)

    def test_integer_past_the_digit_limit_refused(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter has no integer digit limit")
        literal = "1/1" + "0" * limit
        doc = save(builtin("cancel3"))
        doc["payload"]["coefficients"]["X->Y"] = literal
        with pytest.raises(ScenarioError, match="^bad rational literal '1/10000"):
            load(doc)


def discrete_documents():
    """Valid discrete scenario documents: every discrete builtin, and two
    seeded nets with cardinality-1 nodes and zero cells."""
    docs = [save(builtin(n)) for n in sorted(BUILTINS) if builtin(n).kind == "discrete"]
    for seed in range(2):
        dag, cpts = random_cpt_net(random.Random(f"mutated-documents:{seed}"), 5, 6, 2,
                                   cards=(1, 2, 3), denom=4)
        docs.append(save(Scenario(f"net{seed}", dag, "discrete", cpts=tuple(cpts))))
    return docs


def mutation_sites(node, path=()):
    """(kind, path) of every place in a document that a mutation can
    change: a non-empty list (drop or duplicate an entry), an object with
    two fields or more (swap two of their values), a cardinality or parent
    cardinality, and a CPT's parent (dropped together with its edge)."""
    if isinstance(node, list):
        if node:
            yield "list", path
        if path[:2] == ("payload", "cpts") and path[3:] == ("parents",):
            yield from (("parent", path + (i,)) for i in range(len(node)))
        for i, v in enumerate(node):
            yield from mutation_sites(v, path + (i,))
    elif isinstance(node, dict):
        if len(node) > 1:
            yield "object", path
        for k, v in node.items():
            yield from mutation_sites(v, path + (k,))
    elif type(node) is int and (path[-1:] == ("cardinality",)
                                or path[-2:-1] == ("parent_cardinalities",)):
        yield "cardinality", path


def mutate(doc, data):
    """Apply one drawn mutation to ``doc`` in place."""
    kind, path = data.draw(st.sampled_from(list(mutation_sites(doc))))
    parent, target = None, doc
    for key in path:
        parent, target = target, target[key]
    last = path[-1] if path else None
    if kind == "list":
        i = data.draw(st.integers(0, len(target) - 1))
        if data.draw(st.booleans()):
            del target[i]
        else:
            target.insert(i, copy.deepcopy(target[i]))
    elif kind == "object":
        a, b = data.draw(st.permutations(sorted(target)))[:2]
        target[a], target[b] = target[b], target[a]
    elif kind == "cardinality":
        parent[last] = data.draw(st.integers(0, 4).filter(lambda c: c != target))
    else:  # a parent named in a CPT's "parents" and as an edge into its child
        edge = f"{parent.pop(last)}->{doc['payload']['cpts'][path[2]].get('child')}"
        if isinstance(doc["edges"], list):
            doc["edges"] = [e for e in doc["edges"] if e != edge]


@settings(max_examples=300, deadline=None)
@given(doc=st.sampled_from(discrete_documents()), mutations=st.integers(1, 3), data=st.data())
def test_a_mutated_document_is_refused_or_loads_its_own_cpts(doc, mutations, data):
    """Either ``load`` refuses the document with ScenarioError, or the joint
    it builds is the product of the CPTs it loaded."""
    doc = copy.deepcopy(doc)
    for _ in range(mutations):
        mutate(doc, data)
    try:
        scenario = load(doc)
    except ScenarioError:
        return
    if scenario.kind == "discrete":
        joint = scenario.joint
        assert (joint._denom, joint._weights) == integer_product(scenario.dag, scenario.cpts)


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
