"""Grow-shrink Markov blanket recovery, modified and classic.

``kassoc.growshrink`` asks the oracle's ``_ask`` on position masks; its
slow twin in ``tests/references.py`` builds each step's conditioning set
from names and asks it through ``query``.  The two must give the same
blankets and the same ``GsStep`` lists, make the same backend calls in the
same order, and leave the same ``query_count`` and answer cache, keys,
answers and insertion order included.
"""

import itertools
import random

import pytest

from conftest import backend_log, planted_xor_net, zero_cell_nets
from kassoc.audit import audit_scenario
from kassoc.distribution import DiscreteJoint
from kassoc.growshrink import GsStep, grow, markov_blanket, shrink
from kassoc.oracle import DiscreteOracle, GraphOracle, GTestOracle, OracleError
from kassoc.scenarios import BUILTINS, builtin
from references import (grow_on_names, markov_blanket_on_names, replay_consistent,
                        shrink_on_names)


class TestExampleOne:
    def test_modified_finds_the_xor_parents(self, example1):
        o = DiscreteOracle(example1.joint)
        mb, _ = markov_blanket(o, "Y", mode="modified")
        assert mb == {"X", "Z"}

    def test_classic_misses_them(self, example1):
        """Documented failure: without the pair clause the grow phase never
        adds anything, because Y is marginally independent of both parents."""
        o = DiscreteOracle(example1.joint)
        mb, _ = markov_blanket(o, "Y", mode="classic")
        assert mb == set()

    def test_all_targets_match_graph_blanket(self, example1):
        o = DiscreteOracle(example1.joint)
        for t in example1.dag.nodes:
            mb, _ = markov_blanket(o, t)
            assert mb == example1.dag.markov_blanket(t), t


class TestExampleTwo:
    @pytest.mark.parametrize("target", ["X", "Z", "W", "Y"])
    def test_matches_graph_blanket(self, example2, target):
        o = DiscreteOracle(example2.joint)
        mb, _ = markov_blanket(o, target)
        assert mb == example2.dag.markov_blanket(target)


class TestScenarioSuite:
    """Wherever the required assumptions verify, the modified algorithm
    recovers the graph blanket for every target."""

    def test_annotated_scenarios(self, all_builtins):
        for name, s in all_builtins.items():
            ann = audit_scenario(s)
            needed = ("CMC", "2-AF", "spouse-condition")
            if not all(ann[a].holds for a in needed):
                continue
            o = s.oracle()
            for t in s.dag.nodes:
                mb, _ = markov_blanket(o, t)
                assert mb == s.dag.markov_blanket(t), (name, t)

    def test_graph_oracle_always_recovers(self, all_builtins):
        for name, s in all_builtins.items():
            o = GraphOracle(s.dag)
            for t in s.dag.nodes:
                mb, _ = markov_blanket(o, t)
                assert mb == s.dag.markov_blanket(t), (name, t)


class TestScanOrderRobustness:
    def test_result_is_order_invariant_on_example2(self, example2):
        others = [v for v in example2.joint.names if v != "Y"]
        results = set()
        for perm in itertools.permutations(others):
            o = DiscreteOracle(example2.joint.marginalize(["Y", *perm]))
            mb, _ = markov_blanket(o, "Y")
            results.add(frozenset(mb))
        assert results == {frozenset({"X", "Z", "W"})}


class TestTrace:
    def test_trace_records_grow_and_shrink(self, example1):
        o = DiscreteOracle(example1.joint)
        _, trace = markov_blanket(o, "Y")
        phases = {step.phase for step in trace}
        assert phases == {"grow", "shrink"}

    def test_trace_replays_consistently(self, example2):
        o = DiscreteOracle(example2.joint)
        _, trace = markov_blanket(o, "W")
        assert replay_consistent(trace, DiscreteOracle(example2.joint), "W")

    def test_steps_are_immutable_records_with_a_fixed_dict(self, example1):
        """A step's fields, its ``to_dict`` keys and order, and equal steps
        comparing and hashing equal are part of the trace's contract."""
        _, trace = markov_blanket(DiscreteOracle(example1.joint), "Y")
        _, again = markov_blanket(DiscreteOracle(example1.joint), "Y")
        assert trace == again and list(map(hash, trace)) == list(map(hash, again))
        assert GsStep._fields == ("phase", "candidate", "helper", "conditioning",
                                  "independent", "action")
        step = next(s for s in trace if s.helper is not None)
        assert step.to_dict() == {
            "phase": step.phase, "candidate": step.candidate, "helper": step.helper,
            "conditioning": sorted(step.conditioning), "independent": step.independent,
            "action": step.action}
        assert list(step.to_dict()) == list(GsStep._fields)
        with pytest.raises(AttributeError):
            step.action = "keep"

    def test_grow_superset_then_shrink_subset(self, example2):
        o = DiscreteOracle(example2.joint)
        trace = []
        grown = grow(o, "W", trace=trace)
        final = shrink(o, "W", grown, trace=trace)
        assert example2.dag.markov_blanket("W") <= grown
        assert final <= grown


class TestValidation:
    def test_unknown_target(self, example1):
        with pytest.raises(OracleError):
            markov_blanket(DiscreteOracle(example1.joint), "Q")

    @pytest.mark.parametrize("phase", [
        lambda o: grow(o, "Q"),
        lambda o: shrink(o, "Q", []),
        lambda o: shrink(o, "Q", ["X"]),
        lambda o: markov_blanket(o, "Q"),
    ], ids=["grow", "shrink-empty", "shrink", "markov_blanket"])
    def test_every_phase_checks_its_target(self, example1, phase):
        """Each phase raises the one unknown-target error before it asks
        anything, also a shrink with nothing to remove."""
        o = DiscreteOracle(example1.joint)
        with pytest.raises(OracleError, match="unknown target 'Q'"):
            phase(o)
        assert o.query_count == 0

    @pytest.mark.parametrize("candidates", [["Q"], ["X", "Q"]], ids=["alone", "after-known"])
    def test_shrink_refuses_an_unknown_candidate(self, example1, candidates):
        """Refused before the first query, also a name that the scan over
        the oracle's variables would never ask about."""
        o = example1.oracle()
        with pytest.raises(OracleError, match="^unknown variable 'Q'$"):
            shrink(o, "Y", candidates)
        assert o.query_count == 0

    def test_shrink_on_known_candidates_asks_as_before(self):
        """Candidates in any order, one twice: the scan still runs in the
        oracle's order and removes Z, which Y screens off from X."""
        o, trace = builtin("chain").oracle(), []
        assert shrink(o, "X", ["Z", "Y", "Z"], trace=trace) == {"Y"}
        assert [(step.candidate, sorted(step.conditioning), step.action) for step in trace] == [
            ("Y", ["Z"], "keep"), ("Z", ["Y"], "remove"), ("Y", [], "keep")]
        assert o.query_count == 3

    def test_unknown_mode(self, example1):
        with pytest.raises(OracleError):
            markov_blanket(DiscreteOracle(example1.joint), "Y", mode="turbo")


# -- agreement with the name-level reference ------------------------------------


def assert_same_state(got, ref, got_calls, ref_calls):
    assert got.query_count == ref.query_count
    assert list(got._cache.items()) == list(ref._cache.items())
    assert got_calls == ref_calls


def assert_blankets_agree(make):
    """Every target in oracle order, on one fresh oracle per side and mode,
    so later targets meet the answers earlier ones cached; the backend sees
    the same calls in the same order."""
    for mode in ("modified", "classic"):
        (got, got_calls), (ref, ref_calls) = backend_log(make()), backend_log(make())
        for target in got.variables:
            mb, trace = markov_blanket(got, target, mode=mode)
            assert (mb, trace) == markov_blanket_on_names(ref, target, mode=mode), (mode, target)
            assert all(type(step) is GsStep for step in trace)
            assert_same_state(got, ref, got_calls, ref_calls)


def builtin_oracles():
    """(id, fresh-oracle factory): every builtin's exact oracle and graph."""
    cases = []
    for name in sorted(BUILTINS):
        s = builtin(name)
        cases += [(f"{name}-exact", s.oracle),
                  (f"{name}-graph", lambda dag=s.dag: GraphOracle(dag))]
    return cases


BUILTIN_ORACLES = builtin_oracles()


class TestAgreesWithNameLevelReference:
    @pytest.mark.parametrize("make", [m for _, m in BUILTIN_ORACLES],
                             ids=[i for i, _ in BUILTIN_ORACLES])
    def test_builtins(self, make):
        assert_blankets_agree(make)

    def test_cpt_and_zero_cell_nets(self, cpt_nets):
        for dag, cpts in [*cpt_nets, *zero_cell_nets()]:
            joint = DiscreteJoint.from_cpts(dag, cpts)
            assert_blankets_agree(lambda: DiscreteOracle(joint))

    def test_planted_xor_nets(self):
        for seed in range(60):
            rng = random.Random(f"growshrink-agreement:{seed}")
            dag, cpts, _ = planted_xor_net(rng, rng.randint(5, 7))
            joint = DiscreteJoint.from_cpts(dag, cpts)
            assert_blankets_agree(lambda: DiscreteOracle(joint))

    def test_g_test_on_samples(self, cpt_nets):
        for seed, (dag, cpts) in enumerate(cpt_nets):
            data = DiscreteJoint.from_cpts(dag, cpts).sample(1000, seed)
            assert_blankets_agree(lambda: GTestOracle(data))

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_shrink_from_every_candidate_set(self, name):
        """``shrink`` called directly, on every subset of the other variables
        listed in reverse, one fresh oracle per side."""
        s = builtin(name)
        for target in s.dag.nodes:
            (got, got_calls), (ref, ref_calls) = backend_log(s.oracle()), backend_log(s.oracle())
            others = [v for v in reversed(s.dag.nodes) if v != target]
            for k in range(len(others) + 1):
                for cand in itertools.combinations(others, k):
                    got_trace, ref_trace = [], []
                    final = shrink(got, target, cand, trace=got_trace)
                    assert final == shrink_on_names(ref, target, cand, trace=ref_trace)
                    assert got_trace == ref_trace, (target, cand)
                    assert_same_state(got, ref, got_calls, ref_calls)

    @pytest.mark.parametrize("phase, target, kwargs", [
        ("grow", "Q", {}),
        ("grow", "Q", {"mode": "turbo"}),
        ("grow", "Y", {"mode": "turbo"}),
        ("shrink", "Q", {"s": ["Y"]}),
        ("shrink", "Y", {"s": ["X", "Y"]}),
        ("shrink", "Y", {"s": ["Y", "Q"]}),
        ("shrink", "Y", {"s": ["X", "R", "Q"]}),
        ("shrink", "Y", {"s": ["X", "X", "R"]}),
    ])
    def test_same_errors_before_any_query(self, example1, phase, target, kwargs):
        """The same error text, the same check first, and nothing asked."""
        texts = []
        for fn in {"grow": (grow, grow_on_names), "shrink": (shrink, shrink_on_names)}[phase]:
            o = example1.oracle()
            with pytest.raises(OracleError) as err:
                fn(o, target, **kwargs)
            assert o.query_count == 0
            texts.append(str(err.value))
        assert texts[0] == texts[1]


class TestAskLog:
    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_each_step_is_one_ask_on_its_masks(self, name):
        """With ``_ask`` wrapped, every trace step is exactly one ``_ask``
        call, in trace order, on the masks of its target, candidate and
        conditioning set; and ``query`` is never entered."""
        o = builtin(name).oracle()
        log, ask = [], o._ask
        o._ask = lambda mx, my, ms: log.append((mx, my, ms)) or ask(mx, my, ms)
        o.query = None  # any call through query would raise TypeError

        def mask(names):
            return sum(1 << o._index[v] for v in names)

        for mode in ("modified", "classic"):
            for target in o.variables:
                log.clear()
                _, trace = markov_blanket(o, target, mode=mode)
                assert log == [(mask([target]), mask([step.candidate]),
                                mask(step.conditioning)) for step in trace]
