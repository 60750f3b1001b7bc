"""Grow-shrink Markov blanket recovery, modified and classic."""

import itertools

import pytest

from kassoc.audit import audit_scenario
from kassoc.growshrink import GsStep, grow, markov_blanket, shrink
from kassoc.oracle import DiscreteOracle, GraphOracle, OracleError
from kassoc.scenarios import builtin
from references import replay_consistent


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
