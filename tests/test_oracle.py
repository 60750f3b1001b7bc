"""Oracle layer: caching, counting, and backend agreement."""

import itertools
from unittest import mock

import pytest

from kassoc.association import find_unfaithful_triples, weak_associations
from kassoc.distribution import DiscreteJoint
from kassoc.graph import Dag
from kassoc.growshrink import markov_blanket
from kassoc.oracle import (
    DiscreteOracle,
    GaussianOracle,
    GraphOracle,
    OracleError,
)


def test_query_counts_cache_hits_once(example1):
    o = DiscreteOracle(example1.joint)
    assert o.query_count == 0
    o.query("X", "Y")
    o.query("Y", "X")  # symmetric, cached
    o.query("X", "Y", ())
    assert o.query_count == 1


def test_every_discrete_backend_call_enters_the_joint_kernel_once(all_builtins):
    """Each backend call of a discrete oracle, pairwise or set, is one
    ``DiscreteJoint.is_independent_sets`` call, so ``query_count`` counts
    exactly the kernel calls (and a trace of the kernel counts the backend
    calls); cache hits reach neither."""
    for name, scenario in all_builtins.items():
        if scenario.kind != "discrete":
            continue
        o = DiscreteOracle(scenario.joint)
        with mock.patch.object(DiscreteJoint, "is_independent_sets", autospec=True,
                               side_effect=DiscreteJoint.is_independent_sets) as kernel:
            for v in o.variables:
                markov_blanket(o, v)
                weak_associations(o, v)
            find_unfaithful_triples(o)
            for x, y in itertools.combinations(o.variables, 2):
                o.query(y, x)  # cached by now
                rest = [v for v in o.variables if v not in (x, y)]
                o.query_sets([x], [y], rest)
                o.query_sets([x], [y], rest)  # set queries are not cached
        assert kernel.call_count == o.query_count > 0, name
        assert all(c.args[0] is scenario.joint for c in kernel.call_args_list), name


@pytest.mark.parametrize(
    "given", [lambda: ("Y",), lambda: {"Y"}, lambda: (v for v in ["Y"])],
    ids=["tuple", "set", "generator"],
)
def test_conditioning_set_may_be_any_iterable(example1, given):
    o = DiscreteOracle(example1.joint)
    assert o.query("X", "Z", given()) is False  # the xor collider couples X, Z
    assert o.query("X", "Z", given()) is False
    assert o.query_count == 1


def test_query_validates_variables(example1):
    o = DiscreteOracle(example1.joint)
    with pytest.raises(OracleError):
        o.query("X", "Q")
    with pytest.raises(OracleError):
        o.query("X", "X")
    with pytest.raises(OracleError):
        o.query("X", "Y", {"X"})


def test_graph_oracle_answers_dsep():
    dag = Dag(["A", "B", "C"], [("A", "B"), ("B", "C")])
    o = GraphOracle(dag)
    assert o.query("A", "C", {"B"})
    assert not o.query("A", "C")
    assert o.query_sets({"A"}, {"C"}, {"B"})


def test_discrete_oracle_matches_graph_on_faithful_scenario(all_builtins):
    s = all_builtins["chain"]
    graph, exact = GraphOracle(s.dag), DiscreteOracle(s.joint)
    import itertools

    for x, y in itertools.combinations(s.dag.nodes, 2):
        rest = [v for v in s.dag.nodes if v not in (x, y)]
        for r in range(len(rest) + 1):
            for cond in itertools.combinations(rest, r):
                assert graph.query(x, y, cond) == exact.query(x, y, cond)


def test_gaussian_oracle_cancellation(all_builtins):
    o = GaussianOracle(all_builtins["cancel3"].gaussian)
    assert o.query("X", "Y")
    assert not o.query("X", "Y", {"Z"})


def test_gaussian_set_query(all_builtins):
    o = GaussianOracle(all_builtins["cancel4"].gaussian)
    assert not o.query_sets({"X", "Z"}, {"W", "Y"})


@pytest.mark.parametrize("backend,error", [
    ("graph", OracleError), ("discrete", OracleError), ("gaussian", OracleError),
])
@pytest.mark.parametrize("xs,ys,s", [
    (set(), {"Y"}, ()),
    ({"X"}, (), ()),
    ({"X"}, {"Q"}, ()),
    ({"X"}, {"Y"}, {"Q"}),
    ({"X"}, {"X", "Y"}, ()),
    ({"X"}, {"Y"}, {"X"}),
    (["X", "X"], ["Y"], ()),
], ids=["empty-xs", "empty-ys", "unknown-side", "unknown-given",
        "overlapping-sides", "side-in-given", "repeated-in-side"])
def test_set_query_rejects_malformed_input(all_builtins, backend, error, xs, ys, s):
    oracle = {
        "graph": lambda: GraphOracle(all_builtins["cancel4"].dag),
        "discrete": lambda: DiscreteOracle(all_builtins["example2"].joint),
        "gaussian": lambda: GaussianOracle(all_builtins["cancel4"].gaussian),
    }[backend]()
    assert {"X", "Y"} <= set(oracle.variables)
    with pytest.raises(error):
        oracle.query_sets(xs, ys, s)
    assert oracle.query_count == 0  # a rejected query is not counted
