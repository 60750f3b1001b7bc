"""Oracle layer: caching, counting, and backend agreement."""

import contextlib
import itertools
import random
import re
import sys
from unittest import mock

import pytest

from conftest import random_cpt_net
from references import inverse_partial_correlation_zero, random_dag, random_sem
from kassoc import gaussian, gtest
from kassoc.association import find_unfaithful_triples, weak_associations
from kassoc.distribution import DiscreteJoint, DistributionError
from kassoc.graph import Dag, GraphError
from kassoc.growshrink import markov_blanket
from kassoc.gtest import GTestConfig, g_test
from kassoc.oracle import (
    DiscreteOracle,
    GaussianOracle,
    GraphOracle,
    GTestOracle,
    OracleError,
)
from kassoc.scenarios import builtin


def test_query_counts_cache_hits_once(example1):
    o = DiscreteOracle(example1.joint)
    assert o.query_count == 0
    o.query("X", "Y")
    o.query("Y", "X")  # symmetric, cached
    o.query("X", "Y", ())
    assert o.query_count == 1


@contextlib.contextmanager
def calls_of(owner, attr):
    """Count the calls of ``owner.attr``, each passed through: a method on
    its class, a function in every kassoc module that binds it by that
    name, so an oracle's own import of it is counted too."""
    fn = vars(owner)[attr]
    spy = mock.create_autospec(fn, side_effect=fn)
    homes = [owner] if isinstance(owner, type) else [
        m for k, m in sorted(sys.modules.items())
        if k.split(".")[0] == "kassoc" and vars(m).get(attr) is fn]
    with contextlib.ExitStack() as stack:
        for home in homes:
            stack.enter_context(mock.patch.object(home, attr, spy))
        yield spy


@pytest.mark.parametrize("backend,kernel,twin", [
    ("discrete", (DiscreteJoint, "_independent"), (DiscreteJoint, "is_independent_sets")),
    ("gaussian", (gaussian._Minors, "independent"), (gaussian, "partial_correlation_zero")),
    ("gtest", (gtest, "_g_test"), (gtest, "g_test")),
], ids=["discrete", "gaussian", "gtest"])
def test_every_backend_call_enters_its_mask_kernel_once(all_builtins, backend, kernel, twin):
    """Each backend call of an oracle, pairwise or set, is one call of its
    backend's mask-level kernel, on the oracle's own table or lattice, and
    none of the backend's name-level entry, which builds its own table or
    lattice per call, so ``query_count`` counts exactly the kernel calls
    (and a trace of the kernel counts the backend calls); cache hits reach
    neither.  The G-test oracles run on 300
    samples of each discrete builtin."""
    for name, scenario in all_builtins.items():
        if scenario.kind != ("discrete" if backend == "gtest" else backend):
            continue
        if backend == "gtest":
            o = GTestOracle(scenario.joint.sample(300, seed=1))
        else:
            o = scenario.oracle()
        with calls_of(*kernel) as core, calls_of(*twin) as name_level_call:
            for v in o.variables:
                markov_blanket(o, v)
                weak_associations(o, v)
            if backend == "discrete":  # the one backend the triple search takes
                find_unfaithful_triples(o)
            for x, y in itertools.combinations(o.variables, 2):
                o.query(y, x)  # cached by now
                if backend != "gtest":
                    rest = [v for v in o.variables if v not in (x, y)]
                    o.query_sets([x], [y], rest)
                    o.query_sets([x], [y], rest)  # set queries are not cached
        assert core.call_count == o.query_count > 0, name
        assert name_level_call.call_count == 0, name
        table = getattr(o, {"discrete": "joint", "gaussian": "_minors", "gtest": "dataset"}[backend])
        assert all(c.args[0] is table for c in core.call_args_list), name


@pytest.mark.parametrize(
    "given", [lambda: ("Y",), lambda: "Y", lambda: ["Y"], lambda: {"Y"}, lambda: (v for v in ["Y"])],
    ids=["tuple", "str", "list", "set", "generator"],
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


def every_backend():
    cancel4 = builtin("cancel4")
    return {
        "graph": GraphOracle(cancel4.dag),
        "discrete": DiscreteOracle(builtin("example2").joint),
        "gaussian": GaussianOracle(cancel4.gaussian),
        "gtest": GTestOracle(builtin("example2").joint.sample(200, seed=1)),
    }


EMPTY = "query sets must be non-empty"
OVERLAP = "query sets must be pairwise disjoint and repeat no variable"
UNKNOWN_Q = "unknown variable 'Q'"


@pytest.mark.parametrize("backend,error", [
    ("graph", OracleError), ("discrete", OracleError), ("gaussian", OracleError),
    ("gtest", OracleError),
])
@pytest.mark.parametrize("xs,ys,s,message", [
    (set(), {"Y"}, (), EMPTY),
    ({"X"}, (), (), EMPTY),
    ({"X"}, {"Q"}, (), UNKNOWN_Q),
    ({"X"}, {"Y"}, {"Q"}, UNKNOWN_Q),
    ({"X"}, {"X", "Y"}, (), OVERLAP),
    ({"X"}, {"Y"}, {"X"}, OVERLAP),
    (["X", "X"], ["Y"], (), OVERLAP),
    ((), ("Q",), (), EMPTY),
], ids=["empty-xs", "empty-ys", "unknown-side", "unknown-given",
        "overlapping-sides", "side-in-given", "repeated-in-side",
        "empty-before-unknown"])
def test_set_query_rejects_malformed_input(backend, error, xs, ys, s, message):
    """Each malformed set query raises its exact text, the G-test backend
    refusing set queries first; empty sides are named before unknown names
    and those before overlaps."""
    oracle = every_backend()[backend]
    assert {"X", "Y"} <= set(oracle.variables)
    if backend == "gtest":
        message = "gtest backend does not support set queries"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        oracle.query_sets(xs, ys, s)
    assert oracle.query_count == 0  # a rejected query is not counted


# -- the mask path against the name-level backend calls ------------------------


def name_level(o):
    """The slow twin of ``o._query``: the backend's own call on names, which
    looks every name up and checks the sets again."""
    if isinstance(o, GraphOracle):
        return o.dag.d_separated
    if isinstance(o, DiscreteOracle):
        return o.joint.is_independent_sets
    if isinstance(o, GaussianOracle):
        # Gauss-Jordan on Fractions, one pair at a time: no code in common
        # with the minors lattice the oracle reads
        cov = o.system.covariance()
        pos = {v: i for i, v in enumerate(o.system.nodes)}
        return lambda xs, ys, s: all(
            inverse_partial_correlation_zero(cov, pos[x], pos[y], [pos[v] for v in s])
            for x in xs for y in ys)
    assert isinstance(o, GTestOracle)
    return lambda xs, ys, s: g_test(o.dataset, *xs, *ys, s, o.config).independent


def assert_mask_path_agrees(o, rng, set_queries=40):
    """Every pairwise query, each pair in both orientations and with the
    conditioning set in reverse, answers as the name-level call; a query is
    counted once, on its first asking, and answered from the cache after.
    Then ``set_queries`` seeded set queries, each counted."""
    twin, names = name_level(o), o.variables
    asked = set()
    for x, y in itertools.permutations(names, 2):
        rest = [v for v in names if v not in (x, y)]
        for r in range(len(rest) + 1):
            for s in itertools.combinations(rest, r):
                key = frozenset((x, y)), frozenset(s)
                before = o.query_count
                assert o.query(x, y, s[::-1]) == twin([x], [y], s), (x, y, s)
                assert o.query_count == before + (key not in asked)
                asked.add(key)
    assert o.query_count == len(asked) == len(names) * (len(names) - 1) * 2 ** len(names) // 8
    if isinstance(o, GTestOracle):
        return
    for _ in range(set_queries):
        roles = [rng.choice("xys-") for _ in names]
        xs, ys, s = ([v for v, r in zip(names, roles) if r == k] for k in "xys")
        if not xs or not ys:
            continue
        before = o.query_count
        assert o.query_sets(xs, ys, s) == twin(xs, ys, s), (xs, ys, s)
        assert o.query_count == before + 1  # set queries are not cached


@pytest.mark.parametrize("name", ["example1", "example2", "chain", "fork", "collider",
                                  "xor_chain", "noncollider_xor", "transitivity_failure",
                                  "coins", "cancel3", "cancel4"])
def test_mask_path_agrees_on_every_builtin(name):
    scenario = builtin(name)
    rng = random.Random(f"masks:{name}")
    assert_mask_path_agrees(scenario.oracle(), rng)
    assert_mask_path_agrees(GraphOracle(scenario.dag), rng)


@pytest.mark.parametrize("n", range(2, 8))
def test_mask_path_agrees_on_random_dags(n):
    """Graph oracles, and from 5 nodes on linear-Gaussian ones too, whose
    set queries mostly put two or more nodes on a side."""
    for seed in range(3):
        rng = random.Random(f"masks:dag:{n}:{seed}")
        assert_mask_path_agrees(GraphOracle(random_dag(rng, n)), rng)
        if n >= 5:
            assert_mask_path_agrees(GaussianOracle(random_sem(rng, n)), rng)


@pytest.mark.parametrize("seed", range(6))
def test_mask_path_agrees_on_random_joints(seed):
    """Cardinalities 1-3, entries k/12, so most joints have zero cells."""
    rng = random.Random(f"masks:joint:{seed}")
    n = 3 + seed % 3
    dag, cpts = random_cpt_net(rng, n, n + 1, 2, cards=(1, 2, 3))
    joint = DiscreteJoint.from_cpts(dag, cpts)
    assert_mask_path_agrees(DiscreteOracle(joint), rng)


@pytest.mark.parametrize("name", ["example1", "example2", "xor_chain"])
def test_mask_path_agrees_on_a_gtest_dataset(name):
    dataset = builtin(name).joint.sample(500, seed=3)
    o = GTestOracle(dataset, GTestConfig(alpha=0.05))
    assert_mask_path_agrees(o, random.Random(0))


# -- one validation, the same texts on every backend ----------------------------


@pytest.mark.parametrize("backend", ["graph", "discrete", "gaussian", "gtest"])
@pytest.mark.parametrize("x,y,s,message", [
    ("Q", "Y", (), UNKNOWN_Q),
    ("X", "Q", (), UNKNOWN_Q),
    ("X", "Y", ("Z", "Q"), UNKNOWN_Q),
    ("Q", "R", (), UNKNOWN_Q),
    ("X", "Y", ("R", "Q"), "unknown variable 'R'"),  # the caller's order
    ("X", "Y", ("Q", "R"), UNKNOWN_Q),
    ("X", "Y", ("X",), OVERLAP),
    ("X", "X", (), OVERLAP),
    ("X", "Y", ("Y", "Z"), OVERLAP),
    ("X", "Y", ("Z", "Z"), OVERLAP),
    ("X", "X", ("Q",), UNKNOWN_Q),  # unknown names before overlap
], ids=["unknown-x", "unknown-y", "unknown-in-s", "two-unknown-sides", "two-unknown-in-s",
        "two-unknown-in-s-swapped", "x-in-s", "x-is-y", "y-in-s", "repeated-in-s",
        "unknown-before-overlap"])
def test_a_malformed_query_raises_its_exact_text(backend, x, y, s, message):
    """Through ``query`` and ``query_sets`` alike; of two unknown names in s
    the first in the caller's order is named."""
    o = every_backend()[backend]
    assert {"X", "Y", "Z"} <= set(o.variables) and not {"Q", "R"} & set(o.variables)
    with pytest.raises(OracleError, match=f"^{re.escape(message)}$"):
        o.query(x, y, s)
    if backend == "gtest":
        message = "gtest backend does not support set queries"
    with pytest.raises(OracleError, match=f"^{re.escape(message)}$"):
        o.query_sets([x], [y], s)
    assert o.query_count == 0  # a rejected query is not counted


def name_level_entry_points():
    """Every name-level CI entry point, with the error class it raises:
    the set queries of the oracles that take them, and the tables' own."""
    cancel4, example2 = builtin("cancel4"), builtin("example2")
    data = example2.joint.sample(200, seed=1)
    backends = every_backend()
    return {
        **{f"{b}.query_sets": (backends[b].query_sets, OracleError)
           for b in ("graph", "discrete", "gaussian")},
        "Dag.d_separated": (cancel4.dag.d_separated, GraphError),
        "DiscreteJoint.is_independent_sets":
            (example2.joint.is_independent_sets, DistributionError),
        "g_test": (lambda xs, ys, s: g_test(data, *xs, *ys, s), DistributionError),
    }


MALFORMED = {
    "empty-xs": ((), ("Y",), (), EMPTY),
    "empty-ys-before-unknown": (("X",), (), ("Q",), EMPTY),
    "unknown-in-xs": (("Q",), ("Y",), (), UNKNOWN_Q),
    "unknown-in-ys": (("X",), ("Q",), (), UNKNOWN_Q),
    "unknown-in-s": (("X",), ("Y",), ("Z", "Q"), UNKNOWN_Q),
    "overlap-with-s": (("X",), ("Y",), ("X",), OVERLAP),
    "overlapping-sides": (("X",), ("X",), (), OVERLAP),
    "repeat-in-xs": (("X", "X"), ("Y",), (), OVERLAP),
    "repeat-in-s": (("X",), ("Y",), ("Z", "Z"), OVERLAP),
}
ENTRY_POINTS = ["graph.query_sets", "discrete.query_sets", "gaussian.query_sets",
                "Dag.d_separated", "DiscreteJoint.is_independent_sets", "g_test"]


@pytest.mark.parametrize("entry,xs,ys,s,message", [
    pytest.param(entry, *query, id=f"{entry}-{case}")
    for entry in ENTRY_POINTS for case, query in MALFORMED.items()
    # g_test takes one name per side, so no other shape can reach it
    if entry != "g_test" or len(query[0]) == len(query[1]) == 1
])
def test_every_entry_point_refuses_a_malformed_query_alike(entry, xs, ys, s, message):
    """One rule (``graph.query_masks``): the same text from every entry
    point, each with its own error class."""
    call, error = name_level_entry_points()[entry]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(xs, ys, s)


@pytest.mark.parametrize("backend", ["graph", "discrete", "gaussian", "gtest"])
@pytest.mark.parametrize("s,message", [
    (("Z", "Q"), UNKNOWN_Q),
    (("Z", "Z"), OVERLAP),
], ids=["unknown", "repeated"])
def test_a_one_shot_conditioning_set_raises_the_tuple_text(backend, s, message):
    """``query`` reads a generator once, so the check that words the error
    sees every name of it, as it sees a tuple's."""
    o = every_backend()[backend]
    for given in (s, (v for v in s)):
        with pytest.raises(OracleError, match=f"^{re.escape(message)}$"):
            o.query("X", "Y", given)
    assert o.query_count == 0
