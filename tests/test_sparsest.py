"""Sparsest-permutation search, checked against the factorial reference."""

import itertools
import random

import pytest

from conftest import random_cpt_net
from references import enumerate_dags, random_dag
from kassoc.graph import Dag
from kassoc.oracle import DiscreteOracle, GraphOracle, GTestOracle, OracleError
from kassoc.scenarios import BUILTINS, Scenario, builtin
from kassoc.sparsest import (PermutationDag, dag_from_permutation, minimizer_dicts,
                             sparsest_permutations)


def factorial_sparsest(o):
    """The reference search: every permutation, each DAG built by
    ``dag_from_permutation``; minimizers in lexicographic order."""
    results = []
    best = None
    for perm in itertools.permutations(o.variables):
        pdag = dag_from_permutation(o, perm)
        if best is None or pdag.edge_count < best:
            best = pdag.edge_count
            results = [(perm, pdag)]
        elif pdag.edge_count == best:
            results.append((perm, pdag))
    return results


def recording(o):
    """``o`` with its backend calls, as (x, y, s), collected in a set."""
    calls, answer = set(), o._query

    def _query(x, y, s):
        calls.add((x, y, s))
        return answer(x, y, s)

    o._query = _query
    return o, calls


def assert_agrees(make_oracle):
    """Same minimizers, same order, same edges, same backend calls: each
    pair reaches the backend in the same orientation, with the same
    conditioning set, not just the same number of times."""
    (o, calls), (ref, ref_calls) = recording(make_oracle()), recording(make_oracle())
    got, want = sparsest_permutations(o), factorial_sparsest(ref)
    assert [(p, d.to_dict()) for p, d in got] == [(p, d.to_dict()) for p, d in want]
    assert [d.edges for _, d in got] == [d.edges for _, d in want]
    assert o.query_count == ref.query_count == len(calls)
    assert calls == ref_calls


LABELS = {"V0": "D", "V1": "B", "V2": "C", "V3": "A"}


def relabelled(dag):
    """``dag`` over labels whose string order is not the node order, so
    lexicographic must mean variable order, not label order."""
    return Dag([LABELS[v] for v in dag.nodes],
               [(LABELS[a], LABELS[b]) for a, b in dag.edges])


class TestPermutationDags:
    def test_chain_in_causal_order(self):
        o = DiscreteOracle(builtin("chain").joint)
        pdag = dag_from_permutation(o, ("X", "Y", "Z"))
        assert set(pdag.edges) == {("X", "Y"), ("Y", "Z")}

    def test_chain_reversed_is_equally_sparse(self):
        o = DiscreteOracle(builtin("chain").joint)
        pdag = dag_from_permutation(o, ("Z", "Y", "X"))
        assert pdag.edge_count == 2

    def test_edge_rule_uses_prefix_minus_source(self):
        o = DiscreteOracle(builtin("collider").joint)
        # collider in causal order: Y last, conditioning on the full prefix
        pdag = dag_from_permutation(o, ("X", "Z", "Y"))
        assert set(pdag.edges) == {("X", "Y"), ("Z", "Y")}


class TestPermutationDagContract:
    """``PermutationDag`` is a ``NamedTuple`` of the permutation and the
    frozen edge set: compared, hashed and shown as that tuple, and
    immutable."""

    PDAG = PermutationDag(("X", "Z", "Y"), frozenset({("X", "Y"), ("Z", "Y")}))

    def test_equality_and_hash(self):
        same = PermutationDag(("X", "Z", "Y"), frozenset({("Z", "Y"), ("X", "Y")}))
        other = PermutationDag(("Z", "X", "Y"), self.PDAG.edges)
        assert self.PDAG == same and hash(self.PDAG) == hash(same)
        assert self.PDAG != other
        assert len({self.PDAG, same, other}) == 2
        assert self.PDAG == (self.PDAG.permutation, self.PDAG.edges)

    def test_fields_repr_and_edge_count(self):
        assert PermutationDag._fields == ("permutation", "edges")
        permutation, edges = self.PDAG
        assert permutation == ("X", "Z", "Y") and edges == {("X", "Y"), ("Z", "Y")}
        assert repr(self.PDAG) == (f"PermutationDag(permutation=('X', 'Z', 'Y'), "
                                   f"edges={self.PDAG.edges!r})")
        assert self.PDAG.edge_count == 2

    def test_to_dict(self):
        assert self.PDAG.to_dict() == {
            "permutation": ["X", "Z", "Y"], "edges": ["X->Y", "Z->Y"], "edge_count": 2}

    @pytest.mark.parametrize("field", ["permutation", "edges", "edge_count", "other"])
    def test_assignment_raises(self, field):
        with pytest.raises(AttributeError):
            setattr(self.PDAG, field, ())

    def test_minimizers_of_one_dag_share_one_edge_set(self):
        # the empty graph on four nodes: 24 minimizers, one DAG
        got = sparsest_permutations(GraphOracle(Dag(["A", "B", "C", "D"], [])))
        assert len(got) == 24
        assert all(d.edges is got[0][1].edges and d.permutation is p for p, d in got)
        for name in sorted(BUILTINS):
            got = sparsest_permutations(builtin(name).oracle())
            first = {}
            for _, d in got:
                assert first.setdefault(d.edges, d.edges) is d.edges, name


class TestExampleTwoWalkthrough:
    """Every ordering of the four variables of the contextual xor."""

    @pytest.fixture()
    def minimizers(self, example2):
        return sparsest_permutations(DiscreteOracle(example2.joint))

    def test_minimum_edge_count_is_three(self, minimizers):
        assert minimizers[0][1].edge_count == 3

    def test_causal_order_recovers_the_graph(self, example2):
        o = DiscreteOracle(example2.joint)
        pdag = dag_from_permutation(o, ("X", "Z", "W", "Y"))
        assert set(pdag.edges) == {("X", "Y"), ("Z", "Y"), ("W", "Y")}

    def test_listed_suboptimal_permutations(self, example2):
        o = DiscreteOracle(example2.joint)
        assert dag_from_permutation(o, ("X", "Z", "Y", "W")).edge_count == 5
        assert dag_from_permutation(o, ("Z", "W", "Y", "X")).edge_count == 4

    def test_every_minimizer_puts_y_last(self, minimizers):
        for perm, _ in minimizers:
            assert perm[-1] == "Y"


def test_guard_rejects_large_variable_sets():
    # the bound is the listing: an empty graph on 9 nodes has 9! minimizers
    nodes = [f"v{i}" for i in range(9)]
    o = GraphOracle(Dag(nodes, []))
    with pytest.raises(OracleError, match=r"listed for at most 8 variables "
                                          r"\(an empty graph on 9 has 9! = 362880 of them\)"):
        sparsest_permutations(o)


# eight labels in reverse string order, so variable order is not label order
EIGHT = [chr(ord("Z") - i) for i in range(8)]


def test_eight_node_empty_dag_lists_every_order():
    # the most minimizers the guard allows: all 8! orders, one edge set
    o = GraphOracle(Dag(EIGHT, []))
    got = sparsest_permutations(o)
    assert [p for p, _ in got] == list(itertools.permutations(o.variables))
    assert all(d.permutation == p and d.edge_count == 0 for p, d in got)


def test_eight_node_complete_dag_gives_one_dag_per_order():
    # the most distinct minimizer DAGs: every order induces its own
    o = GraphOracle(Dag(EIGHT, list(itertools.combinations(EIGHT, 2))))
    got = sparsest_permutations(o)
    assert [p for p, _ in got] == list(itertools.permutations(o.variables))
    assert all(d.permutation == p and d.edges == set(itertools.combinations(p, 2))
               for p, d in got)
    assert len({d.edges for _, d in got}) == 40320


def test_minimizer_dicts_write_each_dag_as_its_to_dict():
    # each distinct edge set is formatted once; some builtins have several
    # minimizers of one DAG
    shared = 0
    for name in sorted(BUILTINS):
        got = sparsest_permutations(builtin(name).oracle())
        assert minimizer_dicts(got) == [
            {"permutation": list(p), "dag": d.to_dict()} for p, d in got]
        shared += len(got) - len({d.edges for _, d in got})
    assert shared > 0


class TestAgreesWithFactorialSearch:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_small_dag(self, n):
        dags = [relabelled(dag) for dag in enumerate_dags(n)]
        assert len(dags) == {1: 1, 2: 3, 3: 25, 4: 543}[n]
        for dag in dags:
            assert_agrees(lambda: GraphOracle(dag))

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_builtin_exact_oracle(self, name):
        scenario = builtin(name)
        assert_agrees(scenario.oracle)

    @pytest.mark.parametrize("name", ["example2", "coins", "xor_chain"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_gtest_oracle(self, name, seed):
        data = builtin(name).joint.sample(500, seed)
        assert_agrees(lambda: GTestOracle(data))

    @pytest.mark.parametrize("seed", range(3))
    def test_random_seven_node_dags(self, seed):
        dag = random_dag(random.Random(f"sparsest:{seed}"), 7)
        assert_agrees(lambda: GraphOracle(dag))

    def test_seven_node_discrete_joint(self):
        dag, cpts = random_cpt_net(random.Random("sparsest:discrete"), 7, 9, 3)
        scenario = Scenario("net", dag, "discrete", cpts=tuple(cpts))
        assert_agrees(scenario.oracle)

    def test_one_eight_node_dag(self):
        dag = random_dag(random.Random("sparsest:8"), 8)
        assert_agrees(lambda: GraphOracle(dag))


class CountingOracle(GraphOracle):
    """Counts every ``_ask`` call, cache hits included."""

    calls = 0

    def _ask(self, mx, my, ms):
        self.calls += 1
        return super()._ask(mx, my, ms)


def test_no_variables_give_one_empty_minimizer():
    # the DP and the moves at full == 0: one mask, nothing to ask or walk
    o = CountingOracle(Dag([], []))
    assert [(p, d.to_dict()) for p, d in sparsest_permutations(o)] == [
        ((), {"permutation": [], "edges": [], "edge_count": 0})]
    assert o.calls == o.query_count == 0


def test_search_is_not_factorial():
    # one call per unordered pair and conditioning set: n(n-1)2^(n-3) = 672
    # at n = 7; the factorial search makes 105,840
    o = CountingOracle(random_dag(random.Random("sparsest:count"), 7))
    sparsest_permutations(o)
    assert o.calls == o.query_count == 7 * 6 * 2 ** 4


class QueryLog(GraphOracle):
    """Logs every ``_ask`` call, cache hits included, and every backend
    call, each in call order and each as ``(x, y, frozenset(s))`` names
    decoded from its position masks."""

    def __init__(self, dag):
        super().__init__(dag)
        self.queries, self.backend_calls = [], []

    def _decode(self, mx, my, ms):
        names = self.dag._ordered
        (x,), (y,) = names(mx), names(my)
        return x, y, frozenset(names(ms))

    def _ask(self, mx, my, ms):
        self.queries.append(self._decode(mx, my, ms))
        return super()._ask(mx, my, ms)

    def _query(self, mx, my, ms):
        self.backend_calls.append(self._decode(mx, my, ms))
        return super()._query(mx, my, ms)


@pytest.mark.parametrize("n", range(2, 8))
@pytest.mark.parametrize("seed", range(2))
def test_one_query_per_pair_and_conditioning_set(n, seed):
    base = random_dag(random.Random(f"sparsest:mirror:{n}:{seed}"), n)
    # labels in reverse string order, so variable order is not label order
    label = {v: chr(ord("Z") - i) for i, v in enumerate(base.nodes)}
    dag = Dag([label[v] for v in base.nodes], [(label[a], label[b]) for a, b in base.edges])
    o, ref = QueryLog(dag), QueryLog(dag)
    got, want = sparsest_permutations(o), factorial_sparsest(ref)
    assert [(p, d.to_dict()) for p, d in got] == [(p, d.to_dict()) for p, d in want]
    pos = {v: i for i, v in enumerate(o.variables)}
    assert all(pos[x] < pos[y] for x, y, _ in o.queries)
    assert len(set(o.queries)) == len(o.queries) == o.query_count == n * (n - 1) * 2 ** n // 8
    # every query is a miss, met in the same orientation as by the factorial
    # search, and asked in descending order of its prefix set T + {y}, then
    # in ascending order of v = x, then of the candidate u = y
    assert o.backend_calls == o.queries
    assert set(o.backend_calls) == set(ref.backend_calls)

    def visit(call):
        x, y, s = call
        return -sum(1 << pos[v] for v in s | {y}), pos[x], pos[y]

    assert o.backend_calls == sorted(o.backend_calls, key=visit)
