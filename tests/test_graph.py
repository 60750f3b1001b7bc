"""DAG structure, d-separation and small-graph enumeration."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kassoc.graph import Dag, GraphError, KERNEL, MAX_NODES, ancestor_mask, dconnected
from references import (
    _ancestors,
    check_path,
    d_separated_bruteforce,
    enumerate_dags,
    is_collider,
    random_dag,
    simple_paths,
)

CHAIN = Dag(["X", "Y", "Z"], [("X", "Y"), ("Y", "Z")])
FORK = Dag(["X", "Y", "Z"], [("Y", "X"), ("Y", "Z")])
COLLIDER = Dag(["X", "Y", "Z"], [("X", "Y"), ("Z", "Y")])


class TestConstruction:
    def test_rejects_cycle(self):
        with pytest.raises(GraphError):
            Dag(["A", "B"], [("A", "B"), ("B", "A")])

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Dag(["A"], [("A", "A")])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(GraphError):
            Dag(["A", "A"], [])

    def test_rejects_duplicate_edges(self):
        with pytest.raises(GraphError):
            Dag(["A", "B"], [("A", "B"), ("A", "B")])

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(GraphError):
            Dag(["A", "B"], [("A", "C")])

    def test_rejects_too_many_nodes(self):
        labels = [f"v{i}" for i in range(MAX_NODES + 1)]
        with pytest.raises(GraphError):
            Dag(labels, [])

    def test_edges_are_label_sorted(self):
        dag = Dag(["Z", "Y", "X"], [("Z", "Y"), ("X", "Y"), ("X", "Z")])
        assert dag.edges == (("X", "Y"), ("X", "Z"), ("Z", "Y"))

    def test_equality_is_structural(self):
        other = Dag(["X", "Y", "Z"], [("X", "Y"), ("Y", "Z")])
        assert other == CHAIN
        assert COLLIDER != CHAIN


class TestRelations:
    def test_parents_children(self):
        assert COLLIDER.parents("Y") == {"X", "Z"}
        assert COLLIDER.children("X") == {"Y"}
        assert COLLIDER.parents("X") == set()

    def test_ancestors_are_reflexive(self):
        assert CHAIN.ancestors("Z") == {"X", "Y", "Z"}
        assert CHAIN.descendants("X") == {"X", "Y", "Z"}

    def test_non_descendants(self):
        assert CHAIN.non_descendants("Y") == {"X"}

    def test_markov_blanket_includes_spouses(self):
        dag = Dag(["T", "C", "S"], [("T", "C"), ("S", "C")])
        assert dag.markov_blanket("T") == {"C", "S"}

    def test_markov_blanket_chain(self):
        assert CHAIN.markov_blanket("Y") == {"X", "Z"}

    def test_topological_order_respects_edges(self):
        order = CHAIN.topological_order()
        assert order.index("X") < order.index("Y") < order.index("Z")

    def test_adjacent_is_symmetric(self):
        assert CHAIN.adjacent("X", "Y") and CHAIN.adjacent("Y", "X")
        assert not CHAIN.adjacent("X", "Z")

    def test_local_markov_statements(self):
        # every 4-node DAG, also with its node order reversed so that graph
        # order differs from label order
        for base in enumerate_dags(4):
            for dag in (base, Dag(base.nodes[::-1], base.edges)):
                expected = []
                for v in dag.nodes:
                    parents = dag.parents(v)
                    skip = parents | dag.descendants(v)
                    rest = [u for u in dag.nodes if u not in skip]
                    if rest:
                        expected.append((v, rest, [u for u in dag.nodes if u in parents]))
                assert list(dag.local_markov_statements()) == expected


class TestPaths:
    def test_collider_detection(self):
        assert is_collider(COLLIDER, ["X", "Y", "Z"], 1)
        assert not is_collider(CHAIN, ["X", "Y", "Z"], 1)

    def test_collider_rejects_endpoints(self):
        with pytest.raises(GraphError):
            is_collider(COLLIDER, ["X", "Y", "Z"], 0)

    def test_simple_paths_undirected_sense(self):
        paths = set(simple_paths(CHAIN, "X", "Z"))
        assert paths == {("X", "Y", "Z")}

    def test_check_path_rejects_nonedges(self):
        with pytest.raises(GraphError):
            check_path(CHAIN, ["X", "Z"])


class TestDSeparation:
    def test_chain_blocked_by_middle(self):
        assert CHAIN.d_separated({"X"}, {"Z"}, {"Y"})
        assert not CHAIN.d_separated({"X"}, {"Z"})

    def test_fork_blocked_by_root(self):
        assert FORK.d_separated({"X"}, {"Z"}, {"Y"})
        assert not FORK.d_separated({"X"}, {"Z"})

    def test_collider_opens_when_conditioned(self):
        assert COLLIDER.d_separated({"X"}, {"Z"})
        assert not COLLIDER.d_separated({"X"}, {"Z"}, {"Y"})

    def test_collider_opens_via_descendant(self):
        dag = Dag(["X", "Y", "Z", "D"], [("X", "Y"), ("Z", "Y"), ("Y", "D")])
        assert not dag.d_separated({"X"}, {"Z"}, {"D"})

    def test_set_query_decomposes_pairwise(self):
        dag = Dag(["A", "B", "C", "D"], [("A", "C"), ("B", "C"), ("C", "D")])
        assert dag.d_separated({"A", "B"}, {"D"}, {"C"})
        assert not dag.d_separated({"A", "B"}, {"D"})

    def test_rejects_overlapping_sets(self):
        with pytest.raises(GraphError):
            CHAIN.d_separated({"X"}, {"X"})
        with pytest.raises(GraphError):
            CHAIN.d_separated({"X"}, {"Z"}, {"X"})

    def test_rejects_empty_sides(self):
        with pytest.raises(GraphError):
            CHAIN.d_separated(set(), {"Z"})

    def test_error_texts(self):
        with pytest.raises(GraphError, match=r"^unknown node 'Q'$"):
            CHAIN.d_separated({"X"}, {"Z"}, ["Q"])
        with pytest.raises(GraphError, match=r"^query sets must be non-empty$"):
            CHAIN.d_separated({"X"}, ())
        with pytest.raises(GraphError, match=r"^query sets must be pairwise disjoint$"):
            CHAIN.d_separated({"X"}, {"Z"}, {"Z"})

    def test_repeated_names_count_once(self):
        assert CHAIN.d_separated(["X", "X"], ("Z",), ["Y", "Y"])


class TestKernelAgreement:
    """The reachability kernel must match brute-force path enumeration."""

    def test_kernel_selected(self):
        assert KERNEL == "python"

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_bruteforce_on_random_dags(self, seed):
        rng = random.Random(seed)
        dag = random_dag(rng, rng.randint(2, 7))
        nodes = dag.nodes
        for x, y in itertools.combinations(nodes, 2):
            rest = [v for v in nodes if v not in (x, y)]
            for r in range(min(3, len(rest)) + 1):
                for s in itertools.combinations(rest, r):
                    fast = dag.d_separated({x}, {y}, s)
                    slow = d_separated_bruteforce(dag, {x}, {y}, s)
                    assert fast == slow, (dag.edges, x, y, s)

    @pytest.mark.parametrize("seed", range(10))
    def test_bitmask_kernel_matches_bruteforce_on_8_nodes(self, seed):
        rng = random.Random(seed + 1000)
        dag = random_dag(rng, 8)
        parents, children = dag._parent_masks, dag._child_masks
        for x, y in itertools.combinations(range(8), 2):
            for z_mask in range(0, 256, 7):
                z = z_mask & ~(1 << x) & ~(1 << y)
                separated = d_separated_bruteforce(
                    dag, {dag.nodes[x]}, {dag.nodes[y]},
                    {dag.nodes[i] for i in range(8) if z >> i & 1},
                )
                assert dconnected(parents, children, 1 << x, 1 << y, z) != separated

    @pytest.mark.parametrize("seed", range(10))
    def test_set_queries_match_bruteforce(self, seed):
        rng = random.Random(seed + 2000)
        dag = random_dag(rng, rng.randint(4, 8))
        nodes = list(dag.nodes)
        for _ in range(150):
            rng.shuffle(nodes)
            a = rng.randint(1, min(3, len(nodes) - 1))
            b = rng.randint(1, min(3, len(nodes) - a))
            xs, ys, rest = set(nodes[:a]), set(nodes[a:a + b]), nodes[a + b:]
            zs = {v for v in rest if rng.random() < 0.4}
            fast = dag.d_separated(xs, ys, zs)
            assert fast == d_separated_bruteforce(dag, xs, ys, zs), (dag.edges, xs, ys, zs)

    @pytest.mark.parametrize("seed", range(10))
    def test_set_valued_kernel_matches_bruteforce_on_9_nodes(self, seed):
        rng = random.Random(seed + 3000)
        dag = random_dag(rng, 9)
        parents, children = dag._parent_masks, dag._child_masks
        for _ in range(40):
            x_mask, y_mask = rng.randrange(1, 512), rng.randrange(1, 512)
            y_mask &= ~x_mask
            if not y_mask:
                continue
            z_mask = rng.randrange(512) & ~x_mask & ~y_mask
            xs, ys, zs = (
                {dag.nodes[i] for i in range(9) if m >> i & 1} for m in (x_mask, y_mask, z_mask)
            )
            separated = d_separated_bruteforce(dag, xs, ys, zs)
            assert dconnected(parents, children, x_mask, y_mask, z_mask) != separated, (
                dag.edges, xs, ys, zs)

    @pytest.mark.parametrize("seed", range(20))
    def test_ancestor_mask_matches_reference(self, seed):
        rng = random.Random(seed + 4000)
        n = rng.randint(1, 10)
        dag = random_dag(rng, n)
        for seed_mask in [0, *(rng.randrange(1 << n) for _ in range(20))]:
            zs = {dag.nodes[i] for i in range(n) if seed_mask >> i & 1}
            expected = sum(1 << dag.nodes.index(v) for v in _ancestors(dag, zs))
            assert ancestor_mask(dag._parent_masks, seed_mask) == expected, (dag.edges, zs)

    def test_bruteforce_guard(self):
        rng = random.Random(0)
        dag = random_dag(rng, 13)
        with pytest.raises(GraphError):
            d_separated_bruteforce(dag, {dag.nodes[0]}, {dag.nodes[1]})


class TestEnumeration:
    @pytest.mark.parametrize(
        "n,count", [(1, 1), (2, 3), (3, 25), (4, 543), (5, 29281)]
    )
    def test_labeled_dag_counts(self, n, count):
        assert sum(1 for _ in enumerate_dags(n)) == count

    def test_enumeration_yields_distinct_graphs(self):
        seen = {tuple(sorted(d.edges)) for d in enumerate_dags(3)}
        assert len(seen) == 25

    def test_guard_above_five(self):
        with pytest.raises(GraphError):
            next(enumerate_dags(6))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 8))
def test_random_dag_is_acyclic_and_sized(seed, n):
    dag = random_dag(random.Random(seed), n)
    assert len(dag.nodes) == n
    assert dag.topological_order() is not None
