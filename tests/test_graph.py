"""DAG structure, d-separation and small-graph enumeration."""

import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kassoc.graph import Dag, GraphError, KERNEL, MAX_NODES, dconnected, query_masks
from kassoc.oracle import GraphOracle
from references import (
    _ancestors,
    ancestor_mask,
    ancestors,
    check_path,
    d_separated_bruteforce,
    descendants,
    enumerate_dags,
    is_collider,
    non_descendants,
    random_dag,
    simple_paths,
)

CHAIN = Dag(["X", "Y", "Z"], [("X", "Y"), ("Y", "Z")])
FORK = Dag(["X", "Y", "Z"], [("Y", "X"), ("Y", "Z")])
COLLIDER = Dag(["X", "Y", "Z"], [("X", "Y"), ("Z", "Y")])


class TestConstruction:
    @pytest.mark.parametrize("edges", [
        [("A", "B"), ("B", "A")],
        [("A", "B"), ("B", "C"), ("C", "A")],
        [("A", "B"), ("C", "D"), ("D", "C")],
    ], ids=["two-cycle", "three-cycle", "cycle-beside-an-edge"])
    def test_rejects_cycle(self, edges):
        with pytest.raises(GraphError) as err:
            Dag(["A", "B", "C", "D"], edges)
        assert str(err.value) == "edge set contains a directed cycle"

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
        assert ancestors(CHAIN, "Z") == {"X", "Y", "Z"}
        assert descendants(CHAIN, "X") == {"X", "Y", "Z"}

    def test_non_descendants(self):
        assert non_descendants(CHAIN, "Y") == {"X"}

    def test_markov_blanket_includes_spouses(self):
        dag = Dag(["T", "C", "S"], [("T", "C"), ("S", "C")])
        assert dag.markov_blanket("T") == {"C", "S"}

    def test_markov_blanket_chain(self):
        assert CHAIN.markov_blanket("Y") == {"X", "Z"}

    def test_topological_order_respects_edges(self):
        order = CHAIN.topological_order()
        assert order.index("X") < order.index("Y") < order.index("Z")

    def test_stored_order_is_topological(self):
        """The order the cycle check keeps, on random DAGs of 1-10 nodes
        whose node order is not their topological order."""
        unsorted = 0
        for n in range(1, 11):
            for seed in range(20):
                dag = random_dag(random.Random(f"stored-order:{n}:{seed}"), n)
                order = dag.topological_order()
                assert order == [dag.nodes[i] for i in dag._order]
                assert sorted(order) == sorted(dag.nodes)
                rank = {v: k for k, v in enumerate(order)}
                assert all(rank[a] < rank[b] for a, b in dag.edges), (dag, order)
                unsorted += any(rank[a] > rank[b]
                                for a, b in itertools.combinations(dag.nodes, 2))
        assert unsorted > 100

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
                    skip = parents | descendants(dag, v)
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
        """The oracles' texts (``graph.query_masks``), emptiness first."""
        with pytest.raises(GraphError, match=r"^unknown variable 'Q'$"):
            CHAIN.d_separated({"X"}, {"Z"}, ["Q"])
        with pytest.raises(GraphError, match=r"^query sets must be non-empty$"):
            CHAIN.d_separated({"X"}, ())
        with pytest.raises(GraphError, match=r"^query sets must be non-empty$"):
            CHAIN.d_separated({"Q"}, ())
        with pytest.raises(GraphError, match=r"^query sets must be pairwise disjoint "
                                             r"and repeat no variable$"):
            CHAIN.d_separated({"X"}, {"Z"}, {"Z"})

    def test_repeated_names_are_refused(self):
        for xs, zs in ((["X", "X"], ()), (["X"], ["Y", "Y"])):
            with pytest.raises(GraphError, match="repeat no variable"):
                CHAIN.d_separated(xs, ("Z",), zs)


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
        parents, children, desc = dag._parent_masks, dag._child_masks, dag._descendants()
        for x, y in itertools.combinations(range(8), 2):
            for z_mask in range(0, 256, 7):
                z = z_mask & ~(1 << x) & ~(1 << y)
                separated = d_separated_bruteforce(
                    dag, {dag.nodes[x]}, {dag.nodes[y]},
                    {dag.nodes[i] for i in range(8) if z >> i & 1},
                )
                assert dconnected(parents, children, desc, 1 << x, 1 << y, z) != separated

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
        parents, children, desc = dag._parent_masks, dag._child_masks, dag._descendants()
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
            assert dconnected(parents, children, desc, x_mask, y_mask, z_mask) != separated, (
                dag.edges, xs, ys, zs)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_kernel_matches_bruteforce_on_every_small_dag(self, n):
        """Every labelled DAG on n nodes, every ordered pair, every Z."""
        for dag in enumerate_dags(n):
            parents, children, nodes = dag._parent_masks, dag._child_masks, dag.nodes
            desc = dag._descendants()
            for x, y in itertools.permutations(range(n), 2):
                for z in range(1 << n):
                    if z >> x & 1 or z >> y & 1:
                        continue
                    zs = {nodes[i] for i in range(n) if z >> i & 1}
                    separated = d_separated_bruteforce(dag, {nodes[x]}, {nodes[y]}, zs)
                    assert dconnected(parents, children, desc, 1 << x, 1 << y, z) != separated, (
                        dag.edges, x, y, zs)

    @staticmethod
    def connected(dag, x, y, zs):
        """``dconnected`` on labels, checked against the brute force."""
        connected = dconnected(dag._parent_masks, dag._child_masks, dag._descendants(),
                               *query_masks(dag._index, [x], [y], zs, GraphError))
        assert connected != d_separated_bruteforce(dag, {x}, {y}, zs)
        return connected

    def test_y_reached_going_up_past_z_below_x(self):
        # X <- A <- Y: the ball reaches Y going up; Z = {C}, a child of X,
        # neither blocks the chain nor opens anything, Z = {A} blocks it
        dag = Dag(["X", "A", "Y", "C"], [("Y", "A"), ("A", "X"), ("X", "C")])
        assert self.connected(dag, "X", "Y", {"C"})
        assert not self.connected(dag, "X", "Y", {"A"})
        assert not self.connected(dag, "X", "Y", {"A", "C"})
        assert self.connected(dag, "C", "Y", set())

    def test_only_a_descendant_of_z_opens_the_collider(self):
        # X -> C <- Y, C -> D: Z = {D} or {C} opens C, once the ball comes
        # down to C; Z = {} leaves it closed
        dag = Dag(["X", "Y", "C", "D"], [("X", "C"), ("Y", "C"), ("C", "D")])
        assert dag._descendants() == (0b1101, 0b1110, 0b1100, 0b1000)
        assert self.connected(dag, "X", "Y", {"D"})
        assert self.connected(dag, "X", "Y", {"C"})
        assert not self.connected(dag, "X", "Y", set())
        assert not self.connected(dag, "D", "X", {"C"})

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_descendant_masks_match_closure_on_every_small_dag(self, n):
        for dag in enumerate_dags(n):
            children = dag._child_masks
            assert dag._descendants() == tuple(
                ancestor_mask(children, 1 << i) for i in range(n)), dag.edges

    @pytest.mark.parametrize("seed", range(20))
    def test_descendant_masks_match_closure_on_random_dags(self, seed):
        rng = random.Random(seed + 5000)
        n = rng.randint(1, 10)
        dag = random_dag(rng, n)
        children = dag._child_masks
        assert dag._descendants() == tuple(
            ancestor_mask(children, 1 << i) for i in range(n)), dag.edges

    def test_descendant_masks_built_on_first_query_and_shared(self):
        dag = Dag(["X", "Y", "C"], [("X", "C"), ("Y", "C")])
        oracle = GraphOracle(dag)
        # neither build builds them
        assert not hasattr(dag, "_desc") and oracle._desc is None
        assert oracle.query("X", "Y")
        masks = dag._desc
        assert masks == (0b101, 0b110, 0b100)
        assert oracle._desc is masks and dag._descendants() is masks
        assert not dag.d_separated(["X"], ["Y"], ["C"])
        assert GraphOracle(dag)._desc is None and dag._desc is masks
        assert not hasattr(pickle.loads(pickle.dumps(dag)), "_desc")

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
    assert sorted(dag.topological_order()) == sorted(dag.nodes)
