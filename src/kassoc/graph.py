"""DAGs, d-separation and exhaustive enumeration of small graphs.

Node identity is a dense integer index; labels are display-only.  All set
operations run on integer bitmasks, which keeps the d-separation kernel
cheap for graphs of up to 32 nodes.

Two independent d-separation implementations are provided:

* :meth:`Dag.d_separated` -- one reachability ("Bayes-Ball") traversal
  from all of X over the parent/children bitmasks, stopping at the first
  node of Y, see :func:`dconnected`.
* :meth:`Dag.d_separated_bruteforce` -- literal enumeration of all simple
  paths, checked clause by clause.  Correctness anchor for the fast path.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Iterator, Sequence

KERNEL = "python"  # the d-separation kernel is pure Python
MAX_NODES = 32


class GraphError(ValueError):
    """Invalid graph construction or query."""


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def ancestor_mask(parents: Sequence[int], seed_mask: int) -> int:
    """Reflexive-transitive parent closure of the nodes in ``seed_mask``."""
    anc = seed_mask
    frontier = list(_bits(seed_mask))
    while frontier:
        i = frontier.pop()
        new = parents[i] & ~anc
        anc |= new
        frontier.extend(_bits(new))
    return anc


def dconnected(
    parents: Sequence[int], children: Sequence[int], x_mask: int, y_mask: int, z_mask: int
) -> bool:
    """True iff some node of X has a d-connecting path to some node of Y given Z.

    ``parents[i]`` / ``children[i]`` are bitmasks of the parents/children of
    node i.  One reachability traversal from all of X (Bayes-Ball): the ball
    travels up (toward parents) or down (toward children); a collider
    bounces back up only if it is an ancestor of Z.  The traversal stops at
    the first node of Y it reaches.
    """
    anc_z = ancestor_mask(parents, z_mask)
    visited_up = 0
    visited_down = 0
    stack = [(x, True) for x in _bits(x_mask)]  # (node, travelling up)
    while stack:
        w, up = stack.pop()
        bit = 1 << w
        if y_mask & bit:
            return True
        if up:
            if visited_up & bit:
                continue
            visited_up |= bit
            if not z_mask & bit:
                for p in _bits(parents[w]):
                    stack.append((p, True))
                for c in _bits(children[w]):
                    stack.append((c, False))
        else:
            if visited_down & bit:
                continue
            visited_down |= bit
            if not z_mask & bit:
                for c in _bits(children[w]):
                    stack.append((c, False))
            if anc_z & bit:
                for p in _bits(parents[w]):
                    stack.append((p, True))
    return False


class Dag:
    """Immutable directed acyclic graph over labelled nodes."""

    __slots__ = ("nodes", "edges", "_index", "_parent_masks", "_child_masks")

    def __init__(self, nodes: Sequence[str], edges: Iterable[tuple[str, str]]):
        nodes = tuple(nodes)
        if len(set(nodes)) != len(nodes):
            raise GraphError("duplicate node labels")
        if len(nodes) > MAX_NODES:
            raise GraphError(f"at most {MAX_NODES} nodes supported")
        index = {lab: i for i, lab in enumerate(nodes)}
        parent_masks = [0] * len(nodes)
        child_masks = [0] * len(nodes)
        edge_list = []
        for a, b in edges:
            if a not in index or b not in index:
                raise GraphError(f"edge ({a}, {b}) references unknown node")
            if a == b:
                raise GraphError(f"self-loop on {a}")
            i, j = index[a], index[b]
            if parent_masks[j] >> i & 1:
                raise GraphError(f"duplicate edge ({a}, {b})")
            edge_list.append((a, b))
            parent_masks[j] |= 1 << i
            child_masks[i] |= 1 << j
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", tuple(sorted(edge_list)))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_parent_masks", tuple(parent_masks))
        object.__setattr__(self, "_child_masks", tuple(child_masks))
        if self.topological_order() is None:
            raise GraphError("edge set contains a directed cycle")

    def __setattr__(self, name, value):
        raise AttributeError("Dag is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Dag)
            and self.nodes == other.nodes
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.nodes, self.edges))

    def __repr__(self):
        return f"Dag(nodes={list(self.nodes)}, edges={list(self.edges)})"

    # -- indexing helpers -------------------------------------------------

    def index(self, node: str) -> int:
        try:
            return self._index[node]
        except KeyError:
            raise GraphError(f"unknown node {node!r}") from None

    def _mask(self, nodes: Iterable[str]) -> int:
        m = 0
        for n in nodes:
            m |= 1 << self.index(n)
        return m

    def _labels(self, mask: int) -> set[str]:
        return {self.nodes[i] for i in _bits(mask)}

    def _ordered(self, mask: int) -> list[str]:
        return [self.nodes[i] for i in _bits(mask)]

    @property
    def n(self) -> int:
        return len(self.nodes)

    def topological_order(self) -> list[str] | None:
        """Kahn's algorithm; None when the edge set is cyclic."""
        indeg = [bin(m).count("1") for m in self._parent_masks]
        queue = [i for i, d in enumerate(indeg) if d == 0]
        order = []
        while queue:
            i = queue.pop()
            order.append(i)
            for c in _bits(self._child_masks[i]):
                indeg[c] -= 1
                if indeg[c] == 0:
                    queue.append(c)
        if len(order) != self.n:
            return None
        return [self.nodes[i] for i in order]

    # -- relations ---------------------------------------------------------

    def parents(self, x: str) -> set[str]:
        return self._labels(self._parent_masks[self.index(x)])

    def children(self, x: str) -> set[str]:
        return self._labels(self._child_masks[self.index(x)])

    def adjacent(self, x: str, y: str) -> bool:
        i, j = self.index(x), self.index(y)
        return bool(self._parent_masks[j] >> i & 1 or self._parent_masks[i] >> j & 1)

    def ancestors(self, x: str) -> set[str]:
        """Reflexive-transitive closure over parent edges."""
        return self._labels(ancestor_mask(self._parent_masks, 1 << self.index(x)))

    def descendants(self, x: str) -> set[str]:
        return self._labels(ancestor_mask(self._child_masks, 1 << self.index(x)))

    def non_descendants(self, x: str) -> set[str]:
        return set(self.nodes) - self.descendants(x)

    def markov_blanket(self, x: str) -> set[str]:
        """Parents, children and spouses of x (x itself excluded)."""
        i = self.index(x)
        mb = self._parent_masks[i] | self._child_masks[i]
        for c in _bits(self._child_masks[i]):
            mb |= self._parent_masks[c]
        mb &= ~(1 << i)
        return self._labels(mb)

    def local_markov_statements(self) -> Iterator[tuple[str, list[str], list[str]]]:
        """``(v, rest, parents)`` per node in graph order: v is independent
        of ``rest``, its non-descendants other than its parents, given its
        parents; both lists in graph order, nodes with empty ``rest``
        skipped.  They imply every d-separation of the DAG (local and
        global directed Markov properties, Lauritzen 1996, Thm 3.27)."""
        full = (1 << self.n) - 1
        for i, v in enumerate(self.nodes):
            parents = self._parent_masks[i]
            rest = full & ~parents & ~ancestor_mask(self._child_masks, 1 << i)
            if rest:
                yield v, self._ordered(rest), self._ordered(parents)

    # -- paths -------------------------------------------------------------

    def check_path(self, path: Sequence[str]) -> None:
        if len(path) < 2:
            raise GraphError("a path has at least two nodes")
        if len(set(path)) != len(path):
            raise GraphError("path nodes must be distinct")
        for a, b in zip(path, path[1:]):
            if not self.adjacent(a, b):
                raise GraphError(f"{a} and {b} are not adjacent")

    def is_collider(self, path: Sequence[str], position: int) -> bool:
        """True iff both path neighbours point into path[position]."""
        self.check_path(path)
        if not 0 < position < len(path) - 1:
            raise GraphError("collider status is undefined at path endpoints")
        c = path[position]
        return (path[position - 1], c) in self.edges and (path[position + 1], c) in self.edges

    def simple_paths(self, x: str, y: str) -> Iterator[tuple[str, ...]]:
        """All simple paths between x and y, ignoring edge direction."""
        adj = [self._parent_masks[i] | self._child_masks[i] for i in range(self.n)]
        xi, yi = self.index(x), self.index(y)
        path = [xi]

        def walk(cur: int, used: int) -> Iterator[tuple[str, ...]]:
            for nxt in _bits(adj[cur] & ~used):
                path.append(nxt)
                if nxt == yi:
                    yield tuple(self.nodes[i] for i in path)
                else:
                    yield from walk(nxt, used | 1 << nxt)
                path.pop()

        yield from walk(xi, 1 << xi)

    # -- d-separation -------------------------------------------------------

    def _check_query(self, xs, ys, zs):
        xm, ym, zm = self._mask(xs), self._mask(ys), self._mask(zs)
        if not xs or not ys:
            raise GraphError("query sets must be non-empty")
        if xm & ym or xm & zm or ym & zm:
            raise GraphError("query sets must be pairwise disjoint")
        return xm, ym, zm

    def d_separated(self, xs: Iterable[str], ys: Iterable[str], zs: Iterable[str] = ()) -> bool:
        """Set query answered by one reachability traversal from all of xs."""
        xm, ym, zm = self._check_query(set(xs), set(ys), set(zs))
        return not dconnected(self._parent_masks, self._child_masks, xm, ym, zm)

    def d_separated_bruteforce(
        self, xs: Iterable[str], ys: Iterable[str], zs: Iterable[str] = ()
    ) -> bool:
        """Independent oracle: enumerate simple paths, test the definition."""
        if self.n > 12:
            raise GraphError("brute-force oracle limited to 12 nodes")
        xs, ys, zs = set(xs), set(ys), set(zs)
        self._check_query(xs, ys, zs)
        zm = self._mask(zs)
        anc_z = self._labels(ancestor_mask(self._parent_masks, zm))
        for x in sorted(xs):
            for y in sorted(ys):
                for path in self.simple_paths(x, y):
                    if self._path_d_connecting(path, zs, anc_z):
                        return False
        return True

    def _path_d_connecting(self, path, zs, anc_z):
        for pos in range(1, len(path) - 1):
            node = path[pos]
            if self.is_collider(path, pos):
                if node not in anc_z:
                    return False
            elif node in zs:
                return False
        return True


def enumerate_dags(n: int) -> Iterator[Dag]:
    """Every labelled DAG on n nodes, exactly once.

    Enumerates {absent, forward, backward} per unordered node pair and
    keeps the acyclic assignments.
    """
    if not 1 <= n <= 5:
        raise GraphError("exhaustive enumeration limited to 1..5 nodes")
    nodes = [f"V{i}" for i in range(n)]
    pairs = list(itertools.combinations(range(n), 2))
    for choice in itertools.product((0, 1, 2), repeat=len(pairs)):
        edges = []
        for (i, j), c in zip(pairs, choice):
            if c == 1:
                edges.append((nodes[i], nodes[j]))
            elif c == 2:
                edges.append((nodes[j], nodes[i]))
        try:
            yield Dag(nodes, edges)
        except GraphError:
            continue


def random_dag(rng: random.Random, n: int, edge_prob: float = 0.35) -> Dag:
    """Random labelled DAG: random topological order, then Bernoulli edges."""
    nodes = [f"V{i}" for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    edges = []
    for a, b in itertools.combinations(range(n), 2):
        if rng.random() < edge_prob:
            i, j = order[a], order[b]
            edges.append((nodes[i], nodes[j]))
    return Dag(nodes, edges)
