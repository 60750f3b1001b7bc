"""DAGs and d-separation.

Node identity is a dense integer index; labels are display-only.  All set
operations run on integer bitmasks, which keeps the d-separation kernel
cheap for graphs of up to 32 nodes.

:meth:`Dag.d_separated` answers a set query with one reachability
("Bayes-Ball") traversal from all of X over the parent/children bitmasks,
stopping at the first node of Y, see :func:`dconnected`.
"""

from __future__ import annotations

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

    # -- d-separation -------------------------------------------------------

    def d_separated(self, xs: Iterable[str], ys: Iterable[str], zs: Iterable[str] = ()) -> bool:
        """Set query answered by one reachability traversal from all of xs."""
        xs, ys, zs = set(xs), set(ys), set(zs)
        xm, ym, zm = self._mask(xs), self._mask(ys), self._mask(zs)
        if not xs or not ys:
            raise GraphError("query sets must be non-empty")
        if xm & ym or xm & zm or ym & zm:
            raise GraphError("query sets must be pairwise disjoint")
        return not dconnected(self._parent_masks, self._child_masks, xm, ym, zm)
