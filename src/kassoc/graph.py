"""DAGs and d-separation.

Node identity is a dense integer index; labels are display-only.  All set
operations run on integer bitmasks, which keeps the d-separation kernel
cheap for graphs of up to 32 nodes.

:func:`dconnected` answers a set query with one reachability
("Bayes-Ball") traversal from all of X over the parent/children bitmasks,
stopping at the first node of Y.  A collider opens iff one of its
descendants is in Z: each ``Dag`` keeps one reflexive descendant mask per
node, built on its first d-separation in one pass in reverse topological
order, so no query closes Z's ancestors.

:func:`query_masks` is the one rule for a well-formed CI query on names:
every name-level entry point (the oracles, :meth:`Dag.d_separated`,
``DiscreteJoint.is_independent_sets``, ``gtest.g_test``) calls it with
its table's name index and error class.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

KERNEL = "python"  # the d-separation kernel is pure Python
MAX_NODES = 32


class GraphError(ValueError):
    """Invalid graph construction or query."""


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def query_masks(index: Mapping[str, int], xs: Iterable[str], ys: Iterable[str],
                s: Iterable[str], error: type[ValueError]) -> tuple[int, int, int]:
    """Position bitmasks of a CI query's sides and conditioning set through
    ``index`` (name to position).  Raises ``error`` unless both sides are
    non-empty, every name is known (the first unknown one named, in the
    order xs, ys, s) and no name occurs twice, within or across the three."""
    xs, ys, s = tuple(xs), tuple(ys), tuple(s)
    if not xs or not ys:
        raise error("query sets must be non-empty")
    mx = my = ms = 0
    try:
        for v in xs:
            mx |= 1 << index[v]
        for v in ys:
            my |= 1 << index[v]
        for v in s:
            ms |= 1 << index[v]
    except KeyError:
        unknown = next(v for v in xs + ys + s if v not in index)
        raise error(f"unknown variable {unknown!r}") from None
    if (mx | my | ms).bit_count() != len(xs) + len(ys) + len(s):
        raise error("query sets must be pairwise disjoint and repeat no variable")
    return mx, my, ms


def dconnected(
    parents: Sequence[int], children: Sequence[int], desc: Sequence[int],
    x_mask: int, y_mask: int, z_mask: int,
) -> bool:
    """True iff some node of X has a d-connecting path to some node of Y given Z.

    ``parents[i]`` / ``children[i]`` are bitmasks of the parents/children of
    node i, and ``desc[i]`` that of i and its descendants
    (:meth:`Dag._descendants`).  One reachability traversal from all of X
    (Bayes-Ball) over frontier bitmasks: the ball travels up (toward
    parents) or down (toward children), and each direction keeps a "to
    visit" and a "visited" mask.  A node reached going up passes the ball on
    to its parents and children unless it is in Z; a node reached going
    down passes it on to its children unless it is in Z, and bounces it
    back up to its parents if it is an ancestor of Z (a collider that Z
    opens), that is iff ``desc[i] & z_mask``.  Each step pops the lowest
    node of a frontier and ORs in its unvisited parents/children; the
    traversal stops as soon as a newly reached node lies in Y.
    """
    if x_mask & y_mask:
        return True
    # "up": reached from a child (or a start node); "down": from a parent.
    # A node of Z reached going up blocks, so it is marked visited but
    # never enters the up frontier.
    seen_up, up = x_mask, x_mask & ~z_mask
    seen_down = down = 0
    while up or down:
        if up:
            low = up & -up
            up ^= low
            i = low.bit_length() - 1
            new_up = parents[i] & ~seen_up
            new_down = children[i] & ~seen_down
        else:
            low = down & -down
            down ^= low
            i = low.bit_length() - 1
            new_up = parents[i] & ~seen_up if desc[i] & z_mask else 0
            new_down = 0 if low & z_mask else children[i] & ~seen_down
        if (new_up | new_down) & y_mask:
            return True
        seen_up |= new_up
        up |= new_up & ~z_mask
        seen_down |= new_down
        down |= new_down
    return False


def _kahn(parents: Sequence[int], children: Sequence[int]) -> tuple[int, ...]:
    """Kahn's algorithm on parent/children bitmasks: the positions in a
    topological order, taking the last ready node first; ``GraphError`` if
    the edges hold a directed cycle."""
    indeg = [m.bit_count() for m in parents]
    queue = [i for i, d in enumerate(indeg) if d == 0]
    order = []
    while queue:
        i = queue.pop()
        order.append(i)
        for c in _bits(children[i]):
            indeg[c] -= 1
            if indeg[c] == 0:
                queue.append(c)
    if len(order) != len(parents):
        raise GraphError("edge set contains a directed cycle")
    return tuple(order)


class Dag:
    """Immutable directed acyclic graph over labelled nodes.

    The cycle check at construction is Kahn's algorithm, and the order it
    finds is kept in ``_order`` as node positions: ``topological_order()``,
    ``DiscreteJoint.from_cpts`` and ``GaussianSystem.covariance`` read it
    and never sort the graph again.  A cyclic edge set raises
    ``GraphError``, so ``topological_order()`` always returns a list.
    The descendant masks are built from that order on first use
    (:meth:`_descendants`), since most Dags never ask a d-separation.
    """

    __slots__ = ("nodes", "edges", "_index", "_parent_masks", "_child_masks", "_order",
                 "_desc")

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
        object.__setattr__(self, "_order", _kahn(parent_masks, child_masks))

    def __setattr__(self, name, value):
        raise AttributeError("Dag is immutable")

    def __reduce__(self):
        return Dag, (self.nodes, self.edges)

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

    def _labels(self, mask: int) -> set[str]:
        return {self.nodes[i] for i in _bits(mask)}

    def _ordered(self, mask: int) -> list[str]:
        return [self.nodes[i] for i in _bits(mask)]

    @property
    def n(self) -> int:
        return len(self.nodes)

    def topological_order(self) -> list[str]:
        """The order Kahn's algorithm found at construction."""
        return [self.nodes[i] for i in self._order]

    def _descendants(self) -> tuple[int, ...]:
        """Per node, the mask of the node and its descendants: one pass in
        reverse topological order on first use, kept in the ``_desc`` slot,
        which construction leaves unset."""
        try:
            return self._desc
        except AttributeError:
            pass
        masks = [0] * len(self.nodes)
        children = self._child_masks
        for i in reversed(self._order):
            m = 1 << i
            for c in _bits(children[i]):
                m |= masks[c]
            masks[i] = m
        object.__setattr__(self, "_desc", tuple(masks))
        return self._desc

    # -- relations ---------------------------------------------------------

    def parents(self, x: str) -> set[str]:
        return self._labels(self._parent_masks[self.index(x)])

    def children(self, x: str) -> set[str]:
        return self._labels(self._child_masks[self.index(x)])

    def adjacent(self, x: str, y: str) -> bool:
        i, j = self.index(x), self.index(y)
        return bool(self._parent_masks[j] >> i & 1 or self._parent_masks[i] >> j & 1)

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
        for v, parents, desc in zip(self.nodes, self._parent_masks, self._descendants()):
            rest = full & ~parents & ~desc
            if rest:
                yield v, self._ordered(rest), self._ordered(parents)

    # -- d-separation -------------------------------------------------------

    def d_separated(self, xs: Iterable[str], ys: Iterable[str], zs: Iterable[str] = ()) -> bool:
        """Set query on labels, answered by one reachability traversal from
        all of xs; a malformed query (:func:`query_masks`) raises ``GraphError``."""
        xm, ym, zm = query_masks(self._index, xs, ys, zs, GraphError)
        return not dconnected(self._parent_masks, self._child_masks, self._descendants(),
                              xm, ym, zm)
