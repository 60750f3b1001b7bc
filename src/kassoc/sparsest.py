"""Sparsest Permutation search (Raskutti & Uhler, Stat 2018).

For each permutation, an edge from the j-th to the k-th ordered node (j <
k) is present iff the pair stays dependent given the rest of the prefix.
The sparsest permutations are the minimizers of the induced edge count.

The edges a node adds depend only on the *set* of nodes before it, so
``sparsest_permutations`` is the exact subset DP of Silander & Myllymäki
(UAI 2006) over prefix sets S, nodes v outside S and parent candidates u
in S.  Every set is a bitmask of positions in the oracle's variable order:
``parents[S][v]`` is the mask of candidates that v stays dependent on,
and ``rest[S]``, the fewest edges that complete S, sums their popcounts.
Candidate u of v at S and candidate v of u at S - {u} + {v} are one
question, so ``query`` is asked once per unordered pair and conditioning
set, n(n-1)2^(n-3) in all, instead of once per ordered pair in each of the
n! permutations; the higher mask reads the answer back as bit v of the
lower mask's ``parents[S - {u} + {v}][u]``.  These are exactly the
distinct queries of the factorial search, each in the same orientation;
the factorial search survives in ``tests/test_sparsest.py`` as the
reference.

The minimizers are then listed by a walk from the empty set that follows
only optimal moves.  Each mask it reaches lists its moves once, as (next
mask, name, edges added), so names appear only in the query arguments
and in the output.  An empty graph has n! minimizers, so the search is
guarded at 8 variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .oracle import IndependenceOracle, OracleError


@dataclass(frozen=True)
class PermutationDag:
    permutation: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def to_dict(self) -> dict:
        return {
            "permutation": list(self.permutation),
            "edges": sorted(f"{a}->{b}" for a, b in self.edges),
            "edge_count": self.edge_count,
        }


def dag_from_permutation(
    o: IndependenceOracle, permutation: Sequence[str]
) -> PermutationDag:
    """One CI query per ordered pair j < k; deterministic."""
    perm = tuple(permutation)
    if sorted(perm) != sorted(o.variables):
        raise OracleError("permutation must cover all oracle variables")
    edges = []
    for k in range(1, len(perm)):
        prefix = set(perm[:k])
        for j in range(k):
            given = prefix - {perm[j]}
            if not o.query(perm[j], perm[k], given):
                edges.append((perm[j], perm[k]))
    return PermutationDag(perm, frozenset(edges))


def sparsest_permutations(
    o: IndependenceOracle,
) -> list[tuple[tuple[str, ...], PermutationDag]]:
    """All minimum-edge-count permutations, in lexicographic order.

    Lexicographic relative to the oracle's variable order.
    """
    names = o.variables
    n = len(names)
    if n > 8:
        raise OracleError(
            "sparsest permutations are listed for at most 8 variables "
            "(an empty graph on 9 has 9! = 362880 of them)"
        )
    full = (1 << n) - 1
    # members[S], prefix[S]: the positions and the names of S in variable
    # order, each one longer than that of S less its highest position
    members, prefix = [()] * (full + 1), [()] * (full + 1)
    for S in range(1, full + 1):
        top = S.bit_length() - 1
        members[S] = members[S ^ 1 << top] + (top,)
        prefix[S] = prefix[S ^ 1 << top] + (names[top],)
    # parents[S][v]: the mask of nodes of S that v stays dependent on given
    # the rest of S.  The pair (u, v) given T comes up at the masks T|u and
    # T|v.  Ascending masks reach the lower one first and ask the pair there
    # as (lower, higher) in variable order, as the lexicographic walk over
    # permutations does, so the backend sees the very calls that walk
    # makes; the higher mask reads that answer back.
    query = o.query
    parents = []
    for S in range(full + 1):
        row = [0] * n
        for v in range(n):
            bit_v = 1 << v
            if S & bit_v:
                continue
            pa = 0
            for u in members[S & bit_v - 1]:  # u < v: ask
                if not query(names[u], names[v], prefix[S ^ 1 << u]):
                    pa |= 1 << u
            for u in members[S & -bit_v]:  # u > v: asked at S - {u} + {v}
                pa |= (parents[S ^ 1 << u | bit_v][u] >> v & 1) << u
            row[v] = pa
        parents.append(row)
    # rest[S]: the fewest edges that complete the prefix set S
    rest = [0] * (full + 1)
    for S in range(full - 1, -1, -1):
        row = parents[S]
        rest[S] = min(row[v].bit_count() + rest[S | 1 << v] for v in range(n) if not S >> v & 1)

    # moves[S], built on the walk's first visit to S: its optimal steps as
    # (next mask, name, edges added)
    moves = [None] * (full + 1)
    results = []

    def walk(S, perm, edges):
        if S == full:
            results.append((perm, PermutationDag(perm, frozenset(edges))))
            return
        steps = moves[S]
        if steps is None:
            row = parents[S]
            steps = moves[S] = [
                (S | 1 << v, names[v], tuple((names[u], names[v]) for u in members[row[v]]))
                for v in range(n)
                if not S >> v & 1 and row[v].bit_count() + rest[S | 1 << v] == rest[S]]
        for nxt, name, added in steps:
            walk(nxt, perm + (name,), edges + added)

    walk(0, (), ())
    return results
