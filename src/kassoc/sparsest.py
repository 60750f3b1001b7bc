"""Sparsest Permutation search (Raskutti & Uhler, Stat 2018).

For each permutation, an edge from the j-th to the k-th ordered node (j <
k) is present iff the pair stays dependent given the rest of the prefix.
The sparsest permutations are the minimizers of the induced edge count.

The edges a node adds depend only on the *set* of nodes before it, so
``sparsest_permutations`` is the exact subset DP of Silander & Myllymäki
(UAI 2006) over prefix sets S, nodes v outside S and parent candidates u
in S.  Candidate u of v at S and candidate v of u at S - {u} + {v} are one
question, so ``query`` is asked once per unordered pair and conditioning
set, n(n-1)2^(n-3) in all, instead of once per ordered pair in each of the
n! permutations.  These are exactly the distinct queries of the factorial
search, each in the same orientation; the factorial search survives in
``tests/test_sparsest.py`` as the reference.  The minimizers are listed,
and an empty graph has n! of them, so the search is guarded at 8
variables.
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
    prefix = [frozenset(names[u] for u in range(n) if S >> u & 1)
              for S in range(full + 1)]
    # parents[S][v]: the nodes of S that v stays dependent on given the rest
    # of S.  The pair (u, v) given T comes up at the masks T|u and T|v.
    # Ascending masks reach the lower one first and ask the pair there as
    # (lower, higher) in variable order, as the lexicographic walk over
    # permutations does, so the backend sees the very calls that walk
    # makes; the higher mask reads that answer back.
    parents = []
    for S in range(full + 1):
        inside = [u for u in range(n) if S >> u & 1]
        row = {}
        for v in range(n):
            if S >> v & 1:
                continue
            pa = []
            for u in inside:
                if u < v:
                    dependent = not o.query(names[u], names[v], prefix[S ^ 1 << u])
                else:  # asked at the lower mask S - {u} + {v}
                    dependent = names[v] in parents[S ^ 1 << u | 1 << v][u]
                if dependent:
                    pa.append(names[u])
            row[v] = tuple(pa)
        parents.append(row)
    # rest[S]: the fewest edges that complete the prefix set S
    rest = [0] * (full + 1)
    for S in range(full - 1, -1, -1):
        rest[S] = min(len(pa) + rest[S | 1 << v] for v, pa in parents[S].items())

    results = []

    def walk(S, perm, edges):
        if S == full:
            results.append((perm, PermutationDag(perm, frozenset(edges))))
            return
        for v, pa in parents[S].items():
            if len(pa) + rest[S | 1 << v] == rest[S]:
                walk(S | 1 << v, perm + (names[v],), edges + [(p, names[v]) for p in pa])

    walk(0, (), [])
    return results
