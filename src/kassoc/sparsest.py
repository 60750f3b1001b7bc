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
The DP runs over descending masks, so each mask's ``parents`` row and its
``rest`` are computed together.  Candidate u of v at S and candidate v of
u at S - {u} + {v} are one question, so it is asked once per unordered
pair and conditioning set, n(n-1)2^(n-3) in all, instead of once per
ordered pair in each of the n! permutations; the higher mask asks it,
and when S is the lower one it reads the answer back as bit v of
``parents[S - {u} + {v}][u]``.  The masks are the oracle's own, so the
DP asks ``_ask(1 << v, 1 << u, S - {u})`` directly, past ``query``'s name
check: the same cache keys, backend calls and ``query_count`` as
``query`` on the names.  These are exactly the distinct queries of the
factorial search, each in the same orientation; the factorial search
survives in ``tests/test_sparsest.py`` as the reference.

The minimizers are then listed from one completion list per mask on an
optimal path, each built from its successors' lists: the name of the step
prepended, the step's edges ORed into an int mask whose byte v holds v's
parents.  Names appear only in the output, and each distinct edge mask,
that is each distinct minimizer DAG, is decoded into one shared edge
set, which ``minimizer_dicts`` formats once.  An empty graph has n!
minimizers, so the search is guarded at 8 variables, which also keeps a
node's parents within a byte.
"""

from __future__ import annotations

import itertools
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
        return self._to_dict(_labels(self.edges))

    def _to_dict(self, labels: list[str]) -> dict:
        return {
            "permutation": list(self.permutation),
            "edges": labels,
            "edge_count": self.edge_count,
        }


def _labels(edges) -> list[str]:
    """Edges as ``to_dict`` writes them: sorted ``a->b`` strings."""
    return sorted(f"{a}->{b}" for a, b in edges)


def minimizer_dicts(
    minimizers: Sequence[tuple[tuple[str, ...], PermutationDag]],
) -> list[dict]:
    """Each minimizer as ``{"permutation": ..., "dag": dag.to_dict()}``.

    Minimizers of one DAG share its edge set, so each distinct set is
    sorted and formatted once.
    """
    labels = {}
    out = []
    for perm, pdag in minimizers:
        if pdag.edges not in labels:
            labels[pdag.edges] = _labels(pdag.edges)
        out.append({"permutation": list(perm),
                    "dag": pdag._to_dict(list(labels[pdag.edges]))})
    return out


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
    # members[S], bits[S]: the positions and the one-bit masks of S in
    # variable order, each one longer than that of S less its highest position
    members, bits = [()] * (full + 1), [()] * (full + 1)
    for S in range(1, full + 1):
        top = S.bit_length() - 1
        members[S] = members[S ^ 1 << top] + (top,)
        bits[S] = bits[S ^ 1 << top] + (1 << top,)
    # parents[S][v]: the mask of nodes of S that v stays dependent on given
    # the rest of S; rest[S]: the fewest edges that complete S.  The pair
    # (u, v) given T comes up at the masks T|u and T|v.  Descending masks
    # reach the higher one first and ask the pair there as (lower, higher)
    # in variable order, as the lexicographic walk over permutations does,
    # so the backend sees the very calls that walk makes; the lower mask
    # reads that answer back.
    ask = o._ask
    parents, rest = [None] * (full + 1), [0] * (full + 1)
    for S in range(full - 1, -1, -1):
        row = [0] * n
        best = n * n
        for v in range(n):
            bit_v = 1 << v
            if S & bit_v:
                continue
            pa = 0
            for u in members[S & bit_v - 1]:  # u < v: asked at S - {u} + {v}
                pa |= (parents[S ^ 1 << u | bit_v][u] >> v & 1) << u
            for bit_u in bits[S & -bit_v]:  # u > v: ask
                if not ask(bit_v, bit_u, S ^ bit_u):
                    pa |= bit_u
            row[v] = pa
            cost = pa.bit_count() + rest[S | bit_v]
            if cost < best:
                best = cost
        parents[S], rest[S] = row, best

    # perms[S], masks[S], filled for each mask S on an optimal path: the
    # optimal completions of S in lexicographic order, as the names they
    # append and as the edges they add, byte v of a mask holding v's
    # parents.  A list is its successors' lists with one name prepended and
    # one step's edges ORed in.  pairs[v][pa]: v's edges from parent mask pa
    perms, masks = [None] * (full + 1), [None] * (full + 1)
    perms[full], masks[full] = [()], [0]
    pairs = [{} for _ in range(n)]

    def complete(S):
        ps, ms = perms[S], masks[S] = [], []
        row = parents[S]
        for v in range(n):
            nxt, pa = S | 1 << v, row[v]
            if nxt == S or pa.bit_count() + rest[nxt] != rest[S]:
                continue
            if perms[nxt] is None:
                complete(nxt)
            if pa not in pairs[v]:
                pairs[v][pa] = tuple((names[u], names[v]) for u in members[pa])
            ps += map((names[v],).__add__, perms[nxt])
            ms += map((pa << 8 * v).__or__, masks[nxt])

    if perms[0] is None:
        complete(0)
    ps, ms = perms[0], masks[0]
    # complete's reference to itself is a cycle that would keep the lists
    # alive until the cyclic collector runs
    perms.clear()
    masks.clear()
    edges = {
        m: frozenset(itertools.chain.from_iterable(
            map(dict.__getitem__, pairs, m.to_bytes(n, "little"))))
        for m in set(ms)}
    return [(p, PermutationDag(p, edges[m])) for p, m in zip(ps, ms)]
