"""The one mask-level subset scan, ``association._first_independent``,
against its name-level slow twin, ``references.first_separating_set``,
which asks each conditioning set through ``IndependenceOracle.query``.

Every caller of the scan (1- and 2-associations, the unfaithful-triple
search, the orientation rule and the AF audit) is run next to its
reference on two fresh oracles: the witnesses and the ``query_count`` of
the two oracles must be identical after every call.  The cases are every
builtin (its exact oracle and its graph) and seeded 7-9-node nets on the
graph, discrete, Gaussian and G-test backends.
"""

import itertools
import random
from unittest import mock

import pytest

from conftest import random_cpt_net
from kassoc.association import (
    UNBOUNDED,
    AssociationBudget,
    UnfaithfulTriple,
    _ci_statement,
    find_unfaithful_triples,
    is_1_associated,
    is_2_associated,
    weak_associations,
)
from kassoc.audit import audit_scenario, check_af
from kassoc.distribution import DiscreteJoint
from kassoc.oracle import (DiscreteOracle, GaussianOracle, GraphOracle, GTestOracle,
                           IndependenceOracle)
from kassoc.orientation import OrientationQuery, _rule_defeat, orient
from kassoc.scenarios import BUILTINS, builtin
from kassoc.sparsest import sparsest_permutations
from references import first_separating_set, random_sem, rule_defeat, subsets_by_size
from test_audit import reference_af


def _cases():
    """(id, dag, fresh-oracle factory) for every case."""
    cases = []
    for name in sorted(BUILTINS):
        s = builtin(name)
        cases.append((f"{name}-exact", s.dag, s.oracle))
        cases.append((f"{name}-graph", s.dag, lambda dag=s.dag: GraphOracle(dag)))
    for seed, n in enumerate((7, 8, 9)):
        rng = random.Random(f"scan:{seed}")
        dag, cpts = random_cpt_net(rng, n, n + 2, 3)
        joint = DiscreteJoint.from_cpts(dag, cpts)
        data = joint.sample(2000, seed)
        system = random_sem(rng, n)
        cases += [
            (f"graph-{n}", dag, lambda dag=dag: GraphOracle(dag)),
            (f"discrete-{n}", dag, lambda joint=joint: DiscreteOracle(joint)),
            (f"gaussian-{n}", system.dag, lambda system=system: GaussianOracle(system)),
            (f"gtest-{n}", dag, lambda data=data: GTestOracle(data)),
        ]
    return cases


CASES = _cases()
CASE_IDS = [c[0] for c in CASES]
BUDGETS = pytest.mark.parametrize("budget", [UNBOUNDED, AssociationBudget(1)],
                                  ids=["unbounded", "budget-1"])


# -- the references: each scan on names, through ``query`` ---------------------


def reference_1(o, x, y, budget):
    pool = [v for v in o.variables if v not in (x, y)]
    given = first_separating_set(o, x, y, frozenset(), pool, budget.cap(len(pool)))
    return None if given is None else _ci_statement(x, y, given, True)


def reference_2(o, x, y1, y2, budget):
    pool = [v for v in o.variables if v not in (x, y1, y2)]
    for s in subsets_by_size(pool, budget.cap(len(pool))):
        for a, b, extra in ((x, y1, y2), (x, y2, y1), (y1, y2, x)):
            given = {*s, extra}
            if o.query(a, b, given):
                return _ci_statement(a, b, given, True)
    return None


def reference_unfaithful_triples(o):
    out = []
    for x, y, z in itertools.combinations(o.variables, 3):
        if not (o.query(x, y) and o.query(x, z) and o.query(y, z)):
            continue
        if o.query_sets([x], [y, z]):
            continue
        witnesses = ()
        pool = [v for v in o.variables if v not in (x, y, z)]
        for a, b, third in ((x, y, z), (x, z, y), (y, z, x)):
            given = first_separating_set(o, a, b, frozenset((third,)), pool, len(pool))
            if given is not None:
                witnesses = (_ci_statement(a, b, given, True),)
                break
        out.append(UnfaithfulTriple((x, y, z), not witnesses, witnesses))
    return out


def configurations(nodes, rng, count):
    """Up to ``count`` rule-scan configurations, drawn with ``rng``: a
    centre and two disjoint side sets of one or two nodes each."""
    found = []
    for center in nodes:
        rest = [v for v in nodes if v != center]
        sides = [c for k in (1, 2) for c in itertools.combinations(rest, k)]
        found += [(center, left, right) for left, right in itertools.permutations(sides, 2)
                  if not set(left) & set(right)]
    return rng.sample(found, min(count, len(found)))


# -- agreement ------------------------------------------------------------------


class TestAgreesWithNameLevelScan:
    @BUDGETS
    @pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
    def test_association_scans(self, case, budget):
        _, _, make = case
        ref, got = make(), make()
        names = got.variables
        for x, y in itertools.permutations(names, 2):
            assert is_1_associated(got, x, y, budget).witness == reference_1(ref, x, y, budget)
            assert got.query_count == ref.query_count
        for x in names:
            for y1, y2 in itertools.combinations([v for v in names if v != x], 2):
                want = reference_2(ref, x, y1, y2, budget)
                assert is_2_associated(got, x, y1, y2, budget).witness == want
                assert got.query_count == ref.query_count

    @pytest.mark.parametrize("case", [c for c in CASES if c[2]().backend == "discrete"],
                             ids=lambda c: c[0])
    def test_unfaithful_triples(self, case):
        _, _, make = case
        ref, got = make(), make()
        assert find_unfaithful_triples(got) == reference_unfaithful_triples(ref)
        assert got.query_count == ref.query_count

    @BUDGETS
    @pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
    def test_rule_defeat(self, case, budget):
        name, _, make = case
        ref, got = make(), make()
        orders = (got.variables, tuple(reversed(got.variables)))
        for center, left, right in configurations(got.variables, random.Random(name), 60):
            for with_center, order in itertools.product((True, False), orders):
                want = rule_defeat(ref, center, left, right, with_center, order, budget)
                found = _rule_defeat(got, center, left, right, with_center, order, budget)
                assert (found and _ci_statement(*found, True)) == (
                    want and _ci_statement(*want, True))
                assert got.query_count == ref.query_count

    @pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
    def test_check_af(self, case):
        _, dag, make = case
        ref, got = make(), make()
        result = check_af(dag, got)
        assert (result.holds, result.witness) == reference_af(dag, ref)
        assert got.query_count == ref.query_count


# -- the scans ask the oracle on masks, not through ``query`` -------------------


def spy_query():
    return mock.patch.object(IndependenceOracle, "query", autospec=True,
                             side_effect=IndependenceOracle.query)


class TestScansBypassQuery:
    def test_scans_never_call_query(self):
        s = builtin("xor_chain")
        o, collider = s.oracle(), builtin("collider").oracle()
        with spy_query() as query:
            for x in o.variables:
                weak_associations(o, x)
            verdict = orient(OrientationQuery("Y", ("X",), ("Z",), collider))
            report = audit_scenario(s)
        assert query.call_count == 0
        assert o.query_count > 0 and collider.query_count > 0
        assert verdict.outcome == "collider"
        assert not report["AF"].holds

    def test_unfaithful_triples_query_only_marginal_pairs(self):
        o = builtin("xor_chain").oracle()
        with spy_query() as query:
            triples = find_unfaithful_triples(o)
        assert any(t.witnesses for t in triples)
        assert query.call_count > 0
        assert all(call.args[3:] == () for call in query.call_args_list)

    def test_sparsest_permutations_never_call_query(self):
        o = builtin("example2").oracle()
        with spy_query() as query:
            sparsest_permutations(o)
        # n (n - 1) 2^(n - 3) questions on n = 4 nodes, each a cache miss
        assert query.call_count == 0
        assert o.query_count == 4 * 3 * 2
