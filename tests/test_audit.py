"""The audit against references: the exhaustive d-separation enumeration
for CMC, and the separate AF, 2-AF, OF, 2-OF and spouse-condition scans
the audit used to run (without their old size limit) for the whole
report."""

import itertools
import random
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from kassoc.association import is_weakly_associated
from conftest import random_cpt_net
from references import enumerate_dags, first_separating_set, random_dag
from kassoc.audit import audit_scenario, check_cmc
from kassoc.distribution import Cpt, DiscreteJoint
from kassoc.gaussian import GaussianSystem
from kassoc.graph import Dag
from kassoc.oracle import DiscreteOracle, GaussianOracle, GraphOracle, OracleError
from kassoc.scenarios import BUILTINS, Scenario, builtin


def exhaustive_cmc_holds(dag, oracle):
    """Reference: every d-separation between two disjoint non-empty node
    sets, given every subset of the remaining nodes, holds in the oracle
    (about 4^n queries)."""
    nodes, n = dag.nodes, len(dag.nodes)
    masks = [tuple(nodes[i] for i in range(n) if m >> i & 1) for m in range(1, 1 << n)]
    for xs, ys in itertools.combinations(masks, 2):
        if set(xs) & set(ys):
            continue
        rest = [v for v in nodes if v not in xs and v not in ys]
        for k in range(len(rest) + 1):
            for s in itertools.combinations(rest, k):
                if dag.d_separated(xs, ys, s) and not oracle.query_sets(xs, ys, s):
                    return False
    return True


def assert_agrees(dag, oracle):
    """``check_cmc`` matches the reference; a failing witness is a
    d-separation of ``dag`` that the oracle denies.  Returns the verdict."""
    result = check_cmc(dag, oracle)
    assert result.to_dict()["exhaustive"]
    assert result.holds == exhaustive_cmc_holds(dag, oracle), dag
    if result.holds:
        assert result.witness is None
    else:
        w = result.witness
        assert dag.d_separated(w["xs"], w["ys"], w["given"])
        assert not oracle.query_sets(w["xs"], w["ys"], w["given"])
    return result.holds


def random_cpts(rng, dag):
    """Binary CPTs with entries in 1/12 .. 11/12."""
    cpts = []
    for v in dag.nodes:
        parents = tuple(u for u in dag.nodes if u in dag.parents(v))
        rows = {}
        for pa in itertools.product((0, 1), repeat=len(parents)):
            k = rng.randint(1, 11)
            rows[pa] = (F(k, 12), F(12 - k, 12))
        cpts.append(Cpt(v, 2, parents, (2,) * len(parents), rows))
    return cpts


def random_system(rng, dag):
    coefficients = {(c, p): F(rng.choice([-2, -1, 1, 2, 3])) for p, c in dag.edges}
    noise = {v: F(rng.randint(1, 3)) for v in dag.nodes}
    return GaussianSystem(dag.nodes, coefficients, noise)


def mismatched_pairs(seed, count):
    """``count`` (audit DAG, distribution DAG) pairs over 4 or 5 nodes that
    differ; the distribution DAG is often sparser, so both verdicts occur."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        n = rng.choice((4, 5))
        dag = random_dag(rng, n, rng.choice((0.3, 0.5, 0.7)))
        truth = random_dag(rng, n, rng.choice((0.1, 0.3, 0.5)))
        if truth != dag:
            pairs.append((rng, dag, truth))
    return pairs


def test_agrees_on_every_pair_of_three_node_dags():
    dags = list(enumerate_dags(3))
    verdicts = []
    for dag, truth in itertools.product(dags, dags):
        oracle = GraphOracle(truth)
        verdicts.append(assert_agrees(dag, oracle))
    assert len(verdicts) == 625
    assert 25 <= verdicts.count(True) < 625


def test_one_set_query_per_local_statement():
    for dag in enumerate_dags(4):
        oracle = GraphOracle(dag)
        assert check_cmc(dag, oracle).holds
        assert oracle.query_count == len(list(dag.local_markov_statements()))


def test_agrees_on_random_discrete_pairs():
    verdicts = []
    for rng, dag, truth in mismatched_pairs("cmc-discrete", 100):
        joint = DiscreteJoint.from_cpts(truth, random_cpts(rng, truth))
        verdicts.append(assert_agrees(dag, DiscreteOracle(joint)))
    assert True in verdicts and False in verdicts


def test_agrees_on_random_gaussian_pairs():
    verdicts = []
    for rng, dag, truth in mismatched_pairs("cmc-gaussian", 100):
        verdicts.append(assert_agrees(dag, GaussianOracle(random_system(rng, truth))))
    assert True in verdicts and False in verdicts


# -- reference: the separate scans, one walk of the configurations each ------


def _separating_set(oracle, x, z, core, pool):
    """First ``core | S`` separating x and z; S runs over every subset of
    ``pool``, smallest first, lexicographic by label."""
    pool = sorted(pool)
    return first_separating_set(oracle, x, z, frozenset(core), pool, len(pool))


def reference_af(dag, oracle):
    for x, y in dag.edges:
        s = _separating_set(oracle, x, y, (), set(dag.nodes) - {x, y})
        if s is not None:
            return False, {"edge": [x, y], "separating_set": sorted(s)}
    return True, None


def reference_2af(dag, oracle):
    """Each adjacency x - y against its Markov-blanket candidates, y alone
    or y with one other node of MB(x), each checked on its own."""
    for x, y in itertools.chain(dag.edges, ((b, a) for a, b in dag.edges)):
        mb = dag.markov_blanket(x)
        candidates = [(y,)] + [tuple(sorted((y, z))) for z in sorted(mb - {y})]
        if not any(is_weakly_associated(oracle, x, c).holds for c in candidates):
            return False, {"node": x, "adjacent": y}
    return True, None


def reference_of(dag, oracle):
    for y in dag.nodes:
        neigh = sorted(dag.parents(y) | dag.children(y))
        for x, z in itertools.combinations(neigh, 2):
            if dag.adjacent(x, z):
                continue
            collider = y in dag.children(x) and y in dag.children(z)
            core = {y} if collider else set()
            s = _separating_set(oracle, x, z, core, set(dag.nodes) - {x, y, z})
            if s is not None:
                return False, {"triple": [x, y, z], "collider": collider, "given": sorted(s)}
    return True, None


def _weak_partner_sets(dag, oracle, y):
    others = [v for v in dag.nodes if v != y]
    found = []
    for size in (1, 2):
        for c in itertools.combinations(others, size):
            if is_weakly_associated(oracle, y, c).holds:
                found.append(c)
    return found


def _eligible_configs(dag, oracle):
    for y in dag.nodes:
        partners = _weak_partner_sets(dag, oracle, y)
        for xs, zs in itertools.combinations(partners, 2):
            if set(xs) & set(zs):
                continue
            yield y, xs, zs


def _is_collider_config(dag, y, xs, zs):
    return all(y in dag.children(v) for v in xs + zs)


def _condition_witness(dag, oracle, y, xs, zs, with_center):
    for x, z in itertools.product(xs, zs):
        core = (set(xs) - {x}) | (set(zs) - {z})
        if with_center:
            core.add(y)
        s = _separating_set(oracle, x, z, core, set(dag.nodes) - {x, z, y} - core)
        if s is not None:
            return {"x": x, "z": z, "given": sorted(s)}
    return None


def reference_2of(dag, oracle):
    for y, xs, zs in _eligible_configs(dag, oracle):
        if any(dag.adjacent(x, z) for x, z in itertools.product(xs, zs)):
            continue
        collider = _is_collider_config(dag, y, xs, zs)
        bad = _condition_witness(dag, oracle, y, xs, zs, collider)
        if bad is not None:
            condition = "i" if collider else "ii"
            sides = {"center": y, "left": list(xs), "right": list(zs)}
            return False, {**sides, "condition": condition, **bad}
    return True, None


def reference_spouse_condition(dag, oracle):
    for y, xs, zs in _eligible_configs(dag, oracle):
        if not _is_collider_config(dag, y, xs, zs):
            continue
        bad = _condition_witness(dag, oracle, y, xs, zs, True)
        if bad is not None:
            return False, {"center": y, "left": list(xs), "right": list(zs), **bad}
    return True, None


def reference_report(name, dag, oracle):
    """The audit report as the separate scans write it."""

    def result(assumption, check):
        holds, witness = check(dag, oracle)
        return {"assumption": assumption, "holds": holds, "witness": witness,
                "exhaustive": True}

    return {"scenario": name, "exhaustive": True, "results": [
        check_cmc(dag, oracle).to_dict(),
        result("AF", reference_af),
        result("2-AF", reference_2af),
        result("OF", reference_of),
        result("2-OF", reference_2of),
        result("spouse-condition", reference_spouse_condition),
    ]}


def assert_report_agrees(dag, oracle, name="pair"):
    """The one-pass audit writes the reference's report; returns it."""
    got = audit_scenario(SimpleNamespace(name=name, dag=dag, oracle=lambda: oracle))
    want = reference_report(name, dag, oracle)
    assert got.to_dict() == want, dag
    return want


def failing(reports):
    """Assumptions that fail in at least one of ``reports``."""
    return {r["assumption"] for rep in reports for r in rep["results"] if not r["holds"]}


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_report_agrees_on_builtin(name):
    s = builtin(name)
    report = assert_report_agrees(s.dag, s.oracle(), name)
    assert audit_scenario(s).to_dict() == report


def test_report_agrees_on_every_pair_of_three_node_dags():
    dags = list(enumerate_dags(3))
    reports = [
        assert_report_agrees(dag, GraphOracle(truth))
        for dag, truth in itertools.product(dags, dags)
    ]
    assert len(reports) == 625
    assert failing(reports) == {"CMC", "AF", "2-AF", "OF", "2-OF", "spouse-condition"}


def test_report_agrees_on_random_discrete_pairs():
    reports = []
    for rng, dag, truth in mismatched_pairs("cmc-discrete", 100):
        joint = DiscreteJoint.from_cpts(truth, random_cpts(rng, truth))
        reports.append(assert_report_agrees(dag, DiscreteOracle(joint)))
    assert failing(reports) == {"CMC", "AF", "2-AF", "OF", "2-OF", "spouse-condition"}


def test_report_agrees_on_random_gaussian_pairs():
    reports = []
    for rng, dag, truth in mismatched_pairs("cmc-gaussian", 100):
        oracle = GaussianOracle(random_system(rng, truth))
        reports.append(assert_report_agrees(dag, oracle))
    assert failing(reports) == {"CMC", "AF", "2-AF", "OF", "2-OF", "spouse-condition"}


def test_report_agrees_on_seven_to_nine_node_nets():
    """Seeded 7-9-node nets, where the audit used to truncate conditioning
    sets: each DAG with CPTs that may hold zeros (so some assumptions fail
    on the true graph), the same distribution against a second random DAG,
    and a linear-Gaussian system on the DAG."""
    reports = []
    for seed in range(6):
        rng = random.Random(f"audit-large:{seed}")
        n = 7 + seed % 3
        dag, cpts = random_cpt_net(rng, n, n + 2, 3)
        oracle = DiscreteOracle(DiscreteJoint.from_cpts(dag, cpts))
        reports.append(assert_report_agrees(dag, oracle))
        reports.append(assert_report_agrees(random_dag(rng, n, 0.35), oracle))
        reports.append(assert_report_agrees(dag, GaussianOracle(random_system(rng, dag))))
    assert failing(reports) == {"CMC", "AF", "2-AF", "OF", "2-OF", "spouse-condition"}
    assert any(not failing([r]) for r in reports)


def test_2af_partner_set_must_lie_in_the_blanket():
    """In the noisy xor X is strictly 2-associated to {Y, Z} and to no
    single node; with Z outside MB(X) that pair does not witness X - Y."""
    dag = Dag(["X", "Y", "Z"], [("X", "Y")])
    report = assert_report_agrees(dag, DiscreteOracle(builtin("example1").joint))
    assert report["results"][2] == {"assumption": "2-AF", "holds": False,
                                    "witness": {"node": "X", "adjacent": "Y"},
                                    "exhaustive": True}


def test_large_and_tied_separating_sets_are_found():
    """The first separating set may need every other node (the old partial
    mode stopped at three) and ties among sets of one size go to the first
    by label."""
    causes = ["a1", "a2", "a3", "a4", "a5"]
    truth = Dag(["x", "y", *causes], [(a, v) for a in causes for v in ("x", "y")])
    dag = Dag(truth.nodes, [*truth.edges, ("x", "y")])
    report = assert_report_agrees(dag, GraphOracle(truth))
    assert report["results"][1]["witness"] == {"edge": ["x", "y"], "separating_set": causes}

    # x - y - z is a chain in the audit DAG; the truth separates x and z
    # given {a} and given {b}, so OF names {a}
    truth = Dag(["a", "b", "x", "y", "z"], [("x", "a"), ("a", "b"), ("b", "z")])
    dag = Dag(truth.nodes, [("x", "y"), ("y", "z")])
    report = assert_report_agrees(dag, GraphOracle(truth))
    assert report["results"][3]["witness"] == {
        "triple": ["x", "y", "z"], "collider": False, "given": ["a"]}


def test_audit_runs_on_at_most_twelve_nodes():
    nodes = [f"v{i:02d}" for i in range(13)]
    chain = list(zip(nodes, nodes[1:]))
    report = audit_scenario(Scenario("chain12", Dag(nodes[:12], chain[:11]), "graph"))
    assert all(r.holds for r in report.results)
    with pytest.raises(OracleError, match=r"at most 12 nodes \(this scenario has 13\)"):
        audit_scenario(Scenario("chain13", Dag(nodes, chain), "graph"))


@pytest.mark.parametrize("kind", ["discrete", "gaussian"])
def test_a_scenario_over_int_labels_audits(kind):
    """Every backend keeps the graph's labels as they are: over the chain
    0 -> 1 -> 2 the oracle's variables are the DAG's nodes, ints, and the
    audit holds throughout, as it does on the graph itself."""
    dag = Dag([0, 1, 2], [(0, 1), (1, 2)])
    if kind == "discrete":
        cpts = [Cpt.coin(0, F(1, 3)),
                Cpt(1, 2, (0,), (2,), {(0,): (F(1, 4), F(3, 4)), (1,): (F(1, 2), F(1, 2))}),
                Cpt(2, 2, (1,), (2,), {(0,): (F(1, 5), F(4, 5)), (1,): (F(2, 3), F(1, 3))})]
        sc = Scenario("chain", dag, kind, cpts=cpts)
        assert DiscreteOracle(sc.joint).variables == sc.dag.nodes
    else:
        sc = Scenario("chain", dag, kind, gaussian=GaussianSystem(
            dag.nodes, {(1, 0): 1, (2, 1): F(1, 2)}, {v: 1 for v in dag.nodes}))
    assert sc.oracle().variables == sc.dag.nodes == (0, 1, 2)
    report = audit_scenario(sc).to_dict()
    assert report == audit_scenario(Scenario("chain", dag, "graph")).to_dict()
    assert all(r["holds"] for r in report["results"])
