"""The CMC audit against the exhaustive d-separation enumeration."""

import itertools
import random
from fractions import Fraction as F

from kassoc.audit import check_cmc
from kassoc.distribution import Cpt, DiscreteJoint
from kassoc.gaussian import GaussianSystem
from kassoc.graph import enumerate_dags, random_dag
from kassoc.oracle import DiscreteOracle, GaussianOracle, GraphOracle


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
    assert result.exhaustive
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
