"""kassoc: exact causal-structure analysis around k-associations.

Graph layer (DAGs, bitmask d-separation in pure Python), exact discrete
and linear-Gaussian probability oracles, weak-association scans, a sound
collider orientation rule, grow-shrink Markov blanket recovery, and an
exact sparsest-permutation search (a DP over prefix sets) — all over
rational arithmetic so that independence is decided exactly, never by
tolerance.
"""

from .association import (
    AssociationBudget,
    AssociationReport,
    UNBOUNDED,
    UnfaithfulTriple,
    find_unfaithful_triples,
    is_1_associated,
    is_2_associated,
    is_strictly_2_associated,
    is_weakly_associated,
    weak_associations,
)
from .audit import AuditReport, AuditResult, audit_scenario
from .distribution import Cpt, Dataset, DiscreteJoint, DistributionError
from .gaussian import GaussianError, GaussianSystem, partial_correlation_zero
from .graph import KERNEL, MAX_NODES, Dag, GraphError
from .growshrink import GsStep, markov_blanket
from .gtest import GTestConfig, GTestResult, g_test
from .oracle import (
    DiscreteOracle,
    GaussianOracle,
    GraphOracle,
    GTestOracle,
    IndependenceOracle,
    OracleError,
)
from .orientation import (
    OrientationQuery,
    OrientationVerdict,
    PreconditionError,
    check_nonadjacency,
    detect_of_failure,
    orient,
)
from .scenarios import BUILTINS, Scenario, ScenarioError, builtin, load, load_path, save
from .sparsest import PermutationDag, sparsest_permutations

__version__ = "0.1.0"

__all__ = [
    "AssociationBudget",
    "AssociationReport",
    "AuditReport",
    "AuditResult",
    "BUILTINS",
    "Cpt",
    "Dag",
    "Dataset",
    "DiscreteJoint",
    "DiscreteOracle",
    "DistributionError",
    "GTestConfig",
    "GTestOracle",
    "GTestResult",
    "GaussianError",
    "GaussianOracle",
    "GaussianSystem",
    "GraphError",
    "GraphOracle",
    "GsStep",
    "IndependenceOracle",
    "KERNEL",
    "MAX_NODES",
    "OracleError",
    "OrientationQuery",
    "OrientationVerdict",
    "PermutationDag",
    "PreconditionError",
    "Scenario",
    "ScenarioError",
    "UNBOUNDED",
    "UnfaithfulTriple",
    "audit_scenario",
    "builtin",
    "check_nonadjacency",
    "detect_of_failure",
    "find_unfaithful_triples",
    "g_test",
    "is_1_associated",
    "is_2_associated",
    "is_strictly_2_associated",
    "is_weakly_associated",
    "load",
    "load_path",
    "markov_blanket",
    "orient",
    "partial_correlation_zero",
    "save",
    "sparsest_permutations",
    "weak_associations",
]
