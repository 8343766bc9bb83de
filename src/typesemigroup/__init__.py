"""Type semigroups of combinatorial groupoid models.

Certified decision procedures for finitely presented commutative monoids,
graph and k-graph transfer calculus, explicit finite-action ground truth,
exact-rational state solvers, and a stably-finite / purely-infinite
classifier.  All arithmetic is exact; every positive verdict carries a
replayable certificate and every negative one an invariant separator.
"""

__version__ = "0.1.0"

from .actions import (
    Bisection,
    BruteforceOutcome,
    FiniteGroupAction,
    OrbitPartition,
    bruteforce_equiv,
    build_action,
    closure,
    oracle_equiv,
    orbit_fingerprint,
    orbits,
    stabilize,
    transformation_presentation,
    verify_witnesses,
)
from .classify import (
    HYPOTHESES_NOT_MET,
    INCONCLUSIVE,
    PURELY_INFINITE,
    STABLY_FINITE,
    ClassificationReport,
    ClassifyBudgets,
    classify,
)
from .errors import ConsistencyError, InputError
from .graphs import (
    DirectedGraph,
    Edge,
    KGraphModel,
    StructuralReport,
    adjacency_power,
    build_graph,
    graph_adjacency,
    kgraph_from_graph,
    presentation_from_kgraph,
    relabel_kgraph,
    structural_checks,
    theta,
    validate_kgraph,
)
from .monoid import (
    DEFAULT_BUDGET,
    INFINITY,
    BudgetReport,
    DecisionOutcome,
    Direction,
    EquivCertificate,
    LinearSeparator,
    MonoidPresentation,
    Move,
    RewriteStep,
    SearchBudget,
    SeparatorKind,
    UnperforationSweep,
    Verdict,
    almost_unperforated_up_to,
    build_presentation,
    decide_equiv,
    decide_leq,
    find_separator,
    kl_paradoxical,
    replay,
    unit_vector,
    verify_certificate,
    verify_leq_outcome,
    verify_separator,
)
from .states import (
    CoboundaryResult,
    StateCertificate,
    StiemkeResult,
    coboundary_check,
    faithful_finite_state,
    positive_invariant_vector,
    solve_state_at,
    stiemke_crosscheck,
    verify_coboundary_witness,
    verify_state_certificate,
)

from types import ModuleType as _ModuleType

# the names above, without the submodules their imports bind
__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
