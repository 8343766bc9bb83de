"""Dichotomy classifier: stably finite versus purely infinite.

The decision ladder, every claim backed by an independently checkable
certificate:

1. structural proxies (cofinality, condition (L)) are read first off the
   access relation of the summed adjacency matrix; if either fails the
   verdict is HYPOTHESES_NOT_MET, with whatever finiteness or
   paradoxicality evidence was found attached (finiteness evidence is
   meaningful without the hypotheses; the headline dichotomy is not);
2. a faithful full-support invariant state gives STABLY_FINITE;
3. otherwise a properly-infinite certificate for every vertex generator
   gives PURELY_INFINITE (generator checks suffice: proper infiniteness is
   additive, and every class decomposes into vertex classes);
4. otherwise the verdict is INCONCLUSIVE, with traceless evidence from the
   per-vertex state solver and a bounded almost-unperforation sweep attached
   when they were computed.

The coboundary result is always included as a cross-check: a faithful state
exists exactly when the coboundary condition holds, and a disagreement
raises ConsistencyError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .errors import SCHEMA_VIOLATION, ConsistencyError, InputError, require_int
from .graphs import KGraphModel, StructuralReport, _require_model, structural_checks
from .linalg import vec_scale
from .monoid import (
    DecisionOutcome,
    SearchBudget,
    UnperforationSweep,
    _compiled_moves,
    _decide_leq,
    almost_unperforated_up_to,
    unit_vector,
)
from .states import (
    CoboundaryResult,
    StateCertificate,
    coboundary_check,
    faithful_finite_state,
    solve_state_at,
)

STABLY_FINITE = "STABLY_FINITE"
PURELY_INFINITE = "PURELY_INFINITE"
INCONCLUSIVE = "INCONCLUSIVE"
HYPOTHESES_NOT_MET = "HYPOTHESES_NOT_MET"

_PROXY_CAVEAT = (
    "cofinality and condition (L) are graph-level proxies for minimality "
    "and topological principality of the path groupoid"
)
_COBOUNDARY_CAVEAT = "coboundary condition decided at the vertex level"
_SKELETON_CAVEAT = (
    "structural proxies for k >= 2 are computed on the one-colored skeleton "
    "(sum of the adjacency matrices); heuristic only"
)


@dataclass(frozen=True)
class ClassifyBudgets:
    """The search budget of every decider `classify` calls, and the sweep's
    coefficient bound and pair cap, `int`s >= 0.  Each field is checked
    here, whether or not a verdict reaches the sweep."""

    search: SearchBudget = SearchBudget()
    unperforation_coeff: int = 4
    unperforation_max_pairs: int = 5000

    def __post_init__(self) -> None:
        if type(self.search) is not SearchBudget:
            raise InputError(SCHEMA_VIOLATION, f"search must be a SearchBudget, got {self.search!r}",
                             search=repr(self.search))
        require_int("unperforation_coeff", self.unperforation_coeff, nonnegative=True)
        require_int("unperforation_max_pairs", self.unperforation_max_pairs, nonnegative=True)


DEFAULT_CLASSIFY_BUDGETS = ClassifyBudgets()


@dataclass(frozen=True)
class ClassificationReport:
    verdict: str
    structural: StructuralReport
    minimality_proxy: bool
    principality_proxy: bool
    faithful_state: tuple[Fraction, ...] | None
    paradox_results: tuple[tuple[str, DecisionOutcome], ...] | None
    state_results: tuple[tuple[str, StateCertificate | None], ...] | None
    coboundary: CoboundaryResult
    unperforation: UnperforationSweep | None
    caveats: tuple[str, ...]
    notes: tuple[str, ...]


def _paradox_sweep(model: KGraphModel, budget: SearchBudget):
    """`kl_paradoxical(pres, e_v, 2, 1, budget)` at every vertex v, in order:
    the same ladder (`monoid._decide_leq`), with the moves compiled once,
    when the first vertex reaches the search, and shared by the rest.  Every
    root e_v and target 2 e_v has coordinates up to 2, so one layout holds
    them all."""
    pres = model._presentation
    layout = cache(lambda: _compiled_moves(pres, budget.max_coord, 2))
    results = []
    for vi, v in enumerate(model.vertices):
        e = unit_vector(model.dim, vi)
        results.append((v, _decide_leq(pres, vec_scale(2, e), e, budget, layout)))
    return tuple(results)


def classify(model: KGraphModel, budgets: ClassifyBudgets | None = None) -> ClassificationReport:
    _require_model(model)
    if budgets is None:
        budgets = DEFAULT_CLASSIFY_BUDGETS
    elif type(budgets) is not ClassifyBudgets:
        raise InputError(SCHEMA_VIOLATION, f"budgets must be a ClassifyBudgets, got {budgets!r}",
                         budgets=repr(budgets))
    pres = model._presentation
    structural = structural_checks(model)
    caveats = [_PROXY_CAVEAT, _COBOUNDARY_CAVEAT]
    if model.k > 1:
        caveats.append(_SKELETON_CAVEAT)
    notes: list[str] = []

    state = faithful_finite_state(model)
    coboundary = coboundary_check(model)
    if (state is not None) != coboundary.holds:
        raise ConsistencyError(
            "faithful-state solver and coboundary check disagree; this is a bug"
        )

    proxies_ok = structural.cofinal and structural.condition_L
    paradoxes = None
    state_results = None
    unperforation = None

    if not proxies_ok:
        if state is None:
            paradoxes = _paradox_sweep(model, budgets.search)
        verdict = HYPOTHESES_NOT_MET
        if state is not None:
            notes.append(
                "finiteness evidence attached: a faithful invariant state exists "
                "even though the dichotomy hypotheses fail"
            )
    elif state is not None:
        verdict = STABLY_FINITE
        notes.append(
            "the model class is amenable; with a faithful invariant state the "
            "algebra is quasidiagonal as well"
        )
    else:
        paradoxes = _paradox_sweep(model, budgets.search)
        if all(outcome.is_equiv for (_, outcome) in paradoxes):
            verdict = PURELY_INFINITE
        else:
            state_results = tuple(
                (v, solve_state_at(model, unit_vector(model.dim, vi)))
                for vi, v in enumerate(model.vertices)
            )
            unperforation = almost_unperforated_up_to(
                pres,
                [unit_vector(model.dim, vi) for vi in range(model.dim)],
                coeff_bound=budgets.unperforation_coeff,
                budget=budgets.search,
                max_pairs=budgets.unperforation_max_pairs,
            )
            verdict = INCONCLUSIVE
            if any(cert is None for (_, cert) in state_results):
                notes.append("traceless evidence: some vertex class admits no normalized state")
                if not unperforation.truncated and unperforation.unknown_pairs == 0:
                    notes.append(
                        "purely infinite modulo almost unperforation "
                        "(every pair in the swept box was decided)"
                    )
                else:
                    notes.append(
                        "almost-unperforation sweep incomplete "
                        f"(pairs={unperforation.pairs_checked}, "
                        f"unknown={unperforation.unknown_pairs}, "
                        f"truncated={unperforation.truncated})"
                    )

    return ClassificationReport(
        verdict=verdict,
        structural=structural,
        minimality_proxy=structural.cofinal,
        principality_proxy=structural.condition_L,
        faithful_state=state,
        paradox_results=paradoxes,
        state_results=state_results,
        coboundary=coboundary,
        unperforation=unperforation,
        caveats=tuple(caveats),
        notes=tuple(notes),
    )
