"""Output checks and the determinism digest.

Every check replays or substitutes through the library's independent
verifiers (``replay``, ``verify_separator``, ``verify_leq_outcome``,
``verify_witnesses``, ``verify_state_certificate``,
``verify_coboundary_witness``) or by direct arithmetic here, never through
the searches that produced the output.  A check raises ``CheckFailure`` on
any mismatch; otherwise it returns one flag per op saying whether the op
ended undecided (UNKNOWN, INCONCLUSIVE, or a sweep with unknown pairs).
"""

from __future__ import annotations

import dataclasses
from enum import Enum
from fractions import Fraction


class CheckFailure(Exception):
    """An op's output failed an independent check."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailure(what)


def _scaled(k: int, vec) -> tuple[int, ...]:
    return tuple(k * x for x in vec)


# ---------------------------------------------------------------------------
# decider outcomes


def equiv_outcome(ts, pres, f, g, out) -> bool:
    f, g = tuple(f), tuple(g)
    if out.is_equiv:
        cert = out.certificate
        _require(cert is not None and cert.start == f and cert.end == g, "equiv: certificate endpoints")
        try:
            end = ts.replay(pres, f, cert)
        except ts.InputError as e:
            raise CheckFailure(f"equiv: certificate does not replay: {e}") from None
        _require(end == g, "equiv: certificate replays to the wrong vector")
        return False
    if out.is_not_equiv:
        _require(
            out.separator is not None and ts.verify_separator(pres, out.separator, f, g),
            "equiv: separator fails verification",
        )
        return False
    _require(out.is_unknown and out.budget is not None, "equiv: unknown without a budget report")
    return True


def leq_outcome(ts, pres, f, g, out) -> bool:
    if out.is_equiv:
        _require(ts.verify_leq_outcome(pres, f, g, out), "leq: chain fails replay")
        return False
    if out.is_not_equiv:
        _require(
            out.separator is not None
            and ts.verify_separator(pres, out.separator, f, g, order=True),
            "leq: order separator fails verification",
        )
        return False
    _require(out.is_unknown and out.budget is not None, "leq: unknown without a budget report")
    return True


def sweep_outcome(ts, pres, sweep, max_pairs: int) -> bool:
    _require(0 <= sweep.unknown_pairs and 0 < sweep.pairs_checked <= max_pairs, "sweep: pair counts")
    ce = sweep.counterexample
    if ce is not None:
        _require(ce.n > ce.m >= 1, "sweep: counterexample multipliers")
        _require(
            ts.verify_leq_outcome(pres, _scaled(ce.n, ce.theta), _scaled(ce.m, ce.eta), ce.scaled_leq),
            "sweep: counterexample chain fails replay",
        )
        _require(
            ts.verify_separator(pres, ce.order_separator, ce.theta, ce.eta, order=True),
            "sweep: counterexample separator fails verification",
        )
    return sweep.unknown_pairs > 0


# ---------------------------------------------------------------------------
# states


def state_certificate(ts, model, target, cert) -> None:
    _require(tuple(cert.target) == tuple(target), "state: certificate for another target")
    _require(ts.verify_state_certificate(model, cert), "state: certificate fails substitution")


def positive_invariant(model, vec, normalized: bool, what: str) -> None:
    """Strictly positive, A_i vec = vec for every matrix, and (optionally) sum 1."""
    n = model.dim
    _require(len(vec) == n and all(Fraction(x) > 0 for x in vec), f"{what}: not strictly positive")
    for mat in model.matrices:
        for v in range(n):
            _require(sum(mat[v][w] * vec[w] for w in range(n)) == vec[v], f"{what}: not invariant")
    if normalized:
        _require(sum(vec) == 1, f"{what}: does not sum to 1")


# ---------------------------------------------------------------------------
# per-workload unit checks


def action_pair(ts, action, pres, f, g, outs) -> list[bool]:
    oracle, brute, engine = outs
    _require(isinstance(oracle, bool), "oracle: not a boolean")
    _require(brute.verdict == ("equiv" if oracle else "not_equiv"), "bruteforce disagrees with oracle")
    _require(engine.is_equiv == oracle and not engine.is_unknown, "decide_equiv disagrees with oracle")
    if oracle:
        _require(ts.verify_witnesses(action, f, g, brute.witnesses), "bruteforce witnesses fail")
    equiv_outcome(ts, pres, f, g, engine)
    return [False, False, False]


def graph_model(ts, pres, f, g, theta, outs) -> list[bool]:
    equiv, leq, paradox = outs
    return [
        equiv_outcome(ts, pres, f, g, equiv),
        leq_outcome(ts, pres, f, g, leq),
        leq_outcome(ts, pres, _scaled(2, theta), theta, paradox),
    ]


def classify_model(ts, model, pres, outs) -> list[bool]:
    report, stiemke, states = outs[0], outs[1], outs[2:]
    _require(
        report.verdict in (ts.STABLY_FINITE, ts.PURELY_INFINITE, ts.INCONCLUSIVE, ts.HYPOTHESES_NOT_MET),
        "classify: unknown verdict",
    )
    cob = report.coboundary
    if cob.holds:
        _require(report.faithful_state is not None, "classify: coboundary holds without a faithful state")
        positive_invariant(model, report.faithful_state, True, "classify: faithful state")
    else:
        _require(ts.verify_coboundary_witness(model, cob), "classify: coboundary witness fails")
        _require(report.faithful_state is None, "classify: faithful state beside a coboundary witness")
    paradox_at = {}
    for vi, (_, out) in enumerate(report.paradox_results or ()):
        d = ts.unit_vector(model.dim, vi)
        leq_outcome(ts, pres, _scaled(2, d), d, out)
        paradox_at[vi] = out.is_equiv
    for vi, (_, cert) in enumerate(report.state_results or ()):
        if cert is not None:
            state_certificate(ts, model, ts.unit_vector(model.dim, vi), cert)
    if report.unperforation is not None:
        sweep_outcome(ts, pres, report.unperforation, ts.ClassifyBudgets().unperforation_max_pairs)

    _require(stiemke.consistent, "stiemke: inconsistent")
    _require(stiemke.coboundary_holds == cob.holds, "stiemke: coboundary disagrees with classify")
    _require((stiemke.positive_vector is not None) == cob.holds, "stiemke: alternative violated")
    if stiemke.positive_vector is not None:
        positive_invariant(model, stiemke.positive_vector, False, "stiemke: positive vector")

    for vi, cert in enumerate(states):
        if cert is None:
            # a faithful state rescaled at vi would be a state there
            _require(report.faithful_state is None, "state: none found beside a faithful state")
        else:
            state_certificate(ts, model, ts.unit_vector(model.dim, vi), cert)
            _require(not paradox_at.get(vi, False), "state and (2,1)-paradox at one vertex")
    return [report.verdict == ts.INCONCLUSIVE, False] + [False] * len(states)


def diagonal_states(ts, model, targets, outs) -> list[bool]:
    """States of diag(2,1,..,1), the 2 at vertex 0, at each target vertex."""
    for v, cert in zip(targets, outs):
        if v == 0:
            # value 2c = c at the doubled vertex forces c = 0 there: no state
            _require(cert is None, "state: found at the doubled vertex of diag(2,1,..,1)")
        else:
            _require(cert is not None, "state: none at a fixed vertex of diag(2,1,..,1)")
            state_certificate(ts, model, ts.unit_vector(model.dim, v), cert)
    return [False] * len(outs)


# ---------------------------------------------------------------------------
# determinism digest


def canonical(obj) -> str:
    """Deterministic text form of an op output.

    Dataclasses contribute their compared fields in declaration order, so a
    diagnostic field declared with ``compare=False`` leaves the digest alone.
    """
    if obj is None or isinstance(obj, (bool, str)):
        return repr(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, Fraction):
        return str(obj.numerator) if obj.denominator == 1 else f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, float):
        return repr(obj)  # only the extended value INFINITY occurs
    if isinstance(obj, Enum):
        return str(obj.value)
    if isinstance(obj, (tuple, list)):
        return "(" + ",".join(canonical(x) for x in obj) + ")"
    if dataclasses.is_dataclass(obj):
        parts = (canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj) if f.compare)
        return "{" + ",".join(parts) + "}"
    if isinstance(obj, BaseException):
        return f"raised {type(obj).__name__}"
    raise TypeError(f"no canonical form for {type(obj).__name__}")
