"""Command-line interface: model ingestion, dispatch, deterministic reports.

Model files are JSON with a "kind" discriminator:

  {"kind": "graph",  "vertices": [...], "edges": [{"id","range","source"}, ...]}
  {"kind": "kgraph", "vertices": [...], "matrices": [[[...row...], ...], ...]}
  {"kind": "action", "points": [...], "generators": [[one-line images], ...]}

`main` rejects negative --budget-states, --budget-coord, --coeff-bound,
--samples and --n, loads the model once, and hands it to the subcommand's
handler; the report is {"command", "model", **fields returned by the
handler}.

Exit codes: 0 definite verdict, 2 invalid input, 3 budget exhausted /
inconclusive, 1 internal error or consistency-check failure.  An internal
error is reported as a JSON diagnostic with code INTERNAL and the file and
line that raised it, never as a traceback.  Identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import traceback
from fractions import Fraction
from typing import Any

from . import __version__
from .actions import (
    FiniteGroupAction,
    bruteforce_equiv,
    build_action,
    oracle_equiv,
    orbit_fingerprint,
    stabilize,
    transformation_presentation,
    verify_witnesses,
)
from .classify import ClassifyBudgets, ClassificationReport, INCONCLUSIVE, classify
from .errors import SCHEMA_VIOLATION, UNSUPPORTED_MODEL, ConsistencyError, InputError
from .graphs import (
    DirectedGraph,
    KGraphModel,
    build_graph,
    kgraph_from_graph,
    presentation_from_kgraph,
    validate_kgraph,
)
from .linalg import vec_scale
from .monoid import (
    INFINITY,
    DecisionOutcome,
    EquivCertificate,
    LinearSeparator,
    SearchBudget,
    UnperforationSweep,
    Verdict,
    decide_equiv,
    decide_leq,
    kl_paradoxical,
    almost_unperforated_up_to,
    unit_vector,
    verify_certificate,
    verify_leq_outcome,
    verify_separator,
)
from .states import CoboundaryResult, StateCertificate, coboundary_check, solve_state_at

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID = 2
EXIT_UNKNOWN = 3


# ---------------------------------------------------------------------------
# serialization helpers (everything JSON-native and deterministic)


def _num(x) -> Any:
    if x == INFINITY:
        return "inf"
    f = Fraction(x)
    if f.denominator == 1:
        return int(f)
    return f"{f.numerator}/{f.denominator}"


def _certificate_dict(cert: EquivCertificate) -> dict:
    return {
        "start": list(cert.start),
        "steps": [
            {"move": s.move_index, "direction": s.direction.value} for s in cert.steps
        ],
        "end": list(cert.end),
    }


def _separator_dict(sep: LinearSeparator) -> dict:
    out: dict[str, Any] = {"kind": sep.kind.value, "coeffs": [_num(c) for c in sep.coeffs]}
    if sep.modulus is not None:
        out["modulus"] = sep.modulus
    return out


def _outcome_dict(outcome: DecisionOutcome) -> dict:
    out: dict[str, Any] = {"verdict": outcome.verdict.value}
    if outcome.certificate is not None:
        out["certificate"] = _certificate_dict(outcome.certificate)
    if outcome.slack is not None:
        out["slack"] = list(outcome.slack)
    if outcome.separator is not None:
        out["separator"] = _separator_dict(outcome.separator)
    if outcome.budget is not None:
        out["budget"] = {
            "states_visited": outcome.budget.states_visited,
            "coordinate_cap_hit": outcome.budget.coordinate_cap_hit,
            "exhausted": outcome.budget.exhausted,
        }
    return out


def _state_dict(cert: StateCertificate | None) -> dict | None:
    if cert is None:
        return None
    return {
        "values": [_num(v) for v in cert.values],
        "target": list(cert.target),
        "support": list(cert.support),
    }


def _coboundary_dict(res: CoboundaryResult) -> dict:
    out: dict[str, Any] = {"holds": res.holds}
    if not res.holds:
        out["witness_y"] = list(res.witness_y)
        out["witness_z"] = [list(z) for z in res.witness_z]
    return out


def _sweep_dict(sweep: UnperforationSweep) -> dict:
    return {
        "pairs_checked": sweep.pairs_checked,
        "unknown_pairs": sweep.unknown_pairs,
        "truncated": sweep.truncated,
    }


def _report_dict(report: ClassificationReport) -> dict:
    return {
        "verdict": report.verdict,
        "structural": {
            "cofinal": report.structural.cofinal,
            "condition_L": report.structural.condition_L,
            "strongly_connected": report.structural.strongly_connected,
            "cyclic_sccs": [list(c) for c in report.structural.cyclic_sccs],
        },
        "minimality_proxy": report.minimality_proxy,
        "principality_proxy": report.principality_proxy,
        "faithful_state": None
        if report.faithful_state is None
        else [_num(v) for v in report.faithful_state],
        "paradox_results": None
        if report.paradox_results is None
        else {v: _outcome_dict(o) for v, o in report.paradox_results},
        "state_results": None
        if report.state_results is None
        else {v: _state_dict(c) for v, c in report.state_results},
        "coboundary": _coboundary_dict(report.coboundary),
        "unperforation": None
        if report.unperforation is None
        else _sweep_dict(report.unperforation),
        "caveats": list(report.caveats),
        "notes": list(report.notes),
    }


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines: list[str] = []

    def walk(prefix: str, value: Any) -> None:
        if isinstance(value, dict):
            for k, v in value.items():
                key = f"{prefix}{k}"
                if isinstance(v, dict):
                    walk(key + ".", v)
                else:
                    lines.append(f"{key} = {json.dumps(v, sort_keys=True)}")
        else:
            lines.append(f"{prefix.rstrip('.')} = {json.dumps(value, sort_keys=True)}")

    walk("", payload)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# model loading


def parse_model(path: str) -> dict:
    try:
        if path == "-":
            raw = json.load(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
    except OSError as e:
        raise InputError(SCHEMA_VIOLATION, f"cannot read {path!r}: {e}") from None
    except json.JSONDecodeError as e:
        raise InputError(SCHEMA_VIOLATION, f"invalid JSON in {path!r}: {e}") from None
    if not isinstance(raw, dict) or "kind" not in raw:
        raise InputError(SCHEMA_VIOLATION, "model file must be an object with a 'kind' field")
    return raw


_MODEL_FIELDS = {"graph": (build_graph, "vertices", "edges"),
                 "kgraph": (validate_kgraph, "vertices", "matrices"),
                 "action": (build_action, "points", "generators")}


def _build_model(raw: dict):
    """Build the model of a parsed file.  Each field the builder takes must
    be a JSON array; anything else is a SCHEMA_VIOLATION, never converted."""
    kind = raw.get("kind")
    if not isinstance(kind, str) or kind not in _MODEL_FIELDS:
        raise InputError(SCHEMA_VIOLATION, f"unknown model kind {kind!r}")
    build, *names = _MODEL_FIELDS[kind]
    for name in names:
        if name not in raw:
            raise InputError(SCHEMA_VIOLATION, f"model is missing field {name!r}")
        if type(raw[name]) is not list:
            raise InputError(SCHEMA_VIOLATION, f"field {name!r} must be a JSON array",
                             field=name)
    try:
        return kind, build(*(raw[name] for name in names))
    except InputError:
        raise
    except (TypeError, ValueError) as e:
        raise InputError(SCHEMA_VIOLATION, f"malformed model payload: {e}") from None


def _as_kgraph(kind: str, model) -> KGraphModel:
    if kind == "graph":
        return kgraph_from_graph(model)
    if kind == "kgraph":
        return model
    raise InputError(
        UNSUPPORTED_MODEL, "this command requires a graph or kgraph model", kind=kind
    )


def _presentation(kind: str, model):
    if kind == "action":
        return transformation_presentation(model)
    return presentation_from_kgraph(_as_kgraph(kind, model))


def _load(args) -> tuple[dict, str, Any]:
    """Check the budget and count flags, then parse and build the model file."""
    for flag in ("budget_states", "budget_coord", "coeff_bound", "samples", "n"):
        value = getattr(args, flag, 0)
        if value < 0:
            name = "--" + flag.replace("_", "-")
            raise InputError(
                SCHEMA_VIOLATION, f"{name} must be nonnegative", flag=name, value=value
            )
    raw = parse_model(args.model)
    kind, model = _build_model(raw)
    return raw, kind, model


def _model_summary(kind: str, model, raw: dict) -> dict:
    summary: dict[str, Any] = {"kind": kind}
    if "name" in raw:
        summary["name"] = raw["name"]
    if isinstance(model, (KGraphModel,)):
        summary["vertices"] = list(model.vertices)
        summary["k"] = model.k
    elif isinstance(model, DirectedGraph):
        summary["vertices"] = list(model.vertices)
        summary["edges"] = len(model.edges)
    elif isinstance(model, FiniteGroupAction):
        summary["points"] = list(model.points)
        summary["generators"] = len(model.generators)
    return summary


def _parse_vector(text: str, dim: int, what: str) -> tuple[int, ...]:
    parts = [p for chunk in text.split(",") for p in chunk.split()] if text else []
    try:
        vec = tuple(int(p) for p in parts)
    except ValueError:
        raise InputError(SCHEMA_VIOLATION, f"{what} must be a list of integers") from None
    if len(vec) != dim:
        raise InputError(
            SCHEMA_VIOLATION,
            f"{what} must have {dim} entries (declaration order), got {len(vec)}",
        )
    if any(x < 0 for x in vec):
        raise InputError(SCHEMA_VIOLATION, f"{what} must be nonnegative")
    return vec


# ---------------------------------------------------------------------------
# command handlers; each gets the loaded model and returns (fields, exit_code),
# the fields following "command" and "model" in the payload


def _budget(args) -> SearchBudget:
    return SearchBudget(max_states=args.budget_states, max_coord=args.budget_coord)


def _check_evidence(command: str, pres, f, g, outcome: DecisionOutcome, order: bool) -> None:
    """Replay an outcome's evidence for f against g with the independent
    verifiers: an EQUIV chain from f to g, a LEQ chain from g to some g' >= f
    with its slack, or a separator of f from g.  UNKNOWN carries none."""
    if outcome.is_equiv and order:
        ok = verify_leq_outcome(pres, f, g, outcome)
    elif outcome.is_equiv:
        cert = outcome.certificate
        ok = verify_certificate(pres, cert) and cert.start == f and cert.end == g
    elif outcome.is_not_equiv:
        ok = verify_separator(pres, outcome.separator, f, g, order=order)
    else:
        ok = True
    if not ok:
        raise ConsistencyError(f"{command}: emitted evidence failed independent verification")


def _cmd_classify(args, kind: str, model) -> tuple[dict, int]:
    budgets = ClassifyBudgets(
        search=_budget(args),
        unperforation_coeff=args.coeff_bound,
    )
    report = classify(_as_kgraph(kind, model), budgets)
    code = EXIT_UNKNOWN if report.verdict == INCONCLUSIVE else EXIT_OK
    return {"report": _report_dict(report)}, code


def _cmd_decide(args, kind: str, model) -> tuple[dict, int]:
    pres = _presentation(kind, model)
    lhs = _parse_vector(args.lhs, pres.dim, "--lhs")
    rhs = _parse_vector(args.rhs, pres.dim, "--rhs")
    order = args.command == "leq"
    outcome = (decide_leq if order else decide_equiv)(pres, lhs, rhs, _budget(args))
    _check_evidence(args.command, pres, lhs, rhs, outcome, order)
    fields = {"lhs": list(lhs), "rhs": list(rhs), "outcome": _outcome_dict(outcome)}
    return fields, EXIT_UNKNOWN if outcome.is_unknown else EXIT_OK


def _cmd_paradox(args, kind: str, model) -> tuple[dict, int]:
    pres = _presentation(kind, model)
    target = _parse_vector(args.target, pres.dim, "--target")
    outcome = kl_paradoxical(pres, target, args.k, args.l, _budget(args))
    # kl_paradoxical decides k.target <= l.target
    _check_evidence(args.command, pres, vec_scale(args.k, target), vec_scale(args.l, target),
                    outcome, True)
    fields = {
        "target": list(target),
        "k": args.k,
        "l": args.l,
        "paradoxical": outcome.is_equiv,
        "outcome": _outcome_dict(outcome),
    }
    return fields, EXIT_UNKNOWN if outcome.is_unknown else EXIT_OK


def _cmd_state(args, kind: str, model) -> tuple[dict, int]:
    kmodel = _as_kgraph(kind, model)
    target = _parse_vector(args.target, kmodel.dim, "--target")
    cert = solve_state_at(kmodel, target)
    fields = {"target": list(target), "state": _state_dict(cert), "no_state": cert is None}
    return fields, EXIT_OK


def _cmd_coboundary(args, kind: str, model) -> tuple[dict, int]:
    res = coboundary_check(_as_kgraph(kind, model))
    return {"coboundary": _coboundary_dict(res)}, EXIT_OK


def _cmd_unperforation(args, kind: str, model) -> tuple[dict, int]:
    pres = _presentation(kind, model)
    gens = [unit_vector(pres.dim, i) for i in range(pres.dim)]
    sweep = almost_unperforated_up_to(
        pres,
        gens,
        coeff_bound=args.coeff_bound,
        budget=_budget(args),
    )
    fields = {
        "coeff_bound": args.coeff_bound,
        "sweep": _sweep_dict(sweep),
    }
    return fields, EXIT_UNKNOWN if sweep.truncated or sweep.unknown_pairs else EXIT_OK


def _cmd_oracle_compare(args, kind: str, model) -> tuple[dict, int]:
    if kind != "action":
        raise InputError(UNSUPPORTED_MODEL, "oracle-compare requires an action model", kind=kind)
    pres = transformation_presentation(model)
    rng = random.Random(args.seed)
    n = model.degree
    disagreement = None
    checked = 0
    for _ in range(args.samples):
        f = tuple(rng.randint(0, 3) for _ in range(n))
        g = tuple(rng.randint(0, 3) for _ in range(n))
        oracle = oracle_equiv(model, f, g)
        brute = bruteforce_equiv(model, f, g)
        engine = decide_equiv(pres, f, g, _budget(args))
        checked += 1
        brute_ok = brute.verdict == ("equiv" if oracle else "not_equiv")
        engine_ok = engine.verdict == (Verdict.EQUIV if oracle else Verdict.NOT_EQUIV)
        witness_ok = (
            verify_witnesses(model, f, g, brute.witnesses) if brute.verdict == "equiv" else True
        )
        if not (brute_ok and engine_ok and witness_ok):
            disagreement = {
                "f": list(f),
                "g": list(g),
                "oracle": oracle,
                "bruteforce": brute.verdict,
                "engine": engine.verdict.value,
            }
            break
    fields = {
        "samples": checked,
        "seed": args.seed,
        "agreement": disagreement is None,
        "disagreement": disagreement,
    }
    return fields, EXIT_OK if disagreement is None else EXIT_INTERNAL


def _cmd_stabilize_test(args, kind: str, model) -> tuple[dict, int]:
    if kind != "action":
        raise InputError(UNSUPPORTED_MODEL, "stabilize-test requires an action model", kind=kind)
    base = orbit_fingerprint(model)
    rows = []
    ok = True
    for i in range(1, args.n + 1):
        fp = orbit_fingerprint(stabilize(model, i))
        rows.append({"n": i, "fingerprint": fp})
        ok = ok and fp == base
    fields = {"fingerprint": base, "stabilized": rows, "invariant": ok}
    return fields, EXIT_OK if ok else EXIT_INTERNAL


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="typesemi",
        description="Type-semigroup decision procedures and dichotomy classification",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("model", help="model JSON file, or - for stdin")
        sp.add_argument("--format", choices=("json", "text"), default="json")
        sp.add_argument("--out", default=None, help="also write the report to this path")

    def budget(sp):  # only for the commands that search
        sp.add_argument("--budget-states", type=int, default=200_000)
        sp.add_argument("--budget-coord", type=int, default=64)

    sp = sub.add_parser("classify", help="dichotomy classification with certificates")
    common(sp)
    budget(sp)
    sp.add_argument("--coeff-bound", type=int, default=4)
    sp.set_defaults(handler=_cmd_classify)

    for name, help_text in (
        ("equiv", "decide class equality of two vectors"),
        ("leq", "decide the algebraic order between two vectors"),
    ):
        sp = sub.add_parser(name, help=help_text)
        common(sp)
        budget(sp)
        sp.add_argument("--lhs", required=True)
        sp.add_argument("--rhs", required=True)
        sp.set_defaults(handler=_cmd_decide)

    sp = sub.add_parser("paradox", help="(k,l)-paradoxicality of a class")
    common(sp)
    budget(sp)
    sp.add_argument("--target", required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--l", type=int, required=True)
    sp.set_defaults(handler=_cmd_paradox)

    sp = sub.add_parser("state", help="normalized invariant state at a target class")
    common(sp)
    sp.add_argument("--target", required=True)
    sp.set_defaults(handler=_cmd_state)

    sp = sub.add_parser("coboundary", help="vertex-level coboundary condition")
    common(sp)
    sp.set_defaults(handler=_cmd_coboundary)

    sp = sub.add_parser("unperforation", help="bounded almost-unperforation sweep")
    common(sp)
    budget(sp)
    sp.add_argument("--coeff-bound", type=int, default=4)
    sp.set_defaults(handler=_cmd_unperforation)

    sp = sub.add_parser("oracle-compare", help="cross-check the three deciders on an action")
    common(sp)
    budget(sp)
    sp.add_argument("--samples", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(handler=_cmd_oracle_compare)

    sp = sub.add_parser("stabilize-test", help="orbit fingerprint invariance under stabilization")
    common(sp)
    sp.add_argument("--n", type=int, default=4)
    sp.set_defaults(handler=_cmd_stabilize_test)

    return p


def _write_out(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise InputError(SCHEMA_VIOLATION, f"cannot write {path!r}: {e}") from None


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    fmt = getattr(args, "format", "json")
    try:
        raw, kind, model = _load(args)
        fields, code = args.handler(args, kind, model)
        payload = {"command": args.command, "model": _model_summary(kind, model, raw), **fields}
        text = _render(payload, fmt)
        if getattr(args, "out", None):
            _write_out(args.out, text)
    except InputError as e:
        diagnostic = {"error": {"code": e.code, "message": str(e), "details": e.details}}
        sys.stdout.write(_render(diagnostic, fmt))
        return EXIT_INVALID
    except ConsistencyError as e:
        diagnostic = {"error": {"code": "CONSISTENCY_FAILURE", "message": str(e)}}
        sys.stdout.write(_render(diagnostic, fmt))
        return EXIT_INTERNAL
    except Exception as e:  # a library bug: report where it was raised, never a traceback
        frame = traceback.extract_tb(e.__traceback__)[-1]
        diagnostic = {"error": {
            "code": "INTERNAL",
            "message": f"{type(e).__name__}: {e}",
            "details": {"raised_at": f"{os.path.basename(frame.filename)}:{frame.lineno}"},
        }}
        sys.stdout.write(_render(diagnostic, fmt))
        return EXIT_INTERNAL
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
