"""Self-test of the benchmark at tiny size.

    python3 bench/selftest.py

Checks that every workload runs on a tiny input in both modes, that every
metric in BENCHMARK.json is printed with its unit, that the digest repeats
for a repeated seed, that corrupted certificates and separators fail the
output checks (and a run fed one exits nonzero without metrics), and that a
directory holding only the benchmark fails without printing a result.
Prints one line per check; exits nonzero on the first failure.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import checks
import run
import workloads

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_SECONDS = "0.3"


def _shrink() -> None:
    """Tiny inputs: short digests, small sweeps and diagonal models, fewer repeats."""
    workloads.DIAG_SIZES = (3, 4)
    workloads.DIAG_ALL_VERTICES = (4,)
    workloads.SWEEP_MAX_PAIRS = 40
    workloads.WIDE_DIM = 3
    workloads.WIDE_MAX_PAIRS = 5
    workloads.PAIRS_PER_VISIT = 5
    run.SETUP_REPEATS = 2
    run.CLI_REPEATS = 2
    for name, w in list(workloads.WORKLOADS.items()):
        workloads.WORKLOADS[name] = dataclasses.replace(w, digest_units=min(w.digest_units, 5))


def _run(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    return code, out.getvalue()


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"FAIL {what}")
    print(f"ok   {what}")


def _result(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def check_workloads() -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        for name in workloads.WORKLOADS:
            code, text = _run("--workload", name, "--seed", "3", "--seconds", TINY_SECONDS,
                              "--trace", str(trace))
            res = _result(text)
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            _expect(code == 0 and res["correct"] and res["attempted"] >= 1,
                    f"{name} trace={trace} runs")
            _expect(got == expected, f"{name} trace={trace} prints every {key} metric with its unit")
            if trace == 0:
                _expect("failed_frac" in text and "beyond it" in text,
                        f"{name} prints failed_frac and the tail percentile")


def check_digest() -> None:
    for name in workloads.WORKLOADS:
        digests = [
            [ln for ln in _run("--workload", name, "--seed", s, "--seconds", TINY_SECONDS)[1].splitlines()
             if ln.strip().startswith("digest")][0]
            for s in ("5", "5", "6")
        ]
        _expect(digests[0] == digests[1], f"{name} digest repeats for a repeated seed")
        if name != "sweep-states":  # its outputs do not change under the seeded relabelling
            _expect(digests[0] != digests[2], f"{name} digest differs between seeds")


def _ts():
    return run.set_up(workloads.WORKLOADS["graph-decide"], [])[0]


def _must_fail(fn, what: str) -> None:
    try:
        fn()
    except checks.CheckFailure:
        _expect(True, f"corrupted {what} is caught")
        return
    _expect(False, f"corrupted {what} is caught")


def check_corruption() -> None:
    ts = _ts()
    r = dataclasses.replace
    two = ts.presentation_from_kgraph(ts.validate_kgraph(["v"], [[[2]]]))
    out = ts.kl_paradoxical(two, (1,), 2, 1)
    _expect(checks.leq_outcome(ts, two, (2,), (1,), out) is False, "genuine (2,1) chain passes")
    cert = out.certificate
    bad_step = r(cert, steps=cert.steps[:-1])
    _must_fail(lambda: checks.leq_outcome(ts, two, (2,), (1,), r(out, certificate=bad_step)),
               "paradox chain")
    _must_fail(lambda: checks.leq_outcome(ts, two, (2,), (1,), r(out, slack=(5,))), "leq slack")

    cross = ts.presentation_from_kgraph(ts.validate_kgraph(["u", "w"], [[[0, 2], [2, 0]]]))
    eq = ts.decide_equiv(cross, (2, 0), (0, 1))
    _expect(eq.is_equiv and not checks.equiv_outcome(ts, cross, (2, 0), (0, 1), eq),
            "genuine equiv certificate passes")
    flipped = tuple(
        r(s, direction=ts.Direction.FORWARD if s.direction is ts.Direction.BACKWARD
          else ts.Direction.BACKWARD)
        for s in eq.certificate.steps
    )
    _must_fail(lambda: checks.equiv_outcome(
        ts, cross, (2, 0), (0, 1), r(eq, certificate=r(eq.certificate, steps=flipped))),
        "equiv certificate")

    sep_out = ts.decide_equiv(cross, (1, 0), (0, 0))
    _expect(sep_out.is_not_equiv, "cross_double separates (1,0) from 0")
    sep = sep_out.separator
    _must_fail(lambda: checks.equiv_outcome(
        ts, cross, (1, 0), (0, 0), r(sep_out, separator=r(sep, coeffs=(1, 0)))), "separator")

    tri = ts.validate_kgraph(["u", "w"], [[[1, 1], [0, 1]]])
    state = ts.solve_state_at(tri, (0, 1))
    checks.state_certificate(ts, tri, (0, 1), state)
    wrong = r(state, values=tuple(v * 2 if v != ts.INFINITY else v for v in state.values))
    _must_fail(lambda: checks.state_certificate(ts, tri, (0, 1), wrong), "state certificate")
    _must_fail(lambda: checks.positive_invariant(tri, (Fraction(1, 2), Fraction(1, 2)), True, "vector"),
               "faithful vector")

    action = ts.build_action([1, 2, 3], [[2, 3, 1]])
    pres = ts.transformation_presentation(action)
    f, g = (1, 0, 0), (0, 0, 1)
    outs = [ts.oracle_equiv(action, f, g), ts.bruteforce_equiv(action, f, g), ts.decide_equiv(pres, f, g)]
    checks.action_pair(ts, action, pres, f, g, outs)
    swapped = r(outs[1], witnesses=tuple(reversed(outs[1].witnesses)) + outs[1].witnesses)
    _must_fail(lambda: checks.action_pair(ts, action, pres, f, g, [outs[0], swapped, outs[2]]),
               "bruteforce witnesses")


def check_corrupted_run() -> None:
    """A run whose library returns a zeroed separator exits nonzero and prints no metrics."""
    base = workloads.WORKLOADS["graph-decide"]

    def corrupting_build(ts, raw):
        genuine = ts.decide_equiv

        def decide_equiv(*args, **kwargs):
            out = genuine(*args, **kwargs)
            if out.separator is not None:
                zero = tuple(0 for _ in out.separator.coeffs)
                out = dataclasses.replace(out, separator=dataclasses.replace(out.separator, coeffs=zero))
            return out

        ts.decide_equiv = decide_equiv
        return base.build(ts, raw)

    workloads.WORKLOADS["graph-decide"] = dataclasses.replace(base, build=corrupting_build)
    try:
        code, text = _run("--workload", "graph-decide", "--seed", "3", "--seconds", TINY_SECONDS)
    finally:
        workloads.WORKLOADS["graph-decide"] = base
    _expect(code != 0 and '"metrics"' not in text, "a run fed a corrupted separator fails")


def check_bare_directory() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", "graph-decide", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    _expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
            "a directory holding only the benchmark fails without a result")


def main() -> int:
    _shrink()
    check_corruption()
    check_corrupted_run()
    check_bare_directory()
    check_workloads()
    check_digest()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
