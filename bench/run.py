"""Benchmark of the typesemigroup engine: one workload per process, closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all ...      # each workload in its own process

Run from the repository root; the library is imported from ``src/``.  One
caller issues each op only after the previous one returns, on one thread.
The inputs come from the seed alone; ops are timed one by one, and their
outputs are checked (outside op timing) by independent verifiers.  A failed
check exits with code 3 and prints no metrics.  Workloads are described in
``workloads.py`` and ``BENCHMARK.json``.

Op and set-up times are read from the thread's CPU clock.  The loop is one
thread that does no I/O, so that clock equals wall time less the time the
machine ran something else on the CPU; on a shared host that time comes and
goes from run to run and would otherwise swamp the library's own.  The run
length (``--seconds``) is wall time, and wall-clock figures are printed
beside the CPU ones.

``--trace 0`` reports the end-to-end metrics:

* ``ops_per_s``: completed ops per CPU second of op time;
* ``op_p50_ms``, ``op_tail_ms``: median op latency, and the higher of p90
  and p99 that has at least 10 samples beyond it (printed beside it);
* ``decided_frac``: 1 - ``failed_frac``, where an op failed when it returned
  UNKNOWN or INCONCLUSIVE, was a sweep with unknown pairs, or raised.  The
  JSON ``failed`` count holds only ops that raised;
* ``setup_s``: median of 5 set-ups, each importing ``typesemigroup`` and
  building every model and presentation of the run through the public
  builders; the first runs before the loop, the others in fresh processes
  (``--setup-only``) between units;
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` runs part of the stream untraced, then as many further units
with span wrappers installed (see ``tracing.py``), and reports the per-layer
metrics, among them ``cli.p50_ms``: the median wall time of
``python -m typesemigroup.cli classify`` over the files in ``models/``, each
run several times.  Spans are written to ``.bench_out/``.  The last line of
output is always one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, thread_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODELS = ROOT / "models"
OUT = ROOT / ".bench_out"

import checks  # noqa: E402  (bench/ is sys.path[0] when run as a script)
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
CLI_REPEATS = 2
CHILD_TIMEOUT_S = 60
TRACE_UNTRACED_SHARE = 0.35  # share of --seconds run untraced before tracing starts
# The ladder stops at p99: beyond it the microsecond ops of action-oracle time
# collector pauses and host preemptions more than the library.  Over 6 seeds
# their p99 spread 4% (IQR/median), p99.9 27%, and p99.99 ranged 0.5-4 ms.
TAIL_PERCENTILES = (90, 99)
BUCKETS_PER_E = 2000  # latency histogram resolution: 0.05% per bucket

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("decided_frac", "frac"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


# ---------------------------------------------------------------------------
# set-up


def _purge_library() -> None:
    for name in [k for k in sys.modules if k == "typesemigroup" or k.startswith("typesemigroup.")]:
        del sys.modules[name]


def set_up(workload, raw):
    """Import the library afresh and build the run's inputs through it.

    Returns the import, the inputs and the CPU time taken.  Only the library's
    own modules are re-imported; the standard library stays loaded.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    _purge_library()
    gc.collect()
    start = thread_time()
    ts = importlib.import_module("typesemigroup")
    built = workload.build(ts, raw)
    return ts, built, thread_time() - start


def setup_jobs(args, times: list[float]) -> list:
    """Further set-ups, each in a fresh interpreter as a user pays it, to run
    between units; their set-up CPU times go to `times`."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]

    def job() -> None:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process exited {proc.returncode}: {proc.stderr[-400:]}")
        times.append(float(proc.stdout.split()[-1]))

    return [job] * (SETUP_REPEATS - 1)


# ---------------------------------------------------------------------------
# the closed loop


class Latencies:
    """Op count, total time and a log-spaced histogram of op latencies.

    Memory does not grow with the number of ops, so peak RSS does not depend
    on how fast the run went.  Each bucket keeps the sum of its latencies, so
    a quantile is the mean of the bucket holding its rank: exact when the
    bucket holds one op, within 0.05% otherwise.
    """

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self._buckets: dict[int, list] = {}  # key -> [count, sum of latencies]

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        key = math.floor(math.log(max(seconds, 1e-9)) * BUCKETS_PER_E)
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = [1, seconds]
        else:
            bucket[0] += 1
            bucket[1] += seconds

    def quantile(self, p: float) -> float:
        """Latency at rank ceil(p * count)."""
        rank = max(1, math.ceil(p * self.count))
        seen = 0
        for key in sorted(self._buckets):
            n, total = self._buckets[key]
            seen += n
            if seen >= rank:
                return total / n
        raise ValueError("empty histogram")

    def summary(self) -> dict:
        n = self.count
        tail_p = 50
        for p in TAIL_PERCENTILES:
            if n - math.ceil(p / 100 * n) >= 10:
                tail_p = p
        return {
            "ops": n,
            "p50_ms": 1000 * self.quantile(0.5),
            "tail_ms": 1000 * self.quantile(tail_p / 100),
            "tail_p": tail_p,
            "tail_beyond": n - math.ceil(tail_p / 100 * n),
            "op_s": self.total,
        }


class Stream:
    """Op latencies (CPU time), outcome counts and digest of the units run so far."""

    def __init__(self, digest_units: int) -> None:
        self.latencies = Latencies()
        self.wall_s = 0.0  # wall time of the ops, for comparison
        self.units = 0
        self.undecided = 0
        self.raised = 0
        self.check_calls = 0
        self.check_s = 0.0
        self.digest_units = digest_units
        self._digest = hashlib.sha256()

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    def run(self, ts, units, seconds: float, min_units: int = 0, max_units: int | None = None,
            tracer=None, side_jobs=()) -> None:
        """Run units until `seconds` of loop time have passed (or `max_units` ran).

        `side_jobs` are spread evenly over the loop, between units; their time
        counts neither as op time nor as loop time.
        """
        side_jobs = list(side_jobs)
        spacing = seconds / (len(side_jobs) + 1)
        start = perf_counter()
        side_s = 0.0
        done = jobs_run = 0
        for unit in units:
            outs = []
            for name, args in unit.ops:
                fn = getattr(ts, name)
                if tracer is not None:
                    tracer.op += 1
                w0 = perf_counter()
                t0 = thread_time()
                try:
                    out = fn(*args)
                except Exception as e:  # an op that raises is counted as failed
                    out = e
                self.latencies.add(thread_time() - t0)
                self.wall_s += perf_counter() - w0
                outs.append(out)
            c0 = perf_counter()
            raised = sum(isinstance(o, Exception) for o in outs)
            if raised:
                self.raised += raised
            else:
                self.undecided += sum(unit.check(ts, outs))
            self.check_calls += 1
            self.check_s += perf_counter() - c0
            if self.units < self.digest_units:
                for (name, _), out in zip(unit.ops, outs):
                    self._digest.update(f"{name}:{checks.canonical(out)}\n".encode())
            self.units += 1
            done += 1
            elapsed = perf_counter() - start - side_s
            if side_jobs and elapsed >= spacing * (jobs_run + 1):
                j0 = perf_counter()
                side_jobs.pop(0)()
                jobs_run += 1
                side_s += perf_counter() - j0
            if max_units is not None:
                if done >= max_units:
                    break
            elif unit.boundary and done >= min_units and elapsed >= seconds:
                break
        for job in side_jobs:
            job()


# ---------------------------------------------------------------------------
# the CLI


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _wall(cmd: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, env=_cli_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    return perf_counter() - start, proc


def _check_cli_output(path: Path, proc: subprocess.CompletedProcess) -> None:
    kind = json.loads(path.read_text(encoding="utf-8")).get("kind")
    try:
        payload = json.loads(proc.stdout)
    except ValueError:
        raise checks.CheckFailure(f"cli: {path.name}: stdout is not JSON") from None
    if proc.returncode == 0 and payload.get("command") == "classify":
        return
    # the classifier takes graph and k-graph models; action models are refused
    refused = proc.returncode == 2 and payload.get("error", {}).get("code") == "UNSUPPORTED_MODEL"
    if kind == "action" and refused:
        return
    raise checks.CheckFailure(f"cli: {path.name}: exit {proc.returncode}")


def cli_jobs(times: list[float]) -> list:
    """Classify subprocesses over models/, each file CLI_REPEATS times; wall times go to
    `times`, and a file's stdout must repeat byte for byte."""
    files = sorted(MODELS.glob("*.json"))
    if not files:
        raise checks.CheckFailure("cli: no model files")
    first: dict[Path, bytes] = {}

    def job(path: Path) -> None:
        elapsed, proc = _wall([sys.executable, "-m", "typesemigroup.cli", "classify", str(path)])
        _check_cli_output(path, proc)
        if first.setdefault(path, proc.stdout) != proc.stdout:
            raise checks.CheckFailure(f"cli: {path.name}: output differs between runs")
        times.append(elapsed)

    return [functools.partial(job, path) for _ in range(CLI_REPEATS) for path in files]


def cli_layer(tracer) -> dict[str, float]:
    """CLI runs, interpreter start-up, CLI import on top of it, and in-process
    main under the tracer."""
    runs: list[float] = []
    for job in cli_jobs(runs):
        job()
    interp = statistics.median(_wall([sys.executable, "-c", "pass"])[0] for _ in range(5))
    imported = statistics.median(
        _wall([sys.executable, "-c", "import typesemigroup.cli"])[0] for _ in range(5)
    )
    cli = sys.modules["typesemigroup.cli"]
    tracer.op = tracing.CLI_OP
    for path in sorted(MODELS.glob("*.json")):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["classify", str(path)])
    return {
        "cli.p50_ms": 1000 * statistics.median(runs),
        "cli.interp_ms": 1000 * interp,
        "cli.import_ms": 1000 * (imported - interp),
    }


# ---------------------------------------------------------------------------
# runs


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(workload, ts, raw, built, setup_s, args):
    stream = Stream(workload.digest_units)
    units = workload.units(ts, raw, built, random.Random(f"{workload.name}/units/{args.seed}"))
    # further set-ups are spread over the loop, so that they sample the same
    # stretch of the host's speed as the ops do
    setups = [setup_s]
    gc.collect()
    gc.freeze()  # keep the benchmark's own input pool out of the collector's scans
    stream.run(ts, units, args.seconds, min_units=workload.digest_units,
               side_jobs=setup_jobs(args, setups))
    gc.unfreeze()
    lat = stream.latencies.summary()
    n = lat["ops"]
    failed_frac = (stream.undecided + stream.raised) / n
    values = {
        "ops_per_s": n / lat["op_s"],
        "op_p50_ms": lat["p50_ms"],
        "op_tail_ms": lat["tail_ms"],
        "decided_frac": 1 - failed_frac,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "op_tail_ms": f"p{lat['tail_p']:g}, {lat['tail_beyond']} of {n} ops beyond it",
        "decided_frac": (
            f"failed_frac = {failed_frac:.6g} ({stream.undecided} undecided, "
            f"{stream.raised} raised, of {n} ops)"
        ),
        "ops_per_s": (
            f"{stream.units} units, {lat['op_s']:.3f} CPU s of op time; "
            f"{n / stream.wall_s:.6g} per wall second"
        ),
        "setup_s": f"median of {len(setups)}, {len(setups) - 1} in fresh processes",
    }
    metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END}
    return stream, metrics, notes


def run_traced(workload, ts, raw, built, seed, seconds):
    units = workload.units(ts, raw, built, random.Random(f"{workload.name}/units/{seed}"))
    plain = Stream(0)
    plain.run(ts, units, TRACE_UNTRACED_SHARE * seconds, min_units=1)
    importlib.import_module("typesemigroup.cli")
    tracer = tracing.Tracer()
    tracer.install()
    workload.build(ts, raw)  # set-up spans: the builders of every layer
    traced = Stream(0)
    traced.run(ts, units, seconds, max_units=plain.units, tracer=tracer)
    extra = cli_layer(tracer)
    per_op_plain = plain.latencies.total / plain.latencies.count
    per_op_traced = traced.latencies.total / traced.latencies.count
    extra.update({
        "verify.calls": traced.check_calls,
        "verify.s": traced.check_s,
        "trace.overhead_frac": per_op_traced / per_op_plain - 1,
    })
    values = tracer.metrics(extra)
    tracer.write(OUT / f"spans-{workload.name}-seed{seed}.jsonl")
    metrics = {name: _metric(values[name], unit) for name, unit in tracing.PER_LAYER}
    notes = {"trace.overhead_frac": f"{plain.units} units untraced, then {traced.units} traced"}
    return traced, metrics, notes


def _print_report(workload, args, stream, metrics, notes, digest) -> None:
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"  why:    {workload.why}")
    print(f"  inputs: {workload.inputs}")
    print("  loop:   closed, one caller, single thread")
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}{note}")
    if digest:
        print(f"  digest {digest} (first {workload.digest_units} units)")


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    raw = workload.generate(random.Random(f"{workload.name}/inputs/{args.seed}"), args.seconds)
    ts, built, setup_s = set_up(workload, raw)
    if args.setup_only:
        print(f"setup_cpu_s {setup_s!r}")
        return 0
    try:
        if args.trace:
            stream, metrics, notes = run_traced(workload, ts, raw, built, args.seed, args.seconds)
            digest = None
        else:
            stream, metrics, notes = run_untraced(workload, ts, raw, built, setup_s, args)
            digest = stream.digest
    except checks.CheckFailure as e:
        print(f"output check failed: {e}", file=sys.stderr)
        return 3
    _print_report(workload, args, stream, metrics, notes, digest)
    result = {
        "correct": True,
        "attempted": stream.latencies.count,
        "failed": stream.raised,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = subprocess.run(cmd, cwd=ROOT).returncode or code
    return code


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("--seconds must be positive")
    if not (SRC / "typesemigroup").is_dir():
        print(f"library sources not found under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
