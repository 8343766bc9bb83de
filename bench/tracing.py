"""Span tracing around the public functions of each library layer.

``Tracer.install`` replaces each traced function in every loaded
``typesemigroup`` module namespace that binds it (``monoid.decide_leq``,
``classify.kl_paradoxical``, ``simplex.solve_lp``, ...), so calls between
layers are traced as well as the benchmark's own calls.  Untraced runs never
create a ``Tracer``.  Spans stay in memory and are written out at exit.

A span records its name, start, end, parent span and op id.  A layer's
``_s`` metric is busy self time: the span's duration minus the time its child
spans cover.  Counters derived from arguments and results are computed after
the call returns; that time is charged to neither the span nor its parent.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# layer module -> traced public functions
TRACED = {
    "actions": ("oracle_equiv", "bruteforce_equiv", "transformation_presentation"),
    "monoid": (
        "decide_equiv",
        "decide_leq",
        "kl_paradoxical",
        "find_separator",
        "almost_unperforated_up_to",
    ),
    "linalg": ("rational_kernel_basis", "integer_diagonalize"),
    "simplex": ("solve_lp",),
    "states": ("solve_state_at", "faithful_finite_state", "coboundary_check", "stiemke_crosscheck"),
    "graphs": ("validate_kgraph", "presentation_from_kgraph", "structural_checks"),
    "classify": ("classify",),
    "cli": ("main",),
}

CLI_OP = -2  # op id of spans under the in-process CLI; only cli.main counts them

STAGES = ("trivial", "unit", "rational", "modular", "extended", "bfs_found", "bfs_unknown")

# per-layer metrics reported by a traced run, in report order
PER_LAYER = (
    [(f"actions.{m}", u) for m, u in (
        ("oracle_calls", "count"), ("oracle_s", "s"), ("bruteforce_calls", "count"),
        ("bruteforce_s", "s"), ("presentation_s", "s"))]
    + [(f"monoid.{m}", u) for m, u in (
        ("equiv_calls", "count"), ("equiv_s", "s"), ("leq_calls", "count"), ("leq_s", "s"),
        ("paradox_calls", "count"), ("paradox_s", "s"))]
    + [(f"monoid.stage.{st}{sfx}", u) for st in STAGES for sfx, u in (("_calls", "count"), ("_s", "s"))]
    + [(f"monoid.{m}", u) for m, u in (
        ("bfs_states_visited", "count"), ("bfs_states_per_s", "1/s"), ("bfs_cap_hits", "count"),
        ("bfs_exhausted", "count"), ("sweep_calls", "count"), ("sweep_s", "s"),
        ("sweep_pairs", "count"), ("sweep_leq_calls", "count"), ("sweep_leq_per_pair", "ratio"),
        ("find_separator_calls", "count"), ("find_separator_s", "s"), ("pres_repeat_frac", "frac"))]
    + [(f"linalg.{m}", u) for m, u in (
        ("kernel_calls", "count"), ("kernel_s", "s"), ("diagonalize_calls", "count"),
        ("diagonalize_s", "s"), ("repeat_frac", "frac"))]
    + [(f"simplex.{m}", u) for m, u in (
        ("lp_calls", "count"), ("lp_s", "s"), ("lp_infeasible_frac", "frac"),
        ("lp_cells_mean", "cells"), ("lp_repeat_frac", "frac"))]
    + [(f"states.{m}", u) for m, u in (
        ("state_calls", "count"), ("state_s", "s"), ("supports_tried", "lps/call"),
        ("state_none_frac", "frac"), ("faithful_s", "s"), ("faithful_lps_per_call", "lps/call"),
        ("coboundary_s", "s"), ("stiemke_s", "s"))]
    + [(f"graphs.{m}", "s") for m in ("validate_s", "presentation_s", "structural_s")]
    + [("classify.calls", "count"), ("classify.s", "s")]
    + [(f"classify.verdict.{v}", "count") for v in (
        "STABLY_FINITE", "PURELY_INFINITE", "INCONCLUSIVE", "HYPOTHESES_NOT_MET")]
    + [("cli.p50_ms", "ms"), ("cli.interp_ms", "ms"), ("cli.import_ms", "ms"), ("cli.main_s", "s")]
    + [("verify.calls", "count"), ("verify.s", "s"), ("trace.overhead_frac", "frac")]
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, end incl. counters, parent index, op id)
        self.attrs: dict[int, object] = {}  # span index -> derived counter data
        self.op = -1  # current op id; -1 outside ops (set-up, CLI)
        self._stack: list[int] = []
        self._seen: dict[str, set] = defaultdict(set)
        self._unit_pres: dict = {}
        self._repeats: dict[str, list[int]] = defaultdict(lambda: [0, 0])  # kind -> [repeats, calls]

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [
            m for k, m in sys.modules.items()
            if k == "typesemigroup" or k.startswith("typesemigroup.")
        ]
        for layer, names in TRACED.items():
            mod = sys.modules[f"typesemigroup.{layer}"]
            for fname in names:
                original = getattr(mod, fname)
                observe = getattr(self, f"_observe_{fname}", None)
                wrapper = self._wrap(f"{layer}.{fname}", original, observe)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    def _wrap(self, name, fn, observe):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, end, parent, self.op)
                raise
            end = perf_counter()
            stack.pop()
            if observe is not None:
                self.attrs[idx] = observe(args, kwargs, result)
            spans[idx] = (name, start, end, perf_counter(), parent, self.op)
            return result

        return traced

    # -- counters derived from arguments and results ---------------------

    def _repeat(self, kind: str, key) -> None:
        if self.op == CLI_OP:
            return
        seen = self._seen[kind]
        counts = self._repeats[kind]
        counts[1] += 1
        if key in seen:
            counts[0] += 1
        else:
            seen.add(key)

    def _is_unit(self, pres) -> bool:
        unit = self._unit_pres.get(pres)
        if unit is None:
            unit = all(sum(mv.lhs) == 1 and sum(mv.rhs) == 1 for mv in pres.moves)
            self._unit_pres[pres] = unit
        return unit

    def _stage(self, pres, trivial: bool, out) -> str:
        if trivial:
            return "trivial"
        if self._is_unit(pres):
            return "unit"
        if out.is_equiv:
            return "bfs_found"
        if out.is_unknown:
            return "bfs_unknown"
        return out.separator.kind.value  # rational, modular or extended

    def _observe_decide_equiv(self, args, kwargs, out):
        pres, f, g = args[:3]
        self._repeat("pres", pres)
        return (self._stage(pres, tuple(f) == tuple(g), out), out.budget)

    def _observe_decide_leq(self, args, kwargs, out):
        pres, f, g = args[:3]
        self._repeat("pres", pres)
        trivial = all(a <= b for a, b in zip(f, g))
        return (self._stage(pres, trivial, out), out.budget)

    def _observe_rational_kernel_basis(self, args, kwargs, out):
        rows, dim = args
        self._repeat("linalg", ("kernel", tuple(map(tuple, rows)), dim))

    def _observe_integer_diagonalize(self, args, kwargs, out):
        rows, dim = args
        self._repeat("linalg", ("diagonalize", tuple(map(tuple, rows)), dim))

    def _observe_solve_lp(self, args, kwargs, out):
        A, b, c = args[:3]
        maximize = kwargs.get("maximize", args[3] if len(args) > 3 else False)
        self._repeat("lp", (tuple(map(tuple, A)), tuple(b), tuple(c), maximize))
        return (len(A) * len(c), out.status == "infeasible")

    def _observe_solve_state_at(self, args, kwargs, out):
        return out is None

    def _observe_almost_unperforated_up_to(self, args, kwargs, out):
        return out.pairs_checked

    def _observe_classify(self, args, kwargs, out):
        return out.verdict

    # -- results ----------------------------------------------------------

    def metrics(self, extra: dict[str, float]) -> dict[str, float]:
        """Per-layer metrics from the recorded spans; `extra` supplies the rest."""
        spans, attrs = self.spans, self.attrs
        covered = [0.0] * len(spans)
        for name, start, end, end_all, parent, op in spans:
            if parent >= 0:
                covered[parent] += end_all - start
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        child_lps: dict[str, int] = defaultdict(int)
        stage_calls: dict[str, int] = defaultdict(int)
        stage_busy: dict[str, float] = defaultdict(float)
        bfs_states = bfs_cap = bfs_exhausted = 0
        bfs_unknown_s = 0.0
        sweep_pairs = sweep_leq = 0
        lp_cells = lp_infeasible = state_none = 0
        verdicts: dict[str, int] = defaultdict(int)
        for idx, (name, start, end, _, parent, op) in enumerate(spans):
            own = end - start - covered[idx]
            if op == CLI_OP and name != "cli.main":
                continue
            calls[name] += 1
            busy[name] += own
            attr = attrs.get(idx)  # None for spans without counters, or whose call raised
            if attr is None:
                continue
            parent_name = spans[parent][0] if parent >= 0 else None
            if name in ("monoid.decide_equiv", "monoid.decide_leq"):
                stage, report = attr
                stage_calls[stage] += 1
                stage_busy[stage] += own
                if report is not None:
                    bfs_states += report.states_visited
                    bfs_cap += report.coordinate_cap_hit
                    bfs_exhausted += report.exhausted
                    bfs_unknown_s += own
                if name == "monoid.decide_leq" and parent_name == "monoid.almost_unperforated_up_to":
                    sweep_leq += 1
            elif name == "simplex.solve_lp":
                cells, infeasible = attr
                lp_cells += cells
                lp_infeasible += infeasible
                if parent_name is not None:
                    child_lps[parent_name] += 1
            elif name == "monoid.almost_unperforated_up_to":
                sweep_pairs += attr
            elif name == "states.solve_state_at":
                state_none += attr
            elif name == "classify.classify":
                verdicts[attr] += 1

        def ratio(a, b):
            return a / b if b else 0.0

        def repeat_frac(kind):
            repeats, total = self._repeats[kind]
            return ratio(repeats, total)

        out = {
            "actions.oracle_calls": calls["actions.oracle_equiv"],
            "actions.oracle_s": busy["actions.oracle_equiv"],
            "actions.bruteforce_calls": calls["actions.bruteforce_equiv"],
            "actions.bruteforce_s": busy["actions.bruteforce_equiv"],
            "actions.presentation_s": busy["actions.transformation_presentation"],
            "monoid.equiv_calls": calls["monoid.decide_equiv"],
            "monoid.equiv_s": busy["monoid.decide_equiv"],
            "monoid.leq_calls": calls["monoid.decide_leq"],
            "monoid.leq_s": busy["monoid.decide_leq"],
            "monoid.paradox_calls": calls["monoid.kl_paradoxical"],
            "monoid.paradox_s": busy["monoid.kl_paradoxical"],
        }
        for st in STAGES:
            out[f"monoid.stage.{st}_calls"] = stage_calls[st]
            out[f"monoid.stage.{st}_s"] = stage_busy[st]
        state_calls = calls["states.solve_state_at"]
        out.update({
            "monoid.bfs_states_visited": bfs_states,
            "monoid.bfs_states_per_s": ratio(bfs_states, bfs_unknown_s),
            "monoid.bfs_cap_hits": bfs_cap,
            "monoid.bfs_exhausted": bfs_exhausted,
            "monoid.sweep_calls": calls["monoid.almost_unperforated_up_to"],
            "monoid.sweep_s": busy["monoid.almost_unperforated_up_to"],
            "monoid.sweep_pairs": sweep_pairs,
            "monoid.sweep_leq_calls": sweep_leq,
            "monoid.sweep_leq_per_pair": ratio(sweep_leq, sweep_pairs),
            "monoid.find_separator_calls": calls["monoid.find_separator"],
            "monoid.find_separator_s": busy["monoid.find_separator"],
            "monoid.pres_repeat_frac": repeat_frac("pres"),
            "linalg.kernel_calls": calls["linalg.rational_kernel_basis"],
            "linalg.kernel_s": busy["linalg.rational_kernel_basis"],
            "linalg.diagonalize_calls": calls["linalg.integer_diagonalize"],
            "linalg.diagonalize_s": busy["linalg.integer_diagonalize"],
            "linalg.repeat_frac": repeat_frac("linalg"),
            "simplex.lp_calls": calls["simplex.solve_lp"],
            "simplex.lp_s": busy["simplex.solve_lp"],
            "simplex.lp_infeasible_frac": ratio(lp_infeasible, calls["simplex.solve_lp"]),
            "simplex.lp_cells_mean": ratio(lp_cells, calls["simplex.solve_lp"]),
            "simplex.lp_repeat_frac": repeat_frac("lp"),
            "states.state_calls": state_calls,
            "states.state_s": busy["states.solve_state_at"],
            "states.supports_tried": ratio(child_lps["states.solve_state_at"], state_calls),
            "states.state_none_frac": ratio(state_none, state_calls),
            "states.faithful_s": busy["states.faithful_finite_state"],
            "states.faithful_lps_per_call": ratio(
                child_lps["states.faithful_finite_state"], calls["states.faithful_finite_state"]
            ),
            "states.coboundary_s": busy["states.coboundary_check"],
            "states.stiemke_s": busy["states.stiemke_crosscheck"],
            "graphs.validate_s": busy["graphs.validate_kgraph"],
            "graphs.presentation_s": busy["graphs.presentation_from_kgraph"],
            "graphs.structural_s": busy["graphs.structural_checks"],
            "classify.calls": calls["classify.classify"],
            "classify.s": busy["classify.classify"],
            "cli.main_s": busy["cli.main"],
        })
        for v in ("STABLY_FINITE", "PURELY_INFINITE", "INCONCLUSIVE", "HYPOTHESES_NOT_MET"):
            out[f"classify.verdict.{v}"] = verdicts[v]
        out.update(extra)
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, _, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")
