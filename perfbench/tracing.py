"""Span tracer that wraps monofd's public functions from outside the library.

The tracer rebinds each wrapped function in every ``monofd`` module that
binds it (``splu``/``spilu`` only as ``monofd.solver`` sees them), records
one span per call in memory, and restores every original on ``uninstall``.
Spans are (name, start, end, parent).  Counters and per-case facts are keyed
by the enclosing ``run_case`` span.  Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import functools
import hashlib
import math
import sys
import time
import types
from array import array
from collections import defaultdict

import numpy as np

from monofd import assembly, cli, expressions, field, solver, stencil, verification

OUTSIDE = -1  # case key for work outside any run_case span

# Inclusive span-time metrics: metric name -> span names summed.
TIME_METRICS = {
    "field.probe_table_s": ("ProbeTable",),
    "field.constants_s": ("compute_constants",),
    "field.window_s": ("window_intervals",),
    "expressions.eval_s": ("Expression.__call__",),
    "stencil.plan_s": ("plan_grid",),
    "stencil.select_s": ("select_stencil",),
    "assembly.assemble_s": ("assemble",),
    "assembly.audit_s": ("audit_m_matrix",),
    "solver.solve_s": ("solve",),
    "solver.factor_s": ("splu", "spilu"),
    "verification.case_s": ("run_case",),
}

# Self-time metrics: span duration minus the time its child spans cover.
SELF_METRICS = {
    "stencil.plan_self_s": "plan_grid",
    "assembly.assemble_self_s": "assemble",
    "solver.solve_self_s": "solve",
    "verification.case_self_s": "run_case",
}

# Counters bumped by the wrappers, summed over the traced round.
COUNT_METRICS = (
    "field.window_calls",
    "field.empty_windows",
    "expressions.eval_calls",
    "expressions.scalar_calls",
    "expressions.eval_points",
    "stencil.select_calls",
    "stencil.fallback_nodes",
    "stencil.clip_calls",
)

# Per-case counts that must repeat exactly between traced runs of one commit.
DETERMINISTIC_COUNTS = (
    "stencil.select_calls",
    "stencil.fallback_nodes",
    "field.empty_windows",
    "expressions.eval_calls",
    "assembly.nnz",
    "assembly.direction_groups",
    "solver.iterations",
    "stencil.clip_calls",
)


def plan_digest(plan) -> str:
    """sha256 over the planned arrays m, i1, i2, tan1, tan2."""
    h = hashlib.sha256()
    for arr in (plan.m, plan.i1, plan.i2, plan.tan1, plan.tan2):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _ball_is_empty(table, x0, y0, radius) -> bool:
    """True when no probe-lattice point lies strictly inside the planning ball."""
    xs, step = table.xs, table.step
    ilo = max(0, math.ceil((x0 - radius) / step))
    ihi = min(xs.size - 1, math.floor((x0 + radius) / step))
    jlo = max(0, math.ceil((y0 - radius) / step))
    jhi = min(xs.size - 1, math.floor((y0 + radius) / step))
    if ilo > ihi or jlo > jhi:
        return True
    dx = xs[ilo : ihi + 1] - x0
    dy = xs[jlo : jhi + 1] - y0
    return not bool((dx[None, :] ** 2 + dy[:, None] ** 2 < radius**2).any())


def _monofd_modules():
    return [module for name, module in sorted(sys.modules.items())
            if module is not None and (name == "monofd" or name.startswith("monofd."))]


class Tracer:
    """In-memory spans, counters and per-case facts for one traced round."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock  # span times: workloads.measure passes HostClock.now
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self._case = OUTSIDE
        self._last_leaf = None
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.cases: dict[int, dict] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(self._clock())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = self._clock()
        self._stack.pop()

    def _count(self, key: str, value: float = 1.0) -> None:
        self.counts[(self._case, key)] += value

    def _record(self, **facts) -> None:
        if self._case in self.cases:
            self.cases[self._case].update(facts)

    def _wrap(self, name: str, fn, before=None, after=None):
        """Span around ``fn``; ``before``/``after`` run outside the span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, key: str, fn):
        """``fn`` with a call counter and no span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._count(key)
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, fn, wrapper) -> None:
        """Rebind ``fn`` to ``wrapper`` in every loaded monofd module that binds it."""
        for module in _monofd_modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper)

    def install(self) -> None:
        table = field.ProbeTable
        self._patch(table, "__init__", self._wrap("ProbeTable", table.__init__))
        self._patch(table, "window_intervals",
                    self._wrap("window_intervals", table.window_intervals, after=self._after_window))
        expr = expressions.Expression
        self._patch(expr, "__call__",
                    self._wrap("Expression.__call__", expr.__call__, after=self._after_expression))
        for name, fn, before, after in (
            ("compute_constants", field.compute_constants, None, None),
            ("prepare", verification.prepare, None, None),
            ("plan_grid", stencil.plan_grid, self._before_plan, self._after_plan),
            ("select_stencil", stencil.select_stencil, self._before_select, None),
            ("clip_arm", stencil.clip_arm, self._before_clip, None),
            ("check_mesh_condition", stencil.check_mesh_condition, None, self._after_mesh),
            ("assemble", assembly.assemble, None, self._after_assemble),
            ("audit_m_matrix", assembly.audit_m_matrix, None, None),
            ("solve", solver.solve, None, self._after_solve),
            ("cli.main", cli.main, None, None),
        ):
            self._patch_everywhere(fn, self._wrap(name, fn, before, after))
        self._patch_everywhere(verification.run_case, self._wrap_case(verification.run_case))
        # assemble makes one _assemble_direction call per (half-width, direction)
        # group; those calls are counted, without a span of their own.
        self._patch(assembly, "_assemble_direction",
                    self._counted("assembly.direction_groups", assembly._assemble_direction))
        # splu/spilu are replaced only as monofd.solver sees them.
        spla = solver.spla
        proxy = types.ModuleType(spla.__name__)
        proxy.__getattr__ = lambda attr: getattr(spla, attr)
        proxy.splu = self._wrap("splu", spla.splu, after=self._after_factor)
        proxy.spilu = self._wrap("spilu", spla.spilu, after=self._after_factor)
        self._patch(solver, "spla", proxy)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap_case(self, fn):
        """run_case span that also opens the per-case record for the calls inside."""
        tracer = self

        @functools.wraps(fn)
        def run_case(prepared, n, *args, **kwargs):
            idx = tracer._open("run_case")
            outer, tracer._case = tracer._case, idx
            tracer.cases[idx] = {"case": f"{prepared.problem.name}-N{n}"}
            try:
                result = fn(prepared, n, *args, **kwargs)
            finally:
                tracer._case = outer
                tracer._close(idx)
            tracer.cases[idx]["audit_passed"] = result.audit.passed
            return result

        return run_case

    # -- hooks: counters and per-case facts, taken outside the spans ----------

    def _after_window(self, args, kwargs, result) -> None:
        table, x0, y0, radius = args
        self._last_leaf = "window"
        self._count("field.window_calls")
        if result[0] == -math.inf and result[3] == math.inf and _ball_is_empty(table, x0, y0, radius):
            self._count("field.empty_windows")

    def _after_expression(self, args, kwargs, result) -> None:
        _, x, y = args
        self._count("expressions.eval_calls")
        if np.ndim(x) == 0 and np.ndim(y) == 0:
            self._count("expressions.scalar_calls")
            self._count("expressions.eval_points")
        else:
            self._count("expressions.eval_points", np.broadcast(x, y).size)

    def _before_plan(self, args, kwargs) -> None:
        self._last_leaf = None

    def _before_select(self, args, kwargs) -> None:
        # The planner gathers one window per node, then selects on the ball;
        # a second select with no gather in between is the midpoint fallback.
        if self._last_leaf == "select":
            self._count("stencil.fallback_nodes")
        self._last_leaf = "select"
        self._count("stencil.select_calls")

    def _before_clip(self, args, kwargs) -> None:
        self._count("stencil.clip_calls")

    def _after_plan(self, args, kwargs, plan) -> None:
        self._record(**{
            "grid.unknowns": int(plan.m.size),
            "stencil.max_m": plan.max_m,
            "stencil.mean_m": float(plan.m.mean()),
            "stencil.plan_digest": plan_digest(plan),
        })

    def _after_mesh(self, args, kwargs, result) -> None:
        self._record(**{"stencil.mesh_slack": result.slack})

    def _after_assemble(self, args, kwargs, system) -> None:
        # A case that never finishes assembly keeps no group count, like no nnz.
        self._record(**{"assembly.nnz": int(system.matrix.nnz),
                        "assembly.direction_groups": int(self.counts[(self._case, "assembly.direction_groups")])})

    def _after_factor(self, args, kwargs, factor) -> None:
        self._record(**{"solver.lu_fill": (factor.L.nnz + factor.U.nnz) / args[0].nnz})

    def _after_solve(self, args, kwargs, result) -> None:
        report = result[1]
        self._record(**{"solver.iterations": report.iterations,
                        "solver.residual": report.final_relative_residual,
                        "solver.method": report.method_name})

    # -- derived figures ------------------------------------------------------

    def _arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32), np.frombuffer(self.start),
                np.frombuffer(self.end), np.frombuffer(self.parent, dtype=np.int32))

    def case_of_spans(self) -> np.ndarray:
        """Index of the enclosing run_case span for every span, or OUTSIDE."""
        name, _, _, parent = self._arrays()
        case_id = self._name_ids.get("run_case", -2)
        owner = np.full(name.size, OUTSIDE, dtype=np.int64)
        for i in range(name.size):  # parents precede their children
            if name[i] == case_id:
                owner[i] = i
            elif parent[i] >= 0:
                owner[i] = owner[parent[i]]
        return owner

    def span_times(self, keep: np.ndarray | None = None) -> dict[str, float]:
        """Inclusive and self time metrics over the spans selected by ``keep``."""
        name, start, end, parent = self._arrays()
        dur = end - start
        child = np.zeros(name.size)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        if keep is None:
            keep = np.ones(name.size, dtype=bool)
        size = len(self.span_names)
        incl = np.bincount(name[keep], weights=dur[keep], minlength=size)
        own = np.bincount(name[keep], weights=(dur - child)[keep], minlength=size)
        ids = self._name_ids
        out = {m: sum(float(incl[ids[n]]) for n in names if n in ids) for m, names in TIME_METRICS.items()}
        out.update({m: float(own[ids[n]]) if n in ids else 0.0 for m, n in SELF_METRICS.items()})
        return out

    def cli_overhead(self) -> float:
        """cli.main time not covered by its prepare and run_case child spans."""
        name, start, end, parent = self._arrays()
        ids = self._name_ids
        dur = end - start
        mains = np.flatnonzero(name == ids.get("cli.main", -2))
        covered = [ids.get("prepare", -2), ids.get("run_case", -2)]
        child = np.isin(parent, mains) & np.isin(name, covered)
        return float(dur[mains].sum() - dur[child].sum())

    def case_rows(self) -> list[dict]:
        """Per-layer figures of each run_case span, in call order."""
        owner = self.case_of_spans()
        rows = []
        for idx, facts in sorted(self.cases.items()):
            row = self.span_times(owner == idx)
            row.update({key: int(self.counts.get((idx, key), 0)) for key in COUNT_METRICS})
            row.update(facts)
            rows.append(row)
        return rows

    def save_spans(self, path) -> None:
        """Write the spans as columns name, start, end, parent (seconds from the
        first span; parent -1 for a root) plus the span names."""
        name, start, end, parent = self._arrays()
        t0 = start[0] if start.size else 0.0
        np.savez(path, names=np.array(self.span_names), name=name, start=start - t0,
                 end=end - t0, parent=parent)


def compare_to_pinned(rows: list[dict], pinned: dict) -> tuple[int, int]:
    """Mark each case row against the pinned seed figures.

    Returns (cases whose plan digest differs or is not pinned, counts that
    differ from their pinned value).  A difference is reported, not failed:
    a deliberate planner change moves these figures.
    """
    plans_changed = counts_changed = 0
    for row in rows:
        ref = pinned.get(row["case"])
        if ref is None:
            row["plan_changed"], row["count_changes"] = True, ["not pinned"]
            plans_changed += 1
            continue
        row["plan_changed"] = ref.get("stencil.plan_digest") != row.get("stencil.plan_digest")
        row["count_changes"] = [f"{k}: {ref.get(k)} -> {row.get(k)}"
                                for k in DETERMINISTIC_COUNTS if ref.get(k) != row.get(k)]
        plans_changed += row["plan_changed"]
        counts_changed += len(row["count_changes"])
    return plans_changed, counts_changed


def layer_metrics(tracer: Tracer, pinned: dict, untraced_s: float, traced_s: float,
                  bytes_written: int) -> tuple[dict[str, float], list[dict]]:
    """Per-layer metrics of the traced round, and the per-case rows behind them."""
    rows = tracer.case_rows()
    out = tracer.span_times()
    out.update({key: sum(v for (_, k), v in tracer.counts.items() if k == key) for key in COUNT_METRICS})

    def total(key):
        return sum(r.get(key, 0) for r in rows)

    planned = [r for r in rows if "grid.unknowns" in r]
    factored = [r for r in rows if "solver.lu_fill" in r]
    out["grid.unknowns"] = total("grid.unknowns")
    out["stencil.max_m"] = max((r["stencil.max_m"] for r in planned), default=0)
    out["stencil.mean_m"] = (sum(r["stencil.mean_m"] * r["grid.unknowns"] for r in planned)
                             / max(1, out["grid.unknowns"]))
    out["stencil.mesh_slack"] = min((r["stencil.mesh_slack"] for r in rows if "stencil.mesh_slack" in r),
                                    default=0.0)
    out["stencil.plan_changed_cases"], out["trace.count_changes"] = compare_to_pinned(rows, pinned)
    for key in ("assembly.direction_groups", "assembly.nnz", "solver.iterations"):
        out[key] = total(key)
    out["solver.residual"] = max((r["solver.residual"] for r in rows if "solver.residual" in r), default=0.0)
    out["solver.lu_fill"] = (sum(r["solver.lu_fill"] * r["assembly.nnz"] for r in factored)
                             / max(1, sum(r["assembly.nnz"] for r in factored)))
    out["verification.cases"] = len(rows)
    out["cli.overhead_s"] = tracer.cli_overhead()
    out["cli.bytes_written"] = bytes_written
    out["trace.overhead_s"] = traced_s - untraced_s
    out["trace.spans"] = len(tracer.name)
    return out, rows
