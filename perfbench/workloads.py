"""Benchmark workloads for monofd and the checks applied to their outputs.

Each workload is a fixed list of cases driven only through monofd's public
entry points: ``verification.prepare``, ``run_case``, ``dmp_table``,
``convergence_study`` and ``cli.main``.  The grids are fixed so that counts
and plan digests stay comparable between runs; the seed only orders the
workload's independent steps.
"""

from __future__ import annotations

import contextlib
import gc
import io
import math
import random
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from monofd import cli, verification
from monofd.problems import built_in_problem
from hostclock import HostClock
from tracing import Tracer

# Reference extrema of the exam1 table, keyed by interval count N (the
# reference labels its rows by node count, 21/51/101):
# (boundary min, interior min, boundary max, interior max).
REFERENCE_EXTREMA = {
    20: (-5.105652e-2, 1.040961e-2, 2.000000, 1.912261),
    50: (-5.105652e-2, -2.444841e-2, 2.000000, 1.972163),
    100: (-5.105652e-2, -3.753179e-2, 2.000000, 1.987642),
}
SLOPE_WINDOW = (1.8, 2.2)
TOL = 1e-10
# Setup rounds run until SETUP_SHARE of --seconds is spent, and at least
# SETUP_MIN_ROUNDS times; the passes get the rest of the budget.  They all run
# before the first pass: a round after a pass would build on the pass's
# leftover heap and move peak_rss_mb.
SETUP_SHARE = 0.15
SETUP_MIN_ROUNDS = 5
SETUP_MAX_ROUNDS = 60
# Digits of agreement reported for an exact match (double precision).
MAX_DIGITS = 16.0


@dataclass(frozen=True)
class Workload:
    """Grid sizes per kind of step; an empty tuple or None skips the step."""

    name: str
    table_ns: tuple[int, ...] = ()  # exam1 extrema table via dmp_table
    ladder_ns: tuple[int, ...] = ()  # exam2 convergence_study ladder
    cli_ns: tuple[int, ...] = ()  # `monofd solve exam4 --k K` via cli.main
    probe_n: int | None = None  # exam4 CLI contract probe: exit 0 or 3
    krylov_n: int | None = None  # exam3 run_case
    aniso_k: str = "100"  # K of the exam4 CLI steps

    def problems(self) -> dict:
        """The built-in problems whose prepare is this workload's setup."""
        wanted = {}
        if self.table_ns:
            wanted["exam1"] = built_in_problem("exam1")
        if self.ladder_ns:
            wanted["exam2"] = built_in_problem("exam2")
        if self.cli_ns or self.probe_n:
            wanted["exam4"] = built_in_problem("exam4", k=float(self.aniso_k))
        if self.krylov_n:
            wanted["exam3"] = built_in_problem("exam3")
        return wanted

    def steps(self) -> list[str]:
        kinds = (("table", self.table_ns), ("ladder", self.ladder_ns), ("cli", self.cli_ns),
                 ("probe", self.probe_n), ("krylov", self.krylov_n))
        return [kind for kind, sizes in kinds if sizes]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("acceptance-ladder", table_ns=(20, 50, 100), ladder_ns=(81, 161, 321)),
        Workload("aniso-cli", cli_ns=(201, 241), probe_n=101, aniso_k="100"),
        Workload("krylov-511", krylov_n=511),
    )
}

# Workloads without the exam1 table still report reference_digits; they get
# it from this table, run once after measuring and outside every timing.
REFERENCE_TABLE = Workload("reference", table_ns=tuple(REFERENCE_EXTREMA))


@dataclass
class Tally:
    """Case outcomes and output figures accumulated over passes."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = dc_field(default_factory=list)
    max_error: float = 0.0
    digits: float = math.inf
    bytes_written: int = 0

    def case(self, label: str, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{label}: {why}")


def to_3_significant(value: float, reference: float) -> bool:
    """Agreement to three significant digits of the reference value."""
    unit = 10.0 ** (math.floor(math.log10(abs(reference))) - 2)
    return abs(value - reference) <= unit


def agreement_digits(value: float, reference: float) -> float:
    """-log10 of the relative difference, capped at MAX_DIGITS."""
    gap = abs(value - reference) / abs(reference)
    return MAX_DIGITS if gap == 0.0 else min(MAX_DIGITS, -math.log10(gap))


def exact_wave(n: int) -> np.ndarray:
    """Interior values of sin(2 pi x) sin(3 pi y), the manufactured solution
    of exam2..exam4, in the row-major interior order (an independent oracle)."""
    side = np.arange(1, n) / n
    X, Y = np.meshgrid(side, side)
    return (np.sin(2 * np.pi * X) * np.sin(3 * np.pi * Y)).ravel()


def setup(problems: dict) -> dict:
    return {key: verification.prepare(problem) for key, problem in problems.items()}


@contextlib.contextmanager
def timed_cli_prepare(clock: HostClock, spent: list[float]):
    """Time each prepare call cli.main makes, so it can be left out of
    time_to_solution_s like the prepare of every other workload."""
    original = cli.prepare

    def prepare(*args, **kwargs):
        t0 = clock.now()
        try:
            return original(*args, **kwargs)
        finally:
            spent.append(clock.now() - t0)

    cli.prepare = prepare
    try:
        yield
    finally:
        cli.prepare = original


def _failure_text(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _step_table(w: Workload, prepared, tally: Tally, work: Path, clock: HostClock) -> float:
    t0 = clock.now()
    try:
        rows = verification.dmp_table(prepared["exam1"], w.table_ns)
    except Exception as exc:  # every case of the call failed; keep measuring
        for n in w.table_ns:
            tally.case(f"exam1-N{n}", False, _failure_text(exc))
        return clock.now() - t0
    elapsed = clock.now() - t0
    for row in rows:
        got = (row.boundary_min, row.interior_min, row.boundary_max, row.interior_max)
        ref = REFERENCE_EXTREMA[row.n]
        misses = [(g, r) for g, r in zip(got, ref) if not to_3_significant(g, r)]
        inside = (row.boundary_min <= row.interior_min + 1e-12
                  and row.interior_max <= row.boundary_max + 1e-12)
        tally.digits = min([tally.digits] + [agreement_digits(g, r) for g, r in zip(got, ref)])
        why = f"misses 3 digits: {misses}" if misses else "interior range leaves boundary range"
        tally.case(f"exam1-N{row.n}", not misses and inside, why)
    return elapsed


def _step_ladder(w: Workload, prepared, tally: Tally, work: Path, clock: HostClock) -> float:
    t0 = clock.now()
    try:
        rows, slope = verification.convergence_study(prepared["exam2"], w.ladder_ns)
    except Exception as exc:
        for n in w.ladder_ns:
            tally.case(f"exam2-N{n}", False, _failure_text(exc))
        return clock.now() - t0
    elapsed = clock.now() - t0
    slope_ok = SLOPE_WINDOW[0] <= slope <= SLOPE_WINDOW[1]
    for row in rows:
        ok = slope_ok and math.isfinite(row.max_error)
        tally.case(f"exam2-N{row.n}", ok, f"slope {slope:.4f}, max error {row.max_error}")
        tally.max_error = max(tally.max_error, row.max_error)
    return elapsed


def _run_cli(argv: list[str], clock: HostClock) -> tuple[int | None, float, str]:
    """Run cli.main in-process; returns (exit code or None, prepare seconds, text)."""
    spent: list[float] = []
    sink = io.StringIO()
    with timed_cli_prepare(clock, spent), contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main(argv)
        except Exception:  # a bare traceback breaks the exit-code contract
            code = None
            sink.write(traceback.format_exc())
    return code, sum(spent), sink.getvalue()


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _step_cli(w: Workload, prepared, tally: Tally, work: Path, clock: HostClock) -> float:
    out = work / "cli"
    shutil.rmtree(out, ignore_errors=True)
    argv = ["solve", "exam4", "--k", w.aniso_k, "--n", ",".join(map(str, w.cli_ns)), "--out", str(out)]
    t0 = clock.now()
    code, prep, text = _run_cli(argv, clock)
    elapsed = clock.now() - t0 - prep
    tally.bytes_written += _dir_bytes(out)
    for n in w.cli_ns:
        label = f"exam4-k{w.aniso_k}-N{n}"
        if code != 0:
            tally.case(label, False, f"exit code {code}: {text.strip().splitlines()[-1:]}")
            continue
        path = out / f"solution_N{n}.txt"
        try:
            grid = np.loadtxt(path)
        except (OSError, ValueError) as exc:
            tally.case(label, False, f"unreadable {path.name}: {exc}")
            continue
        if grid.shape != (n + 1, n + 1) or not np.isfinite(grid).all():
            tally.case(label, False, f"{path.name} is not a finite {n + 1}x{n + 1} table")
            continue
        err = float(np.abs(grid[1:-1, 1:-1].ravel() - exact_wave(n)).max())
        tally.max_error = max(tally.max_error, err)
        tally.case(label, True)
    shutil.rmtree(out, ignore_errors=True)
    return elapsed


def _step_probe(w: Workload, prepared, tally: Tally, work: Path, clock: HostClock) -> float:
    """Contract probe: must end with exit 0 or 3; not part of time_to_solution_s."""
    out = work / "probe"
    shutil.rmtree(out, ignore_errors=True)
    code, _, text = _run_cli(["solve", "exam4", "--k", w.aniso_k, "--n", str(w.probe_n), "--out", str(out)],
                             clock)
    tally.bytes_written += _dir_bytes(out)
    tally.case(f"exam4-k{w.aniso_k}-N{w.probe_n}-probe", code in (0, 3),
               f"exit code {code}: {text.strip().splitlines()[-1:]}")
    shutil.rmtree(out, ignore_errors=True)
    return 0.0


def _step_krylov(w: Workload, prepared, tally: Tally, work: Path, clock: HostClock) -> float:
    """exam3 run_case; run_case itself raises AuditError on a failed audit and
    SolverError on a residual above ``tol``."""
    n = w.krylov_n
    label = f"exam3-N{n}"
    t0 = clock.now()
    try:
        case = verification.run_case(prepared["exam3"], n, tol=TOL)
    except Exception as exc:
        tally.case(label, False, _failure_text(exc))
        return clock.now() - t0
    elapsed = clock.now() - t0
    err = float(np.abs(case.solution - exact_wave(n)).max())
    tally.max_error = max(tally.max_error, err)
    tally.case(label, bool(np.isfinite(err)), f"max error {err}")
    return elapsed


STEPS = {
    "table": _step_table,
    "ladder": _step_ladder,
    "cli": _step_cli,
    "probe": _step_probe,
    "krylov": _step_krylov,
}


def run_pass(w: Workload, order: list[str], prepared, tally: Tally, work: Path,
             clock: HostClock) -> float:
    """One pass over the workload's steps; returns its time_to_solution_s."""
    gc.collect()
    return sum(STEPS[kind](w, prepared, tally, work, clock) for kind in order)


@dataclass
class Measurement:
    """Times are host-speed seconds (hostclock.py); ``*_wall_s`` are raw wall
    seconds without the clock's probes, kept for the run record."""

    setup_s: list[float] = dc_field(default_factory=list)
    setup_wall_s: list[float] = dc_field(default_factory=list)
    pass_s: list[float] = dc_field(default_factory=list)
    pass_wall_s: list[float] = dc_field(default_factory=list)  # whole pass, checks included
    tally: Tally = dc_field(default_factory=Tally)
    peak_rss_mb: float = 0.0  # after the setup rounds and the first pass
    probes: int = 0
    median_probe_s: float = 0.0
    traced_pass_s: float | None = None
    traced_tally: Tally | None = None
    tracer: Tracer | None = None

    @property
    def time_to_solution_s(self) -> float:
        return statistics.median(self.pass_s)

    def _tallies(self) -> list[Tally]:
        return [t for t in (self.tally, self.traced_tally) if t is not None]

    @property
    def attempted(self) -> int:
        return sum(t.attempted for t in self._tallies())

    @property
    def failed(self) -> int:
        return sum(t.failed for t in self._tallies())

    @property
    def failures(self) -> list[str]:
        return [line for t in self._tallies() for line in t.failures]


def measure(w: Workload, seed: int, seconds: float, trace: bool, work: Path) -> Measurement:
    """Set up repeatedly for SETUP_SHARE of ``seconds``, then run whole passes
    while one more average pass still ends within ``seconds`` of the start
    (at least one pass).  Everything is timed on one HostClock.

    With ``trace`` one more setup round and pass run under the tracer; the
    untraced passes are the baseline its overhead is measured against.
    """
    order = w.steps()
    random.Random(seed).shuffle(order)
    problems = w.problems()
    m = Measurement()
    with HostClock() as clock:
        start = time.perf_counter()
        while len(m.setup_s) < SETUP_MAX_ROUNDS and (
                len(m.setup_s) < SETUP_MIN_ROUNDS or time.perf_counter() - start < SETUP_SHARE * seconds):
            gc.collect()
            t0, wall0 = clock.now(), clock.wall()
            prepared = setup(problems)
            m.setup_s.append(clock.now() - t0)
            m.setup_wall_s.append(clock.wall() - wall0)
        while True:
            wall0 = clock.wall()
            m.pass_s.append(run_pass(w, order, prepared, m.tally, work, clock))
            m.pass_wall_s.append(clock.wall() - wall0)
            if len(m.pass_s) == 1:
                # Later passes reuse a heap the first one fragmented; their
                # peak depends on how many passes the host's speed allowed.
                m.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if time.perf_counter() - start + statistics.mean(m.pass_wall_s) > seconds:
                break
        if trace:
            m.tracer = Tracer(clock.now)
            m.traced_tally = Tally()
            gc.collect()
            m.tracer.install()
            try:
                prepared = setup(problems)
                m.traced_pass_s = run_pass(w, order, prepared, m.traced_tally, work, clock)
            finally:
                m.tracer.uninstall()
        if not w.table_ns:
            reference = Tally()
            run_pass(REFERENCE_TABLE, ["table"], setup(REFERENCE_TABLE.problems()), reference, work, clock)
            m.tally.digits = reference.digits
            m.tally.attempted += reference.attempted
            m.tally.failed += reference.failed
            m.tally.failures += reference.failures
        m.probes = clock.probes
        m.median_probe_s = clock.median_probe_s()
    return m
