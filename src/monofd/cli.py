"""Command-line front end: plan, solve, dmp, converge, export.

Runs are driven by a built-in problem name (exam1..exam4) or inline
coefficient expressions, optionally loaded from a flat key=value config file.
Each run option is one entry of ``_OPTIONS`` (config key, RunConfig field,
parser, flag help); its flag wins over its config entry, and both go through
the same parser, which checks the value's range.  ``main`` builds and
prepares the problem once and passes it to the command.  Every run writes a
manifest with the resolved configuration, the field constants, plan
summaries, and library versions.

Exit codes: 0 success, 2 config error (a value out of range and a tensor
field that is not finite and positive definite included), 3 planning
failure, 4 audit failure (an assembly error, a negative or undefined
coefficient at some node, included), 5 solver non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .assembly import Problem, assemble, export_matrix, export_rhs
from .errors import (
    AssemblyError,
    AuditError,
    ConfigError,
    FieldValidationError,
    MonofdError,
    PlanningError,
    SolverError,
)
from .expressions import parse_expression
from .field import field_from_expressions
from .grid import build_grid
from .problems import BUILT_IN_PROBLEMS, built_in_problem
from .stencil import MAX_HALF_WIDTH, check_mesh_condition, plan_grid, stencil_upper_bound
from .verification import (
    Prepared,
    convergence_study,
    dmp_row,
    manufactured_problem,
    prepare,
    run_case,
    sign_pattern_summary,
    solution_on_grid,
    write_convergence_csv,
    write_dmp_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PLANNING = 3
EXIT_AUDIT = 4
EXIT_SOLVER = 5

# Benchmark half-widths reported for these problems in the reference results
# this suite reproduces; printed next to the achieved values by `plan`.
REFERENCE_MAX_M = {"exam1": 2, "exam3": 1, "exam4-k10": 3, "exam4-k100": 26}


@dataclass
class RunConfig:
    problem: str | None = None
    n: list[int] = dc_field(default_factory=list)
    k: float = 10.0
    fixed_m: int | None = None
    tol: float = 1e-10
    max_iter: int | None = None
    probe_step: float = 1e-3
    out: Path = Path("out")
    force: bool = False
    inline: dict[str, str] = dc_field(default_factory=dict)


# Config keys that give a custom problem's expressions, kept as text.
_INLINE_KEYS = ("a", "b", "c", "f", "exact_u", "g")


def _parse_n_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _parse_half_width(text: str) -> int:
    m = int(text)
    if not 1 <= m <= MAX_HALF_WIDTH:
        raise ValueError(f"must lie in [1, {MAX_HALF_WIDTH}]")
    return m


def _parse_iteration_cap(text: str) -> int:
    cap = int(text)
    if cap < 1:
        raise ValueError("must be >= 1")
    return cap


def _parse_tolerance(text: str) -> float:
    tol = float(text)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("must be finite and > 0")
    return tol


def _parse_switch(text: str) -> bool:
    word = text.lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError("must be one of 1, true, yes, 0, false, no")
    return word in ("1", "true", "yes")


# Every run option: config key -> (RunConfig field, parser from text, flag
# help).  Config entries and flags both go through the parser, and the
# manifest's config line lists the fields in this order.
_OPTIONS = {
    "n": ("n", _parse_n_list, "comma-separated grid sizes (intervals per side)"),
    "k": ("k", float, "anisotropy ratio for exam4"),
    "m": ("fixed_m", _parse_half_width, "fixed stencil half-width instead of auto selection"),
    "tol": ("tol", _parse_tolerance, "solver relative-residual tolerance"),
    "max_iter": ("max_iter", _parse_iteration_cap, "solver iteration cap"),
    "probe_step": ("probe_step", float, "field sampling pitch"),
    "out": ("out", Path, "output directory (default ./out)"),
    "force": ("force", _parse_switch, "proceed past an audit failure"),
}


def load_config_file(path: Path) -> dict[str, str]:
    """Flat key=value file; blank lines and # comments ignored."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key != "problem" and key not in _OPTIONS and key not in _INLINE_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        entries[key] = value.strip()
    return entries


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Each option from its flag if given, else its config entry, else its default."""
    entries = load_config_file(Path(args.config)) if args.config else {}
    cfg = RunConfig(
        problem=args.problem or entries.get("problem"),
        inline={key: entries[key] for key in _INLINE_KEYS if key in entries},
    )
    for key, (name, parse, _) in _OPTIONS.items():
        text = getattr(args, key)
        if text is None:
            text = entries.get(key)
        if text is None:
            continue
        try:
            setattr(cfg, name, parse(text))
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {text!r} ({exc})") from exc
    if not cfg.n:
        raise ConfigError("no grid sizes given; use --n or a config file")
    return cfg


def build_problem(cfg: RunConfig) -> Problem:
    if cfg.problem:
        if cfg.inline:
            raise ConfigError("give either a built-in problem name or inline expressions, not both")
        if cfg.problem not in BUILT_IN_PROBLEMS:
            raise ConfigError(f"unknown problem {cfg.problem!r}; choices: {BUILT_IN_PROBLEMS}")
        return built_in_problem(cfg.problem, k=cfg.k)
    missing = [key for key in ("a", "b", "c") if key not in cfg.inline]
    if missing:
        raise ConfigError(f"inline problem needs tensor entries a, b, c (missing {missing})")
    field = field_from_expressions("custom", cfg.inline["a"], cfg.inline["b"], cfg.inline["c"])
    has_f = "f" in cfg.inline
    has_exact = "exact_u" in cfg.inline
    if has_f == has_exact:
        raise ConfigError("give exactly one of f or exact_u")
    if has_exact:
        problem = manufactured_problem(field, cfg.inline["exact_u"], name="custom")
        if "g" in cfg.inline:
            raise ConfigError("g is derived from exact_u; do not give both")
        return problem
    if "g" not in cfg.inline:
        raise ConfigError("inline problem with f needs boundary data g")
    return Problem(
        name="custom",
        field=field,
        f=parse_expression(cfg.inline["f"]),
        g=parse_expression(cfg.inline["g"]),
    )


class Reporter:
    """Mirrors run output to stdout and the manifest file."""

    def __init__(self, cfg: RunConfig, command: str, argv: list[str]):
        self.lines: list[str] = []
        cfg.out.mkdir(parents=True, exist_ok=True)
        self.path = cfg.out / "manifest.txt"
        self.emit(f"command: {command}")
        self.emit(f"argv: {' '.join(argv)}")
        self.emit(
            "versions: monofd %s, numpy %s, scipy %s, python %s"
            % (__version__, np.__version__, scipy.__version__, sys.version.split()[0])
        )
        options = " ".join(f"{name}={getattr(cfg, name)}" for name, _, _ in _OPTIONS.values())
        self.emit(f"config: problem={cfg.problem!r} {options} inline={cfg.inline}")

    def emit(self, line: str) -> None:
        print(line)
        self.lines.append(line)

    def flush(self) -> None:
        self.path.write_text("\n".join(self.lines) + "\n")


def _describe_constants(rep: Reporter, prepared: Prepared) -> None:
    c = prepared.constants
    rep.emit(
        f"constants: alpha_bar={c.alpha_bar:.6g} alpha={c.alpha:.6g} "
        f"cap_m={c.cap_m:.6g} radius={c.radius:.6g}"
    )
    rep.emit(
        f"lipschitz estimates: F+={c.lip_fplus:.6g} F-={c.lip_fminus:.6g} G={c.lip_g:.6g}"
    )
    rep.emit(f"worst-case stencil half-width bound: {stencil_upper_bound(c)}")


def _describe_plan(rep: Reporter, name: str, n: int, plan, mesh) -> None:
    hist = ", ".join(f"m={m}: {count}" for m, count in sorted(plan.m_histogram().items()))
    rep.emit(f"N={n}: max half-width m = {plan.max_m} ({hist})")
    rep.emit(
        f"N={n}: planning balls without a probe sample: {plan.empty_balls}; "
        f"nodes replanned with edge midpoints: {plan.fallback_nodes}"
    )
    reference = REFERENCE_MAX_M.get(name)
    if reference is not None:
        rep.emit(f"N={n}: reference max m for {name}: {reference} (achieved {plan.max_m})")
    verdict = "pass" if mesh.passed else "FAIL"
    rep.emit(
        f"N={n}: mesh condition sqrt(2)*h*max_m = {mesh.lhs:.6g} vs radius {mesh.radius:.6g}: "
        f"{verdict} (slack {mesh.slack:.6g})"
    )
    if not mesh.passed:
        rep.emit(
            f"N={n}: warning: stencils exceed the guaranteed neighborhood; "
            "the matrix audit below is the monotonicity certificate"
        )


def _plan(cfg: RunConfig, rep: Reporter, prepared: Prepared, n: int):
    """Plan the N=n grid and report the plan."""
    plan = plan_grid(build_grid(n), prepared.table, prepared.constants, fixed_m=cfg.fixed_m)
    _describe_plan(rep, prepared.problem.name, n, plan, check_mesh_condition(plan))
    return plan


def cmd_plan(cfg: RunConfig, rep: Reporter, prepared: Prepared) -> int:
    for n in cfg.n:
        plan = _plan(cfg, rep, prepared, n)
        path = cfg.out / f"plan_N{n}.txt"
        with open(path, "w") as fh:
            plan.dump(fh)
        rep.emit(f"N={n}: plan written to {path}")
    return EXIT_OK


def _run_one(cfg: RunConfig, rep: Reporter, prepared: Prepared, n: int):
    case = run_case(
        prepared,
        n,
        tol=cfg.tol,
        max_iter=cfg.max_iter,
        fixed_m=cfg.fixed_m,
        require_audit=not cfg.force,
        require_convergence=False,
    )
    _describe_plan(rep, prepared.problem.name, n, case.plan, case.mesh_condition)
    a = case.audit
    rep.emit(
        f"N={n}: audit: max_offdiag={a.max_offdiag:.3e} min_diag={a.min_diag:.6g} "
        f"min_slack={a.min_dominance_slack:.3e} connected={a.connected} passed={a.passed}"
    )
    if not a.passed and cfg.force:
        rep.emit(f"N={n}: warning: audit failed but --force given; solving anyway")
    r = case.report
    rep.emit(
        f"N={n}: solve: method={r.method_name} iterations={r.iterations} "
        f"residual={r.final_relative_residual:.3e} converged={r.converged}"
    )
    if not r.converged:
        raise SolverError(f"solver did not converge at N={n} (residual {r.final_relative_residual:.3e})")
    return case


def cmd_solve(cfg: RunConfig, rep: Reporter, prepared: Prepared) -> int:
    for n in cfg.n:
        case = _run_one(cfg, rep, prepared, n)
        full = solution_on_grid(prepared.problem, case.grid, case.solution)
        path = cfg.out / f"solution_N{n}.txt"
        np.savetxt(path, full)
        rep.emit(f"N={n}: solution grid ({n + 1}x{n + 1} values) written to {path}")
    return EXIT_OK


def cmd_dmp(cfg: RunConfig, rep: Reporter, prepared: Prepared) -> int:
    rows = []
    for n in cfg.n:
        row = dmp_row(prepared, n, functools.partial(_run_one, cfg, rep, prepared))
        rows.append(row)
        rep.emit(
            f"N={n}: boundary [{row.boundary_min:.6e}, {row.boundary_max:.6e}] "
            f"interior [{row.interior_min:.6e}, {row.interior_max:.6e}] "
            f"dmp={'holds' if row.dmp_holds else 'VIOLATED'}"
        )
    path = cfg.out / "dmp.csv"
    write_dmp_csv(rows, path)
    rep.emit(f"extrema table written to {path}")
    return EXIT_OK


def cmd_converge(cfg: RunConfig, rep: Reporter, prepared: Prepared) -> int:
    rows, slope = convergence_study(
        prepared,
        cfg.n,
        tol=cfg.tol,
        max_iter=cfg.max_iter,
        fixed_m=cfg.fixed_m,
        require_audit=not cfg.force,
    )
    for r in rows:
        order = "" if r.observed_order is None else f" order={r.observed_order:.3f}"
        rep.emit(f"N={r.n}: h={r.h:.6g} max_error={r.max_error:.6e}{order}")
    rep.emit(f"fitted slope of log(error) vs log(h): {slope:.4f}")
    path = cfg.out / "convergence.csv"
    write_convergence_csv(rows, path)
    rep.emit(f"convergence table written to {path}")
    return EXIT_OK


def cmd_export(cfg: RunConfig, rep: Reporter, prepared: Prepared) -> int:
    for n in cfg.n:
        system = assemble(prepared.problem, _plan(cfg, rep, prepared, n))
        summary = sign_pattern_summary(system)
        rep.emit(
            f"N={n}: sign pattern: {summary.positive_diagonal}/{system.dimension} positive diagonals, "
            f"{summary.nonpositive_offdiagonal}/{summary.offdiagonal_total} nonpositive off-diagonals, "
            f"{summary.violations} violations"
        )
        mpath = cfg.out / f"matrix_N{n}.txt"
        rpath = cfg.out / f"rhs_N{n}.txt"
        export_matrix(system, mpath)
        export_rhs(system, rpath)
        rep.emit(f"N={n}: matrix -> {mpath}, rhs -> {rpath}")
    return EXIT_OK


# Each command: name -> (function, help).
_COMMANDS = {
    "plan": (cmd_plan, "compute constants and per-node stencil plans"),
    "solve": (cmd_solve, "assemble, audit, and solve; write the solution grid"),
    "dmp": (cmd_dmp, "extrema table for a zero-source problem"),
    "converge": (cmd_converge, "convergence study against the exact solution"),
    "export": (cmd_export, "write the assembled matrix and right-hand side"),
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monofd",
        description="Monotone finite-difference solver for anisotropic diffusion on the unit square.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("problem", nargs="?", help=f"built-in problem name {BUILT_IN_PROBLEMS}")
        p.add_argument("--config", help="flat key=value config file")
        for key, (_, parse, option_help) in _OPTIONS.items():
            # A flag passes its text to the option's parser; a switch flag passes "yes".
            switch = {"action": "store_const", "const": "yes"} if parse is _parse_switch else {}
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=option_help, **switch)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = make_parser().parse_args(argv)
    rep = None
    try:
        cfg = resolve_config(args)
        rep = Reporter(cfg, args.command, argv)
        prepared = prepare(build_problem(cfg), cfg.probe_step)
        _describe_constants(rep, prepared)
        command, _ = _COMMANDS[args.command]
        return command(cfg, rep, prepared)
    except (ConfigError, FieldValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PlanningError as exc:
        print(f"planning failure: {exc}", file=sys.stderr)
        return EXIT_PLANNING
    except AssemblyError as exc:
        print(f"assembly failure: {exc}", file=sys.stderr)
        return EXIT_AUDIT
    except AuditError as exc:
        print(f"audit failure: {exc}", file=sys.stderr)
        return EXIT_AUDIT
    except (SolverError,) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except MonofdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if rep is not None:
            rep.flush()


if __name__ == "__main__":
    sys.exit(main())
