import argparse
import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import monofd

from monofd import cli
from monofd.cli import EXIT_AUDIT, EXIT_CONFIG, EXIT_OK, EXIT_PLANNING, EXIT_SOLVER, _COMMANDS, main, make_parser
from monofd.expressions import MAX_DEPTH


def run_cli(*argv):
    return main(list(argv))


class TestConfigHandling:
    def test_unknown_problem_is_config_error(self, tmp_path, capsys):
        code = run_cli("plan", "nonsense", "--n", "5", "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        assert "unknown problem" in capsys.readouterr().err

    def test_missing_grid_sizes(self, tmp_path):
        assert run_cli("plan", "exam1", "--out", str(tmp_path)) == EXIT_CONFIG

    def test_both_f_and_exact_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a=1\nb=0\nc=1\nf=0\nexact_u=x\ng=x\nn=4\n")
        assert run_cli("solve", "--config", str(cfg), "--out", str(tmp_path / "out")) == EXIT_CONFIG

    def test_flags_win_over_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem=exam1\nn=5\nprobe_step=0.01\n")
        code = run_cli("plan", "--config", str(cfg), "--n", "7", "--out", str(tmp_path / "o"))
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "N=7" in out and "N=5" not in out

    def test_non_finite_field_is_config_error(self, tmp_path):
        # x/x is 0/0 on the x = 0 edge of the probe lattice: one line on
        # stderr, no numpy RuntimeWarning ahead of it.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a=x/x + 1\nb=0\nc=1\nf=0\ng=x\nn=4\nprobe_step=0.05\n")
        env = dict(os.environ, PYTHONPATH=str(Path(monofd.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "monofd.cli", "solve", "--config", str(cfg), "--out", str(tmp_path / "o")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "not finite" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    @pytest.mark.parametrize("a, b, c", [
        # a is inf at the edge midpoint x = 1/6 of N = 3: the audit finds it
        ("2 + 1/(6*x - 1)**2", "0", "1"),
        # b is nan at the arm midpoint (1/6, 1/6): assembly names node (1, 1)
        ("2", "0.5*sin(1/((6*x - 1)**2 + (6*y - 1)**2))", "2"),
    ])
    def test_field_not_finite_off_the_probe_lattice_fails_audit(self, tmp_path, a, b, c):
        # Both fields are finite on the probe lattice, so they pass the field
        # check and planning; the non-finite values appear only in assembly.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"a={a}\nb={b}\nc={c}\nf=0\ng=x\nn=3\n")
        env = dict(os.environ, PYTHONPATH=str(Path(monofd.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "monofd.cli", "solve", "--config", str(cfg), "--out", str(tmp_path / "o")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_AUDIT, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    def test_bad_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        for text in ("problem exam1", "k=abc", "m=2.5", "tol=tight", "max_iter=1e3", "probe_step=fine",
                     "probe_step=nan", "probe_step=1e-7", "probe_step=1e-300", "tol=0", "tol=-1", "tol=nan",
                     "force=on", "m=0", "m=1500000000", "m=3000000000", "max_iter=0", "max_iter=-5",
                     "k=nan", "k=inf", "k=0", "k=-1"):
            cfg.write_text(f"problem=exam1\n{text}\n")
            code = run_cli("plan", "--config", str(cfg), "--n", "4", "--out", str(tmp_path / "o"))
            assert code == EXIT_CONFIG, text
            assert capsys.readouterr().err.count("\n") == 1, text

    @pytest.mark.parametrize("argv, code, message", [
        # the fallback plus interval at (4, 1) is inverted: a_sup 0.3542 > b_inf 0.3509
        (("exam4", "--k", "100", "--n", "41"), EXIT_PLANNING, "planning failed at node (j=4, k=1)"),
        # LU reaches about 2e-16, never 1e-30
        (("exam3", "--n", "8", "--tol", "1e-30"), EXIT_SOLVER, "solver did not converge at N=8"),
    ])
    def test_failure_exit_codes(self, tmp_path, capsys, argv, code, message):
        assert run_cli("solve", *argv, "--out", str(tmp_path)) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert (tmp_path / "manifest.txt").is_file()

    def test_fixed_half_width_failure_names_that_half_width(self, tmp_path, capsys):
        assert run_cli("plan", "exam4", "--n", "9", "--m", "1", "--out", str(tmp_path)) == EXIT_PLANNING
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "planning failed at node (j=1, k=1): no admissible stencil with half-width 1 for intervals" in err

    def test_unsafe_replan_is_a_planning_failure(self, tmp_path, capsys, directionless_replan):
        assert run_cli("plan", "exam1", "--n", "20", "--out", str(tmp_path)) == EXIT_PLANNING
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "no sign-safe direction pair at node (j=" in err

    @pytest.mark.parametrize("flag, value", [
        ("--probe-step", "nan"), ("--tol", "0"), ("--k", "abc"), ("--k", "nan"), ("--m", "3000000000"),
    ])
    def test_bad_flag_value(self, tmp_path, capsys, flag, value):
        # Flags go through the same parsers as config entries.
        assert run_cli("solve", "exam3", "--n", "4", flag, value, "--out", str(tmp_path)) == EXIT_CONFIG
        assert capsys.readouterr().err.count("\n") == 1

    def test_no_iteration_cap_flag(self, tmp_path, capsys):
        # The solver has no iteration cap; the parser refuses the flag in one line.
        assert run_cli("solve", "exam3", "--n", "4", "--max-iter", "5", "--out", str(tmp_path)) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: unrecognized arguments: --max-iter 5\n"

    @pytest.mark.parametrize("inline, k", [(False, "1e300"), (True, "5")])
    def test_k_only_for_exam4(self, tmp_path, capsys, inline, k):
        # A k that no problem reads is refused, not recorded in the manifest.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a=1\nb=0\nc=1\nf=0\ng=x\n")
        problem = ("--config", str(cfg)) if inline else ("exam1",)
        assert run_cli("solve", *problem, "--n", "4", "--k", k, "--out", str(tmp_path / "o")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "only exam4" in err

    @pytest.mark.parametrize("case", ["missing", "directory", "not-utf8", "out-is-file"])
    def test_unreadable_config_or_out(self, tmp_path, capsys, case):
        cfg, out = tmp_path / "run.cfg", tmp_path / "o"
        if case == "directory":
            cfg.mkdir()
        elif case == "not-utf8":
            cfg.write_bytes(b"problem=exam1\n# \xff\n")
        elif case == "out-is-file":
            cfg.write_text("problem=exam1\n")
            out.write_text("")
        assert run_cli("plan", "--config", str(cfg), "--n", "4", "--out", str(out)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("entry", [
        "exact_u=" + " + ".join(["x"] * 1500),
        "a=" + "+".join(["9"] * 3000),  # too deep for ast.parse itself
        "exact_u=" + "-" * 2000 + "x",
        "exact_u=" + "*".join(["sin(x)"] * 350),
    ], ids=["sum-1500", "nines-3000", "minus-2000", "product-350"])
    def test_too_deep_expression_is_config_error(self, tmp_path, capsys, entry):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"a=1\nb=0\nc=1\nexact_u=x\n{entry}\n")
        code = run_cli("solve", "--config", str(cfg), "--n", "4", "--probe-step", "0.05", "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert err.count("\n") == 1 and "Traceback" not in err and f"limit of {MAX_DEPTH}" in err
        # The manifest echoes the long entry cut short, with its length.
        key, text = entry.split("=", 1)
        config = next(line for line in out.splitlines() if line.startswith("config:"))
        assert f"'{key}': '{text[:60]}... ({len(text)} chars)'" in config and len(config) < 300
        assert f"\n{config}\n" in (tmp_path / "manifest.txt").read_text()

    def test_expression_at_the_depth_limit_solves(self, tmp_path):
        # a product chain is the deepest a manufactured source grows, about 3x
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a=1\nb=0\nc=1\nexact_u=" + "*".join(["sin(x)"] * (MAX_DEPTH - 1)) + "\n")
        code = run_cli("solve", "--config", str(cfg), "--n", "4", "--probe-step", "0.05", "--out", str(tmp_path))
        assert code == EXIT_OK

    def test_out_of_memory_is_config_error(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "prepare", exhausted)
        assert run_cli("solve", "exam1", "--n", "4", "--out", str(tmp_path)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("memory error:")
        assert (tmp_path / "manifest.txt").exists()

    def test_readme_lists_every_flag(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        paragraph = readme.split("Common flags", 1)[1].split("\n\n", 1)[0]
        documented = set(re.findall(r"`(--[a-z-]+)", paragraph))
        commands = next(a for a in make_parser()._actions if isinstance(a, argparse._SubParsersAction))
        for name, parser in commands.choices.items():
            flags = {s for action in parser._actions for s in action.option_strings} - {"-h", "--help"}
            assert flags == documented, name


class TestPlanCommand:
    def test_reports_constants_and_writes_outputs(self, tmp_path, capsys):
        code = run_cli("plan", "exam1", "--n", "21", "--probe-step", "0.002", "--out", str(tmp_path))
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "alpha_bar=11" in out
        assert "half-width bound: 13" in out
        assert "max half-width m = 2" in out
        assert (tmp_path / "plan_N21.txt").exists()
        manifest = (tmp_path / "manifest.txt").read_text()
        assert "versions:" in manifest and "probe_step=0.002" in manifest

    @pytest.mark.parametrize("argv, code, name", [
        # exam4 without --k runs with k = 10; planning fails at this probe step
        (("exam4", "--n", "4", "--probe-step", "0.05"), EXIT_PLANNING, "exam4-k10"),
        (("--config", "{cfg}", "--n", "4"), EXIT_OK, "custom"),
    ])
    def test_manifest_names_the_built_problem(self, tmp_path, capsys, argv, code, name):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a=1\nb=0\nc=1\nf=0\ng=x\nprobe_step=0.05\n")
        argv = [arg.format(cfg=cfg) for arg in argv]
        assert run_cli("plan", *argv, "--out", str(tmp_path / "o")) == code
        capsys.readouterr()
        assert f"\nproblem: {name}\n" in (tmp_path / "o" / "manifest.txt").read_text()

    def test_manifest_reports_plan_counters(self, tmp_path):
        # exam4 k=100: no planning ball holds a probe sample, so every node
        # is replanned on its edge midpoints.
        assert run_cli("plan", "exam4", "--k", "100", "--n", "201", "--out", str(tmp_path)) == EXIT_OK
        manifest = (tmp_path / "manifest.txt").read_text()
        assert ("N=201: planning balls without a probe sample: 40000; "
                "nodes replanned with edge midpoints: 40000") in manifest


class TestSolveCommand:
    def test_inline_problem_solution_grid(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a=1\nb=0\nc=1\nf=0\ng=x\nn=4\nprobe_step=0.05\n")
        out = tmp_path / "o"
        assert run_cli("solve", "--config", str(cfg), "--out", str(out)) == EXIT_OK
        grid_values = np.loadtxt(out / "solution_N4.txt")
        assert grid_values.shape == (5, 5)
        # harmonic plane: solution equals x everywhere
        assert grid_values == pytest.approx(np.tile(np.linspace(0, 1, 5), (5, 1)), abs=1e-9)

    @pytest.mark.parametrize("problem, ordering", [("exam3", "nested-dissection"), ("exam1", "nested-dissection"),
                                                   ("exam4", "mmd")])
    def test_solve_line_reports_ordering_and_factor_size(self, tmp_path, capsys, problem, ordering):
        # exam3 plans a 3x3 stencil at every node, exam1 reaches two cells,
        # exam4 (k = 10) further.
        assert run_cli("solve", problem, "--n", "21", "--out", str(tmp_path)) == EXIT_OK
        pattern = rf"N=21: solve: method=float32-lu ordering={ordering} factor_nnz=[1-9]\d* iterations="
        assert re.search(pattern, capsys.readouterr().out)
        assert re.search(pattern, (tmp_path / "manifest.txt").read_text())

    def test_manufactured_inline(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a=1\nb=0\nc=1\nexact_u=x*y\nn=4\nprobe_step=0.05\n")
        assert run_cli("solve", "--config", str(cfg), "--out", str(tmp_path / "o")) == EXIT_OK
        assert "converged=True" in capsys.readouterr().out


class TestStudyCommands:
    def test_dmp_writes_table(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run_cli("dmp", "exam1", "--n", "10,20", "--probe-step", "0.002", "--out", str(out))
        assert code == EXIT_OK
        lines = (out / "dmp.csv").read_text().splitlines()
        assert lines[0] == "N,boundary_min,interior_min,boundary_max,interior_max"
        assert len(lines) == 3
        assert "dmp=holds" in capsys.readouterr().out

    @pytest.mark.parametrize("problem", [
        ("exam2", "--n", "11"),
        # f is nan everywhere, which no comparison with a bound lets through
        ("--config", "{cfg}", "--n", "4"),
        ("--config", "{cfg}", "--n", "4", "--force"),
    ], ids=["exam2", "nan-source", "nan-source-force"])
    def test_dmp_rejects_nonzero_source(self, tmp_path, capsys, problem):
        out, cfg = tmp_path / "o", tmp_path / "run.cfg"
        cfg.write_text("a=1\nb=0\nc=1\nf=1/0 - 1/0\ng=x\n")
        argv = [arg.format(cfg=cfg) for arg in problem]
        assert run_cli("dmp", *argv, "--out", str(out)) == EXIT_CONFIG
        assert "zero source" in capsys.readouterr().err
        assert not (out / "dmp.csv").exists()

    def test_converge_reports_slope(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run_cli("converge", "exam3", "--n", "9,17", "--probe-step", "0.005", "--out", str(out))
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "fitted slope" in stdout
        assert (out / "convergence.csv").exists()
        # Each case reports its audit and its solve, on stdout and in the manifest.
        manifest = (out / "manifest.txt").read_text()
        for text in (stdout, manifest):
            for n in (9, 17):
                assert f"N={n}: audit: " in text and f"N={n}: solve: " in text

    def test_converge_with_zero_error(self, tmp_path, capsys):
        # x is exact on every grid; N=2 has one unknown and no error at all.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a=1\nb=0\nc=1\nexact_u=x\nn=2,4,8\nprobe_step=0.05\n")
        assert run_cli("converge", "--config", str(cfg), "--out", str(tmp_path / "o")) == EXIT_OK
        assert "N=2: h=0.5 max_error=0.000000e+00\n" in capsys.readouterr().out

    def test_converge_requires_exact(self, tmp_path):
        assert run_cli("converge", "exam1", "--n", "9,17", "--out", str(tmp_path)) == EXIT_CONFIG

    def test_export_header(self, tmp_path):
        out = tmp_path / "o"
        code = run_cli("export", "exam2", "--n", "21", "--out", str(out))
        assert code == EXIT_OK
        header = (out / "matrix_N21.txt").read_text().splitlines()[0]
        assert header.startswith("400 400 ")
        assert (out / "rhs_N21.txt").exists()

    @pytest.mark.parametrize("force, code", [(False, EXIT_AUDIT), (True, EXIT_OK)])
    def test_export_audits_the_system(self, tmp_path, capsys, force, code):
        # f = 1/0 puts inf in every rhs entry: the audit fails, as in solve.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a=1\nb=0\nc=1\nf=1/0\ng=0\nn=3\n")
        out = tmp_path / "o"
        argv = ["export", "--config", str(cfg), "--out", str(out)] + ["--force"] * force
        assert run_cli(*argv) == code
        err = capsys.readouterr().err
        assert err.count("\n") == (not force) and "Traceback" not in err
        assert (out / "rhs_N3.txt").exists() == force


# The front door, fed random config files and flags.  Grids stay at N <= 8
# and the probe step at >= 0.05, so that no example allocates much.
_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),  # repr(inf) is a name, not a number
    st.integers().map(str),
    st.sampled_from(["1/0", "10.0**400", "(-1)**0.5", "1e308*10", "0/0", "1e400", "5e-324", "9" * 400]),
)
_LEAVES = st.one_of(st.sampled_from(["x", "y", "pi", "e"]), _NUMBERS)


def _grow(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from(["sin", "cos", "tan", "atan", "abs"]), inner).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(inner, _LEAVES).map(lambda t: f"({t[0]})**({t[1]})"),
        inner.map(lambda t: f"-({t})"),
    )


_EXPRESSIONS = st.one_of(
    st.recursive(_LEAVES, _grow, max_leaves=20),
    # long: a sum of hundreds of terms
    st.lists(st.recursive(_LEAVES, _grow, max_leaves=3), min_size=50, max_size=400).map(" + ".join),
    # deep: a call chain around the depth limit
    st.tuples(st.integers(MAX_DEPTH - 5, MAX_DEPTH + 5), st.sampled_from(["sin", "atan", "abs", "-"]), _LEAVES)
    .map(lambda t: f"{t[1]}(" * t[0] + t[2] + ")" * t[0]),
    st.text(max_size=30),
)
_JUNK = st.sampled_from(["", "fine", "nan", "-inf", "1e999", "0x10", "yes"])
# Config key -> values that make a sound run, and any values at all; grid
# sizes and probe steps of both kinds keep to the limits above.
_SOUND = {
    "problem": ["exam1", "exam2", "exam3", "exam4"],
    "a": ["1", "2 + sin(pi*x)", "1 + x**2"],
    "b": ["0", "0.5*x*y", "0.3*sin(x + y)"],
    "c": ["1", "2 + cos(y)", "1 + y/2"],
    "f": ["0", "1", "x*y"],
    "g": ["0", "x", "x**2 - y**2"],
    "exact_u": ["x*y", "sin(pi*x)*sin(pi*y)", "x**0.5 + y"],
    "n": ["3", "4,8", "2,5,7"], "k": ["10", "2.5"], "m": ["1", "3"], "tol": ["1e-10", "1e-6"],
    "probe_step": ["0.05", "0.25"], "force": ["yes", "no"], "out": ["o"],
}
_WILD = {
    **dict.fromkeys(["a", "b", "c", "f", "g", "exact_u"], _EXPRESSIONS),
    "problem": st.one_of(st.sampled_from(["nonsense", ""]), st.text(max_size=10)),
    "n": st.one_of(st.lists(st.integers(-1, 8).map(str), max_size=3).map(",".join), _JUNK),
    "k": st.one_of(_NUMBERS, _JUNK),
    "m": st.one_of(st.integers(-1, 2**31).map(str), _JUNK),
    "tol": st.one_of(_NUMBERS, _JUNK),
    "probe_step": st.one_of(st.floats(min_value=0.05).map(repr), _JUNK),
    "force": st.one_of(st.sampled_from(["1", "on"]), _JUNK),
    "out": st.text(max_size=10),
}
_MOSTLY = st.integers(0, 5).map(bool)  # True five times in six
_STRAY_LINES = st.one_of(st.tuples(st.text(max_size=10), st.text(max_size=10)).map("=".join), st.text(max_size=20))


@st.composite
def _value(draw, key):
    """Mostly a sound value of ``key``, so that runs reach the later stages."""
    return draw(st.sampled_from(_SOUND[key]) if draw(_MOSTLY) else _WILD[key])


@st.composite
def front_door(draw):
    """Config file bytes and the arguments of one run after its command,
    without its --config and --out."""
    sources = st.one_of(st.sampled_from([["f", "g"], ["exact_u"]]),
                        st.lists(st.sampled_from(["f", "g", "exact_u"]), unique=True))
    keys = ["problem"] if draw(st.booleans()) else ["a", "b", "c", *draw(sources)]
    keys += ["n", "probe_step"]
    if not draw(_MOSTLY):  # any key once more; a later line wins
        keys.append(draw(st.sampled_from(sorted(_SOUND))))
    lines = [f"{key}={draw(_value(key))}" for key in keys]
    if not draw(_MOSTLY):  # an unknown key or a line without =
        lines.append(draw(_STRAY_LINES))
    data = "\n".join(draw(st.permutations(lines))).encode("utf-8", "surrogatepass")
    if not draw(_MOSTLY):  # bytes that are not UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=4)) + data[at:]
    flags = [draw(st.sampled_from(sorted(_COMMANDS)))]
    options = st.sampled_from(["n", "k", "m", "tol", "probe_step", "force"])
    for key in draw(st.lists(options, unique=True, max_size=2)):
        flags.append("--" + key.replace("_", "-") + ("" if key == "force" else "=" + draw(_value(key))))
    if not draw(_MOSTLY):  # an unknown flag, or one without its value; any prefix of --help would exit
        unknown = st.text(max_size=8).map(lambda t: "--" + t).filter(lambda f: not "--help".startswith(f))
        flags.insert(draw(st.integers(1, len(flags))),
                     draw(st.one_of(st.sampled_from(["--max-iter=5", "-x", "--n", "--tol"]), unknown)))
    if not draw(_MOSTLY):  # a problem name, even one that starts with -
        flags += ["--", draw(_value("problem"))]
    return data, flags


def _run(command, *lines):
    return "\n".join([*lines, "n=3,4", "probe_step=0.05"]).encode(), [command]


@given(front_door())
@example(_run("plan", "a=1/0 + 2", "b=0", "c=1", "f=0", "g=0"))
@example(_run("plan", "a=10.0**400", "b=0", "c=1", "f=0", "g=0"))
@example(_run("plan", "a=(-1)**0.5 + 2", "b=0", "c=1", "f=0", "g=0"))
@example(_run("plan", "a=1e308*10", "b=0", "c=1", "f=0", "g=0"))
@example(_run("solve", "a=1", "b=0", "c=1", "f=1/0", "g=0"))
@example(_run("converge", "a=1", "b=0", "c=1", "exact_u=1/0 + x"))
@example(_run("converge", "a=1", "b=0", "c=1", "exact_u=x / 1.3233175866470532e-210"))
@example(_run("converge", "a=1", "b=0", "c=1", "exact_u=5e-324"))
@example((_run("solve", "problem=exam3")[0], ["solve", "--max-iter", "5"]))
@example((_run("plan", "problem=exam3")[0], ["plan", "--a\nb"]))
@settings(max_examples=100, deadline=None)
def test_front_door_exits_with_a_documented_code_and_one_line(run):
    data, flags = run
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.cfg"
        config.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([flags[0], "--config", str(config), "--out", str(Path(tmp) / "o"), *flags[1:]])
    # A warning would be a line of its own on a real run's stderr.
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    event(f"exit {code}")
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_PLANNING, EXIT_AUDIT, EXIT_SOLVER), lines
    assert len(lines) <= (code != EXIT_OK), lines
    assert "Traceback" not in err.getvalue()
