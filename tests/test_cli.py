import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import monofd

from monofd.cli import EXIT_AUDIT, EXIT_CONFIG, EXIT_OK, EXIT_PLANNING, EXIT_SOLVER, main, make_parser


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
                     "force=on", "m=0", "m=1500000000", "m=3000000000", "max_iter=0", "max_iter=-5"):
            cfg.write_text(f"problem=exam1\n{text}\n")
            code = run_cli("plan", "--config", str(cfg), "--n", "4", "--out", str(tmp_path / "o"))
            assert code == EXIT_CONFIG, text
            assert capsys.readouterr().err.count("\n") == 1, text

    @pytest.mark.parametrize("argv, code, message", [
        # the midpoint-augmented plus interval at (3, 1) is inverted
        (("exam4", "--k", "100", "--n", "41"), EXIT_PLANNING, "planning failed at node (j=3, k=1)"),
        # LU reaches about 2e-16, never 1e-30
        (("exam3", "--n", "8", "--tol", "1e-30"), EXIT_SOLVER, "solver did not converge at N=8"),
    ])
    def test_failure_exit_codes(self, tmp_path, capsys, argv, code, message):
        assert run_cli("solve", *argv, "--out", str(tmp_path)) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert (tmp_path / "manifest.txt").is_file()

    @pytest.mark.parametrize("flag, value", [
        ("--probe-step", "nan"), ("--tol", "0"), ("--k", "abc"), ("--m", "3000000000"),
    ])
    def test_bad_flag_value(self, tmp_path, capsys, flag, value):
        # Flags go through the same parsers as config entries.
        assert run_cli("solve", "exam3", "--n", "4", flag, value, "--out", str(tmp_path)) == EXIT_CONFIG
        assert capsys.readouterr().err.count("\n") == 1

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

    def test_dmp_rejects_nonzero_source(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli("dmp", "exam2", "--n", "11", "--out", str(out)) == EXIT_CONFIG
        assert "zero source" in capsys.readouterr().err
        assert not (out / "dmp.csv").exists()

    def test_converge_reports_slope(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run_cli("converge", "exam3", "--n", "9,17", "--probe-step", "0.005", "--out", str(out))
        assert code == EXIT_OK
        assert "fitted slope" in capsys.readouterr().out
        assert (out / "convergence.csv").exists()

    def test_converge_requires_exact(self, tmp_path):
        assert run_cli("converge", "exam1", "--n", "9,17", "--out", str(tmp_path)) == EXIT_CONFIG

    def test_export_header(self, tmp_path):
        out = tmp_path / "o"
        code = run_cli("export", "exam2", "--n", "21", "--out", str(out))
        assert code == EXIT_OK
        header = (out / "matrix_N21.txt").read_text().splitlines()[0]
        assert header.startswith("400 400 ")
        assert (out / "rhs_N21.txt").exists()
