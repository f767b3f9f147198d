"""The scripts under scripts/ run against the current library API."""

import runpy
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).parents[1] / "scripts"


def test_order_sweep_runs():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "order_sweep.py"), "exam3", "--n", "5,9", "--probe-step", "0.05"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "least-squares slope" in proc.stdout


def test_run_studies_imports(monkeypatch):
    # The script puts src/ on sys.path when loaded; keep that change local.
    monkeypatch.setattr(sys, "path", list(sys.path))
    namespace = runpy.run_path(str(SCRIPTS / "run_studies.py"), run_name="run_studies")
    assert callable(namespace["main"])


def test_run_studies_k_sweep_rows(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))
    namespace = runpy.run_path(str(SCRIPTS / "run_studies.py"), run_name="run_studies")
    namespace["k_sweep"](1e-3, ks=(100,), ns=(41, 101))
    rows = capsys.readouterr().out.splitlines()
    assert rows == [
        "  k=100 bound=100 radius=3.98e-06 N=41: planning fails at node (4, 1)",
        "  k=100 bound=100 radius=3.98e-06 N=101: max m 92 (reference 26) fallback 10000 "
        "empty balls 10000 mesh FAIL",
    ]
