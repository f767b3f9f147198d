"""The benchmark's span tracer still installs on the library and uninstalls cleanly.

``perfbench/tracing.py`` rebinds library functions by attribute name, so a
rename in ``src/`` would break every traced benchmark run; this test catches
that without running the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

from monofd import solver
from monofd.expressions import Expression
from monofd.field import ProbeTable
from monofd.problems import built_in_problem
from monofd.verification import prepare, run_case

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def bindings() -> dict:
    """Every attribute of the loaded monofd modules and of the two patched classes."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "monofd" or name.startswith("monofd."):
            out.update({(name, attr): value for attr, value in vars(module).items()})
    for cls in (ProbeTable, Expression):
        out.update({(cls.__name__, attr): value for attr, value in vars(cls).items()})
    return out


def test_tracer_spans_the_pipeline_and_restores_every_name():
    tracer = load_tracer_class()()
    before = bindings()
    spla = solver.spla
    tracer.install()
    try:
        assert solver.spla is not spla
        run_case(prepare(built_in_problem("exam3"), 0.05), 5)
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
    assert solver.spla is spla

    names = [tracer.span_names[i] for i in tracer.name]
    for expected in ("ProbeTable", "compute_constants", "plan_grid", "assemble", "audit_m_matrix", "solve"):
        assert expected in names
    # The table computes its constants inside its constructor's span.
    parent = tracer.parent[names.index("compute_constants")]
    assert parent >= 0 and names[parent] == "ProbeTable"
