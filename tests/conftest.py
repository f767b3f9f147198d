from unittest.mock import patch

import pytest

from monofd import stencil
from monofd.field import DiffusionField, ProbeTable, field_from_expressions
from monofd.problems import built_in_problem
from monofd.verification import Prepared, prepare


@pytest.fixture(scope="session")
def prep_exam1() -> Prepared:
    return prepare(built_in_problem("exam1"))


@pytest.fixture(scope="session")
def prep_exam2() -> Prepared:
    return prepare(built_in_problem("exam2"))


@pytest.fixture(scope="session")
def prep_exam3() -> Prepared:
    return prepare(built_in_problem("exam3"))


@pytest.fixture(scope="session")
def prep_exam4() -> Prepared:
    return prepare(built_in_problem("exam4", k=10.0))


@pytest.fixture(scope="session")
def prep_exam4_k100() -> Prepared:
    return prepare(built_in_problem("exam4", k=100.0))


def identity_field() -> DiffusionField:
    """The identity tensor field, a = c = 1 and b = 0."""
    return field_from_expressions("identity", "1", "0", "1")


def tensor_at(field: DiffusionField, x: float, y: float) -> tuple[float, float, float]:
    """Entries (a, b, c) of ``field`` at one point."""
    return float(field.a(x, y)), float(field.b(x, y)), float(field.c(x, y))


@pytest.fixture(scope="session")
def exam1_constants(prep_exam1):
    return prep_exam1.table.constants


@pytest.fixture(scope="session")
def identity_table() -> ProbeTable:
    return ProbeTable(identity_field(), 1e-2)


def plan_with_bounds(grid, table, fixed_m=None):
    """``plan_grid``'s plan, the slope bounds (A, B, C, D) it planned each
    node on and the indices of its fallback nodes.

    The bounds are the ball bounds of the first selection, with the merged
    ball-and-special-point bounds of the fallback replan written in.  The
    plan keeps neither, so they are read off the calls to ``_select`` and
    ``_SpecialPoints.bounds``; patching them per call also works under
    hypothesis, where function-scoped fixtures do not.
    """
    selections, fallbacks = [], []
    select, special_bounds = stencil._select, stencil._SpecialPoints.bounds

    def recording_select(bounds, *args):
        selections.append(bounds)
        return select(bounds, *args)

    def recording_bounds(self, idx):
        fallbacks.append(idx)
        return special_bounds(self, idx)

    with patch.object(stencil, "_select", recording_select), \
            patch.object(stencil._SpecialPoints, "bounds", recording_bounds):
        plan = stencil.plan_grid(grid, table, fixed_m)
    (ball, merged), [fallback] = selections, fallbacks
    bounds = tuple(v.copy() for v in ball)
    for out, values in zip(bounds, merged):
        out[fallback] = values
    return plan, bounds, fallback
