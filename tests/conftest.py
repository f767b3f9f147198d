from unittest.mock import patch

import numpy as np
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
    plan keeps neither, so they are read off the calls to ``_select``, and
    the fallback nodes off the second call to ``_axis_points`` (the first
    takes every node); patching them per call also works under hypothesis,
    where function-scoped fixtures do not.
    """
    selections, points = [], []
    select, axis_points = stencil._select, stencil._axis_points

    def recording_select(bounds, *args):
        selections.append(bounds)
        return select(bounds, *args)

    def recording_points(x, y, half, idx):
        points.append(idx)
        return axis_points(x, y, half, idx)

    with patch.object(stencil, "_select", recording_select), \
            patch.object(stencil, "_axis_points", recording_points):
        plan = stencil.plan_grid(grid, table, fixed_m)
    (ball, merged), (_, fallback) = selections, points
    bounds = tuple(v.copy() for v in ball)
    for out, values in zip(bounds, merged):
        out[fallback] = values
    return plan, bounds, fallback


@pytest.fixture
def directionless_replan(monkeypatch):
    """Make ``plan_grid``'s replan, its one selection without a margin, keep
    its half-widths but choose no direction for either sign part.  Every
    fallback midpoint with b != 0 then has an undefined coefficient, so the
    replanned choice is not sign-safe."""
    select = stencil._select

    def replan(bounds, m_cap, safety, fixed_m):
        m, i1, i2 = select(bounds, m_cap, safety, fixed_m)
        return (m, np.zeros_like(i1), np.zeros_like(i2)) if safety == 0.0 else (m, i1, i2)

    monkeypatch.setattr(stencil, "_select", replan)
