import pytest

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
