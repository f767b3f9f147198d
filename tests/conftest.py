import pytest

from monofd.field import ProbeTable, built_in_field, compute_constants
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


@pytest.fixture(scope="session")
def exam1_constants(prep_exam1):
    return prep_exam1.constants


@pytest.fixture(scope="session")
def identity_setup():
    table = ProbeTable(built_in_field("identity"), 1e-2)
    return table, compute_constants(table)
