import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monofd import expressions
from monofd.errors import ConfigError
from monofd.expressions import (
    MAX_DEPTH,
    BinOp,
    Const,
    NonDifferentiableError,
    Var,
    evaluate,
    negative_divergence,
    parse_expression,
)
from monofd.field import field_from_expressions
from monofd.problems import problem_from_expressions


def test_parse_arithmetic():
    e = parse_expression("2*x + y/4 - 1")
    assert e(1.0, 2.0) == pytest.approx(2 + 0.5 - 1)


def test_parse_functions_and_pi():
    e = parse_expression("sin(2*pi*x*y)")
    assert e(0.25, 0.5) == pytest.approx(math.sin(math.pi / 4))
    assert parse_expression("atan(1)")(0, 0) == pytest.approx(math.pi / 4)


def test_parse_power_with_constant_exponent():
    e = parse_expression("x**2 + y**3")
    assert e(2.0, 3.0) == pytest.approx(4 + 27)


@pytest.mark.parametrize(
    "text",
    [
        "z + 1",
        "exp(x)",
        "x ** y",
        "x @ y",
        "sin(x, y)",
        "__import__('os')",
        "lambda: 1",
    ],
)
def test_parse_rejects_off_grammar(text):
    with pytest.raises(ConfigError):
        parse_expression(text)


def test_vectorized_matches_scalar():
    e = parse_expression("cos(pi*x*y) + y")
    xs = np.linspace(0, 1, 11)
    ys = np.linspace(0, 1, 11)
    vec = e(xs, ys)
    assert vec == pytest.approx([e(float(x), float(y)) for x, y in zip(xs, ys)])


def _central_derivative(e, x, y, name, step=1e-6):
    if name == "x":
        return (e(x + step, y) - e(x - step, y)) / (2 * step)
    return (e(x, y + step) - e(x, y - step)) / (2 * step)


@pytest.mark.parametrize(
    "text",
    [
        "x*x*y + 3*y",
        "sin(2*pi*x)*sin(3*pi*y)",
        "tan(x/2) + atan(x*y)",
        "(x + 2) / (y + 3)",
        "cos(pi*sin(x)*cos(y))",
        "x**3 - y**1.5",
    ],
)
@pytest.mark.parametrize("name", ["x", "y"])
def test_diff_matches_finite_differences(text, name):
    e = parse_expression(text)
    d = e.diff(name)
    rng = np.random.default_rng(7)
    for x, y in rng.uniform(0.1, 0.9, size=(20, 2)):
        assert d(x, y) == pytest.approx(_central_derivative(e, x, y, name), rel=1e-6, abs=1e-7)


@pytest.mark.parametrize("text, expected", [
    ("1/0 + 2", math.inf), ("10.0**400", math.inf), ("(-1)**0.5 + 2", math.nan), ("1e308*10", math.inf),
    ("1" + "0" * 400, math.inf), ("1/(x - 0.25)", math.inf), ("0/0", math.nan),
], ids=["1/0", "10.0**400", "(-1)**0.5", "1e308*10", "10**400-in-digits", "pole-at-0.25", "0/0"])
def test_folding_and_scalar_points_use_the_float64_arithmetic(text, expected):
    # Python floats raise ZeroDivisionError or OverflowError, or turn complex.
    assert np.array_equal(parse_expression(text)(0.25, 0.5), expected, equal_nan=True)


def test_abs_evaluates_but_rejects_diff():
    e = parse_expression("abs(x - 0.5)")
    assert e(0.25, 0.0) == pytest.approx(0.25)
    with pytest.raises(NonDifferentiableError):
        e.diff("x")


def test_operator_building_and_str_roundtrip():
    e = parse_expression("9 + 4*sin(2*pi*x*y)/(1 + x**2) - tan(y)**3 + atan(-x)")
    reparsed = parse_expression(str(e))
    assert reparsed == e
    for px, py in [(0.1, 0.9), (0.7, 0.3)]:
        assert reparsed(px, py) == e(px, py)


@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(0.01, 0.99), st.floats(0.01, 0.99))
@settings(max_examples=50, deadline=None)
def test_linear_diff_property(a, b, x, y):
    e = parse_expression(f"{a!r} * x + {b!r} * y")
    assert e.diff("x")(x, y) == pytest.approx(a)
    assert e.diff("y")(x, y) == pytest.approx(b)


_GRID = np.meshgrid(np.linspace(0.0, 1.0, 4), np.linspace(0.0, 1.0, 3))
_POINTS = {
    "scalar": (0.25, 0.5),
    "1-D": (np.linspace(0.0, 1.0, 5), np.linspace(1.0, 0.0, 5)),
    "meshgrid": _GRID,
    "array-scalar": (np.linspace(0.0, 1.0, 5), 0.5),
    "scalar-row": (0.5, np.linspace(0.0, 1.0, 5)[None, :]),
    "integer-array": (np.arange(4), np.arange(4)[:, None]),
}


@pytest.mark.parametrize("text", ["3", "x", "4*sin(2*pi*x*y) + y/(1 + x**2)"])
@pytest.mark.parametrize("points", sorted(_POINTS))
def test_call_returns_read_only_float_array_of_broadcast_shape(text, points):
    x, y = _POINTS[points]
    value = parse_expression(text)(x, y)
    assert isinstance(value, np.ndarray)
    assert value.dtype == np.float64
    assert value.shape == np.broadcast_shapes(np.shape(x), np.shape(y))
    assert not value.flags.writeable


_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "tan": np.tan, "atan": np.arctan, "abs": np.abs}


def oracle(e, x, y):
    """Reference value of ``e`` at the float64 arrays (x, y): one recursive
    visit per tree node, nothing shared, each node's operation applied to its
    operands' values."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return x if e.name == "x" else y
    if isinstance(e, BinOp):
        a, b = oracle(e.left, x, y), oracle(e.right, x, y)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            return a / b
        return a ** b
    return _FUNCTIONS[e.fname](oracle(e.arg, x, y))


def oracle_call(e, x, y):
    """``oracle`` under the call contract: a float64 array of the points'
    broadcast shape."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return np.broadcast_to(oracle(e, x, y), np.broadcast_shapes(x.shape, y.shape))


def _bits(values):
    return [(v.shape, np.ascontiguousarray(v).tobytes()) for v in values]


def test_call_values_match_evaluate():
    e = parse_expression("4*sin(2*pi*x*y) + y/(1 + x**2)")
    X, Y = _GRID
    assert _bits([e(X, Y)]) == _bits([oracle_call(e, X, Y)])
    assert np.array_equal(parse_expression("x")(np.arange(3), 0), [0.0, 1.0, 2.0])


def test_signed_zero_constants_stay_apart():
    # -0.0 == 0.0, so a merge on value equality would give both trees one sign.
    minus, plus = parse_expression("sin(-0.0)"), parse_expression("sin(0.0)")
    assert minus == plus
    values = evaluate((minus, plus), 0.5, 0.5)
    assert [math.copysign(1.0, float(v)) for v in values] == [-1.0, 1.0]


def test_one_root_computes_a_repeated_subtree_once(monkeypatch):
    # sin(x*y + y) occurs twice in one tree; it is computed once, from one
    # x*y + y, and the value is the recursion's bit for bit.
    calls = []

    def counted_sin(values):
        calls.append(values.shape)
        return np.sin(values)

    monkeypatch.setitem(expressions._UNARY_FUNCTIONS, "sin", counted_sin)
    e = parse_expression("sin(x*y + y) * ((x + 1)*(y + 2) + sin(x*y + y))")
    x = np.linspace(0.0, 1.0, 1000)
    y = x[::-1].copy()
    assert _bits([e(x, y)]) == _bits([oracle_call(e, x, y)])
    assert calls == [x.shape]


_AXIS = np.linspace(0.0, 1.0, 6)
_PROPERTY_POINTS = {
    "scalar": (0.25, 0.5),
    "1-D": (np.linspace(0.0, 1.0, 7), np.linspace(1.0, 0.0, 7)),
    "meshgrid": _GRID,
    "axis-pair": (_AXIS[None, :], _AXIS[:, None]),
}

# Each form takes up to two earlier texts; unary forms ignore the second.
_FORMS = ("({} + {})", "({} - {})", "({} * {})", "({} / {})", "sin({})", "cos({})",
          "tan({})", "atan({})", "abs({})", "({}) ** 2", "({}) ** 0.5", "-({})")


@st.composite
def shared_texts(draw):
    """Four grammar texts built from one growing pool of subtexts, so that
    they repeat subtrees within and across each other."""
    pool = ["x", "y", "0.0", "(-0.0)", "pi", "e", "2"]
    for _ in range(draw(st.integers(1, 9))):
        form = draw(st.sampled_from(_FORMS))
        pool.append(form.format(draw(st.sampled_from(pool)), draw(st.sampled_from(pool))))
    return [draw(st.sampled_from(pool[7:])) for _ in range(4)]


def _outcome(run):
    """Bits of the values ``run`` returns, inf and nan included; numpy's
    warnings are off, as inside ``evaluate``, for the oracle's arithmetic."""
    with np.errstate(all="ignore"):
        return _bits(run())


@given(shared_texts())
@settings(max_examples=150, deadline=None)
def test_shared_evaluation_matches_the_oracle_bitwise(texts):
    # Zero divisors and overflowing powers fold to inf and nan as they
    # evaluate, so every example is compared.
    roots = [parse_expression(text) for text in texts]
    try:
        roots.append(negative_divergence(*roots))
    except NonDifferentiableError:
        pass
    for x, y in _PROPERTY_POINTS.values():
        singles = [_outcome(lambda: [root(x, y)]) for root in roots]
        assert singles == [_outcome(lambda: [oracle_call(root, x, y)]) for root in roots]
        assert _outcome(lambda: evaluate(roots, x, y)) == [bits for single in singles for bits in single]


def test_constant_tensor_entry_is_a_broadcast_view():
    X, Y = np.meshgrid(np.linspace(0.0, 1.0, 101), np.linspace(0.0, 1.0, 101))
    a, b, c = field_from_expressions("mixed", "2", "x*y", "1 + x").tensor_arrays(X, Y)
    assert a.strides == (0, 0) and np.all(a == 2.0)
    assert all(v.shape == X.shape and not v.flags.writeable for v in (a, b, c))
    assert b.strides != (0, 0) and c.strides != (0, 0)


def _quotient_chain(depth):
    """``1/(1+x)/(1+x)/...`` nested ``depth`` expression nodes deep."""
    return "1/" + "/".join(["(1+x)"] * (depth - 2))


def test_depth_limit_refuses_one_level_more():
    with pytest.raises(ConfigError, match=f"limit of {MAX_DEPTH} \\(depth {MAX_DEPTH + 1}\\)"):
        parse_expression(_quotient_chain(MAX_DEPTH + 1))


def test_manufactured_source_at_the_depth_limit_evaluates_and_prints():
    # Quotient and product chains deepen about 3x through the source, the
    # most of any shape; every entry at the limit still fits the default
    # recursion limit here, with the test runner's frames on the stack.
    chain = _quotient_chain(MAX_DEPTH)
    problem = problem_from_expressions("deep", [chain, chain, chain], exact_u=chain)
    xs = np.linspace(0.1, 0.9, 5)
    assert np.all(np.isfinite(problem.f(xs, xs)))
    assert parse_expression(str(problem.g)) == problem.g
    assert str(problem.f).startswith("(")
