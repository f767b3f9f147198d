"""Closed-form expressions in x and y: parsing, evaluation, differentiation.

Coefficients, sources, and exact solutions are entered in a small arithmetic
grammar: ``+ - * /``, the functions ``sin cos tan atan abs``, numeric
constants (plus ``pi`` and ``e``), and the variables ``x`` and ``y``.
Powers ``u ** c`` with a constant exponent are accepted as a convenience.
The grammar is closed under differentiation except for ``abs``, so
manufactured right-hand sides can be produced symbolically.

Calling an expression on scalars or numpy arrays returns a read-only
float64 array with the broadcast shape of the points; a constant tree
costs no point-sized buffer.  Callers that write into a result copy it.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "Expression",
    "MAX_DEPTH",
    "NonDifferentiableError",
    "parse_expression",
    "negative_divergence",
]


class NonDifferentiableError(ConfigError):
    """Raised when an expression leaves the differentiable grammar subset."""


_UNARY_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "atan": np.arctan,
    "abs": np.abs,
}

_NAMED_CONSTANTS = {"pi": math.pi, "e": math.e}

# Deepest accepted nesting of a parsed expression, counted in expression
# nodes (``x`` is 1, ``sin(x)`` 2).  Building, evaluating and printing a
# tree recurse along its depth, and a manufactured source is about 3 times
# as deep as its exact solution: a quotient chain this deep needs about 730
# of Python's default 1000 frames for that, which leaves room for callers.
# The built-in problems are at most 8 deep.
MAX_DEPTH = 80


class Expression:
    """Immutable expression tree node.

    Subclasses implement ``evaluate`` and ``diff``; trees come from
    ``parse_expression`` and are combined by the folding constructors below.
    """

    def evaluate(self, x, y):
        raise NotImplementedError

    def diff(self, name: str) -> "Expression":
        raise NotImplementedError

    def __call__(self, x, y):
        """The value at the points (x, y): a read-only float64 array of
        their broadcast shape, a broadcast view where the value is shared."""
        values = np.asarray(self.evaluate(x, y), dtype=float)
        return np.broadcast_to(values, np.broadcast_shapes(np.shape(x), np.shape(y)))

    def __repr__(self):
        return f"{type(self).__name__}({self})"


@dataclass(frozen=True, repr=False)
class Const(Expression):
    value: float

    def evaluate(self, x, y):
        return self.value

    def diff(self, name):
        return Const(0.0)

    def __str__(self):
        return repr(self.value)


@dataclass(frozen=True, repr=False)
class Var(Expression):
    name: str

    def evaluate(self, x, y):
        return x if self.name == "x" else y

    def diff(self, name):
        return Const(1.0 if name == self.name else 0.0)

    def __str__(self):
        return self.name


@dataclass(frozen=True, repr=False)
class BinOp(Expression):
    op: str  # one of + - * /
    left: Expression
    right: Expression

    def evaluate(self, x, y):
        a = self.left.evaluate(x, y)
        b = self.right.evaluate(x, y)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        return a / b

    def diff(self, name):
        u, v = self.left, self.right
        du, dv = u.diff(name), v.diff(name)
        if self.op == "+":
            return _add(du, dv)
        if self.op == "-":
            return _sub(du, dv)
        if self.op == "*":
            return _add(_mul(du, v), _mul(u, dv))
        # quotient rule; the grammar stays closed because / is in it
        return _sub(_div(du, v), _div(_mul(u, dv), _mul(v, v)))

    def __str__(self):
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True, repr=False)
class Pow(Expression):
    base: Expression
    exponent: float

    def evaluate(self, x, y):
        return self.base.evaluate(x, y) ** self.exponent

    def diff(self, name):
        du = self.base.diff(name)
        return _mul(_mul(Const(self.exponent), _pow(self.base, self.exponent - 1.0)), du)

    def __str__(self):
        return f"({self.base} ** {self.exponent!r})"


@dataclass(frozen=True, repr=False)
class Func(Expression):
    fname: str
    arg: Expression

    def evaluate(self, x, y):
        return _UNARY_FUNCTIONS[self.fname](self.arg.evaluate(x, y))

    def diff(self, name):
        du = self.arg.diff(name)
        u = self.arg
        if self.fname == "sin":
            outer = Func("cos", u)
        elif self.fname == "cos":
            outer = _mul(Const(-1.0), Func("sin", u))
        elif self.fname == "tan":
            t = Func("tan", u)
            outer = _add(Const(1.0), _mul(t, t))
        elif self.fname == "atan":
            outer = _div(Const(1.0), _add(Const(1.0), _mul(u, u)))
        else:
            raise NonDifferentiableError("abs(...) is not differentiable everywhere")
        return _mul(outer, du)

    def __str__(self):
        return f"{self.fname}({self.arg})"


def _is_const(e: Expression, v=None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


# Smart constructors fold constants so derivative trees stay small.

def _add(u, v):
    if _is_const(u) and _is_const(v):
        return Const(u.value + v.value)
    if _is_const(u, 0.0):
        return v
    if _is_const(v, 0.0):
        return u
    return BinOp("+", u, v)


def _sub(u, v):
    if _is_const(u) and _is_const(v):
        return Const(u.value - v.value)
    if _is_const(v, 0.0):
        return u
    return BinOp("-", u, v)


def _mul(u, v):
    if _is_const(u) and _is_const(v):
        return Const(u.value * v.value)
    if _is_const(u, 0.0) or _is_const(v, 0.0):
        return Const(0.0)
    if _is_const(u, 1.0):
        return v
    if _is_const(v, 1.0):
        return u
    return BinOp("*", u, v)


def _div(u, v):
    if _is_const(u, 0.0):
        return Const(0.0)
    if _is_const(v, 1.0):
        return u
    if _is_const(u) and _is_const(v):
        return Const(u.value / v.value)
    return BinOp("/", u, v)


def _pow(u, exponent: float):
    if exponent == 1.0:
        return u
    if exponent == 0.0:
        return Const(1.0)
    if _is_const(u):
        return Const(u.value**exponent)
    return Pow(u, exponent)


def negative_divergence(a, b, c, u):
    """-div(D grad u) for the tensor D = [[a, b], [b, c]], by symbolic
    differentiation; raises NonDifferentiableError if a tree uses abs."""
    ux, uy = u.diff("x"), u.diff("y")
    flux_x = _add(_mul(a, ux), _mul(b, uy))
    flux_y = _add(_mul(b, ux), _mul(c, uy))
    return _mul(Const(-1.0), _add(flux_x.diff("x"), flux_y.diff("y")))


def parse_expression(text: str) -> Expression:
    """Parse ``text`` into an Expression, rejecting anything off-grammar or
    nested deeper than ``MAX_DEPTH``."""
    too_deep = f"expression {text[:40]!r}... nests deeper than the limit of {MAX_DEPTH}"
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse expression {text!r}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ConfigError(too_deep) from exc
    depth = _depth(tree.body)
    if depth > MAX_DEPTH:
        raise ConfigError(f"{too_deep} (depth {depth})")
    return _convert(tree.body, text)


def _depth(root: ast.expr) -> int:
    """Nesting depth of the expression nodes from ``root`` down, by an
    explicit stack rather than recursion."""
    depth, stack = 0, [(root, 1)]
    while stack:
        node, level = stack.pop()
        depth = max(depth, level)
        stack.extend((child, level + 1) for child in ast.iter_child_nodes(node) if isinstance(child, ast.expr))
    return depth


def _convert(node: ast.AST, text: str) -> Expression:
    if isinstance(node, ast.Constant):
        if isinstance(node.value, (int, float)) and not isinstance(node.value, bool):
            return Const(float(node.value))
        raise ConfigError(f"non-numeric constant in {text!r}")
    if isinstance(node, ast.Name):
        if node.id in ("x", "y"):
            return Var(node.id)
        if node.id in _NAMED_CONSTANTS:
            return Const(_NAMED_CONSTANTS[node.id])
        raise ConfigError(f"unknown name {node.id!r} in {text!r}")
    if isinstance(node, ast.UnaryOp):
        operand = _convert(node.operand, text)
        if isinstance(node.op, ast.USub):
            return _mul(Const(-1.0), operand)
        if isinstance(node.op, ast.UAdd):
            return operand
        raise ConfigError(f"unsupported unary operator in {text!r}")
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Pow):
            exponent = _convert(node.right, text)
            if not isinstance(exponent, Const):
                raise ConfigError(f"exponent must be a constant in {text!r}")
            return _pow(_convert(node.left, text), exponent.value)
        ops = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
        for klass, symbol in ops.items():
            if isinstance(node.op, klass):
                left = _convert(node.left, text)
                right = _convert(node.right, text)
                return {"+": _add, "-": _sub, "*": _mul, "/": _div}[symbol](left, right)
        raise ConfigError(f"unsupported operator in {text!r}")
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _UNARY_FUNCTIONS:
            raise ConfigError(f"unsupported function call in {text!r}")
        if len(node.args) != 1 or node.keywords:
            raise ConfigError(f"{node.func.id} takes exactly one argument in {text!r}")
        return Func(node.func.id, _convert(node.args[0], text))
    raise ConfigError(f"unsupported syntax in expression {text!r}")
