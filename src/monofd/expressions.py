"""Closed-form expressions in x and y: parsing, evaluation, differentiation.

Coefficients, sources, and exact solutions are entered in a small arithmetic
grammar: ``+ - * /``, the functions ``sin cos tan atan abs``, numeric
constants (plus ``pi`` and ``e``), and the variables ``x`` and ``y``.
Powers ``u ** c`` with a constant exponent are accepted as a convenience.
The grammar is closed under differentiation except for ``abs``, so
manufactured right-hand sides can be produced symbolically.

Folding constants and evaluating share one arithmetic, the float64
operations of ``_BINARY_OPERATORS``, for scalar points too: ``1/0`` folds
to inf and ``(-1)**0.5`` to nan, as they evaluate.  Calling an expression
on scalars or numpy arrays returns a read-only float64 array with the
broadcast shape of the points; a constant tree costs no point-sized
buffer.  Callers that write into a result copy it.  ``evaluate`` does the
same for one tree or several at once, by a loop rather than a recursion,
and computes each distinct subtree of theirs once.
"""

from __future__ import annotations

import ast
import collections
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "Expression",
    "MAX_DEPTH",
    "evaluate",
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

_BINARY_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
                     "**": operator.pow}

_NAMED_CONSTANTS = {"pi": math.pi, "e": math.e}

# Deepest accepted nesting of a parsed expression, counted in expression
# nodes (``x`` is 1, ``sin(x)`` 2).  Building (parsing, ``diff``) and
# printing a tree recurse along its depth; evaluating it does not.  A
# manufactured source is about 3 times as deep as its exact solution: a
# quotient chain this deep needs about 730 of Python's default 1000 frames
# to build and print that, which leaves room for callers.  The built-in
# problems are at most 8 deep.
MAX_DEPTH = 80


class Expression:
    """Immutable expression tree node.

    Subclasses implement ``diff``; trees come from ``parse_expression`` and
    are combined by the folding constructors below.
    """

    def diff(self, name: str) -> "Expression":
        raise NotImplementedError

    def __call__(self, x, y):
        """The value at the points (x, y): a read-only float64 array of
        their broadcast shape, a broadcast view where the value is shared."""
        return evaluate((self,), x, y)[0]

    def __repr__(self):
        return f"{type(self).__name__}({self})"


@dataclass(frozen=True, repr=False)
class Const(Expression):
    value: float

    def diff(self, name):
        return Const(0.0)

    def __str__(self):
        return repr(self.value)


@dataclass(frozen=True, repr=False)
class Var(Expression):
    name: str

    def diff(self, name):
        return Const(1.0 if name == self.name else 0.0)

    def __str__(self):
        return self.name


@dataclass(frozen=True, repr=False)
class BinOp(Expression):
    op: str  # one of + - * / **; the exponent of ** is a Const
    left: Expression
    right: Expression

    def diff(self, name):
        u, v = self.left, self.right
        du, dv = u.diff(name), v.diff(name)
        if self.op == "+":
            return _add(du, dv)
        if self.op == "-":
            return _sub(du, dv)
        if self.op == "*":
            return _add(_mul(du, v), _mul(u, dv))
        if self.op == "/":  # quotient rule; the grammar stays closed because / is in it
            return _sub(_div(du, v), _div(_mul(u, dv), _mul(v, v)))
        return _mul(_mul(v, _pow(u, _sub(v, Const(1.0)))), du)  # power rule, v constant

    def __str__(self):
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True, repr=False)
class Func(Expression):
    fname: str
    arg: Expression

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


def evaluate(roots, x, y) -> tuple:
    """Each tree of ``roots`` at the points (x, y), as ``Expression.__call__``
    returns it, by a loop over a post-order program rather than a recursion.
    Equal subtrees, within one root or across several, are merged and
    computed once; a value is dropped after its last reader.  Each step
    applies a recursive visit's operation to the same operands: the values
    are bit-identical.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    order, stack = [], list(roots)
    while stack:  # each node before its operands, the right one first
        order.append(_split(stack.pop()))
        stack += order[-1][1]
    slots, steps, done = {"x": 0, "y": 1}, [], []  # merge key -> slot; a stack of operand slots
    for fn, operands, key in reversed(order):
        args = tuple(done[len(done) - len(operands):])
        del done[len(done) - len(operands):]
        key = (fn, *args) if key is None else key
        if key not in slots:
            slots[key] = len(slots)
            steps.append((fn, args))
        done.append(slots[key])
    readers = collections.Counter(i for _, args in steps for i in args) + collections.Counter(done)
    values = [x, y]
    with np.errstate(all="ignore"):  # as in _fold; the field check and the audit report non-finite values
        for fn, args in steps:
            values.append(fn(*[values[i] for i in args]))
            for i in args:
                readers[i] -= 1
                if not readers[i]:
                    values[i] = None
    shape = np.broadcast_shapes(x.shape, y.shape)
    return tuple(np.broadcast_to(values[i], shape) for i in done)


def _split(node):
    """A node's function and operands, and the merge key of a leaf: x and y
    by name, constants by bits, so -0.0 and 0.0, equal under ==, stay apart."""
    if isinstance(node, BinOp):
        return _BINARY_OPERATORS[node.op], (node.left, node.right), None
    if isinstance(node, Func):
        return _UNARY_FUNCTIONS[node.fname], (node.arg,), None
    if isinstance(node, Var):
        return None, (), node.name
    return (lambda value=node.value: value), (), np.array(node.value).tobytes()


def _is_const(e: Expression, v=None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


# Smart constructors keep derivative trees small; + - * / fold two constants first.

def _fold(op, u, v):
    """``BinOp(op, u, v)``, or the Const the evaluator's float64 ``op`` gives two constants."""
    if not (_is_const(u) and _is_const(v)):
        return BinOp(op, u, v)
    with np.errstate(all="ignore"):
        return Const(float(_BINARY_OPERATORS[op](np.float64(u.value), np.float64(v.value))))


def _add(u, v):
    if _is_const(u) != _is_const(v) and (_is_const(u, 0.0) or _is_const(v, 0.0)):  # one constant operand
        return v if _is_const(u) else u
    return _fold("+", u, v)


def _sub(u, v):
    if _is_const(v, 0.0) and not _is_const(u):
        return u
    return _fold("-", u, v)


def _mul(u, v):
    if _is_const(u) != _is_const(v):  # one constant operand: its 0 and 1 rules
        if _is_const(u, 0.0) or _is_const(v, 0.0):
            return Const(0.0)
        if _is_const(u, 1.0) or _is_const(v, 1.0):
            return v if _is_const(u) else u
    return _fold("*", u, v)


def _div(u, v):
    if _is_const(u) != _is_const(v):  # one constant operand: 0/v and u/1
        if _is_const(u, 0.0):
            return Const(0.0)
        if _is_const(v, 1.0):
            return u
    return _fold("/", u, v)


def _pow(u, v):
    if _is_const(v, 1.0):
        return u
    if _is_const(v, 0.0):
        return Const(1.0)
    return _fold("**", u, v)


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
            return Const(float(str(node.value)))  # rounded from its digits: 10**400 written out is inf
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
        build = {ast.Add: _add, ast.Sub: _sub, ast.Mult: _mul, ast.Div: _div, ast.Pow: _pow}.get(type(node.op))
        if build is None:
            raise ConfigError(f"unsupported operator in {text!r}")
        left, right = _convert(node.left, text), _convert(node.right, text)
        if build is _pow and not isinstance(right, Const):
            raise ConfigError(f"exponent must be a constant in {text!r}")
        return build(left, right)
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _UNARY_FUNCTIONS:
            raise ConfigError(f"unsupported function call in {text!r}")
        if len(node.args) != 1 or node.keywords:
            raise ConfigError(f"{node.func.id} takes exactly one argument in {text!r}")
        return Func(node.func.id, _convert(node.args[0], text))
    raise ConfigError(f"unsupported syntax in expression {text!r}")
