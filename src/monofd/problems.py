"""Built-in benchmark problems and the constructor they share with config files.

exam1 probes the discrete maximum principle (zero source, oscillatory
Dirichlet data); exam2 reuses the exam1 tensor with a manufactured solution;
exam3 is a strictly diagonally dominant tensor where a 3x3 stencil always
suffices; exam4(k) is a rotated diag(k, 1) tensor whose anisotropy grows
with k.
"""

from __future__ import annotations

from .assembly import Problem
from .errors import ConfigError
from .expressions import parse_expression
from .field import field_from_expressions
from .verification import manufactured_problem

__all__ = ["BUILT_IN_PROBLEMS", "built_in_problem", "problem_from_expressions"]

_WAVE = "sin(2*pi*x) * sin(3*pi*y)"

# Each problem: name -> ((a, b, c), f/g/exact_u keywords), all grammar text.
# exam4's tensor is the rotation of diag(k, 1) by the angle {t}, with {k} and
# {k1} standing for k and k - 1.
_PROBLEMS = {
    "exam1": (("9", "4*sin(2*pi*x*y)", "3"), {"f": "0", "g": "cos(pi*x*y) + y"}),
    "exam2": (("9", "4*sin(2*pi*x*y)", "3"), {"exact_u": _WAVE}),
    "exam3": (("1.1", "sin(2*pi*x*y)", "1.1"), {"exact_u": _WAVE}),
    "exam4": (("{k}*cos({t})*cos({t}) + sin({t})*sin({t})", "{k1}*sin({t})*cos({t})",
               "{k}*sin({t})*sin({t}) + cos({t})*cos({t})"), {"exact_u": _WAVE}),
}

BUILT_IN_PROBLEMS = tuple(_PROBLEMS)


def problem_from_expressions(name: str, abc, f=None, g=None, exact_u=None) -> Problem:
    """Problem from grammar text: the tensor entries ``abc`` = (a, b, c) and
    either a source ``f`` with Dirichlet data ``g``, or an ``exact_u`` that
    gives both (the source by symbolic differentiation)."""
    field = field_from_expressions(name, *abc)
    if (f is None) == (exact_u is None):
        raise ConfigError("give exactly one of f or exact_u")
    if exact_u is not None:
        if g is not None:
            raise ConfigError("g is derived from exact_u; do not give both")
        return manufactured_problem(field, exact_u, name=name)
    if g is None:
        raise ConfigError("inline problem with f needs boundary data g")
    return Problem(name=name, field=field, f=parse_expression(f), g=parse_expression(g))


def built_in_problem(name: str, k: float = 10.0) -> Problem:
    """Built-in problem ``name``; exam4 takes the anisotropy ratio k."""
    if name not in _PROBLEMS:
        raise ConfigError(f"unknown problem {name!r}; choices: {BUILT_IN_PROBLEMS}")
    abc, keywords = _PROBLEMS[name]
    k = float(k)
    words = {"k": repr(k), "k1": repr(k - 1.0), "t": "pi*sin(x)*cos(y)"}
    label = f"exam4-k{k:g}" if name == "exam4" else name
    return problem_from_expressions(label, [entry.format(**words) for entry in abc], **keywords)
