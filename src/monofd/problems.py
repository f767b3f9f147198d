"""Built-in benchmark problems, the constructor they share with config files,
and manufactured problems (the source derived from an exact solution).

exam1 probes the discrete maximum principle (zero source, oscillatory
Dirichlet data); exam2 reuses the exam1 tensor with a manufactured solution;
exam3 is a strictly diagonally dominant tensor where a 3x3 stencil always
suffices; exam4(k) is a rotated diag(k, 1) tensor whose anisotropy grows
with k.
"""

from __future__ import annotations

from .assembly import Problem
from .errors import ConfigError
from .expressions import negative_divergence, parse_expression
from .field import DiffusionField, field_from_expressions

__all__ = ["BUILT_IN_PROBLEMS", "built_in_problem", "manufactured_problem", "problem_from_expressions"]

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


def manufactured_problem(field: DiffusionField, exact_u: str, name: str | None = None) -> Problem:
    """Problem whose solution is the grammar text ``exact_u``: the source is
    -div(D grad u) by symbolic differentiation, so ``exact_u`` must stay
    inside the differentiable grammar subset (no abs), and g is u."""
    u = parse_expression(exact_u)
    f = negative_divergence(field.a, field.b, field.c, u)
    return Problem(name=name or f"manufactured-{field.name}", field=field, f=f, g=u, exact_u=u)


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


def built_in_problem(name: str, k: float | None = None) -> Problem:
    """Built-in problem ``name``; only exam4 takes the anisotropy ratio k,
    10 when None."""
    if name not in _PROBLEMS:
        raise ConfigError(f"unknown problem {name!r}; choices: {BUILT_IN_PROBLEMS}")
    if k is not None and name != "exam4":
        raise ConfigError(f"problem {name!r} takes no k; only exam4 does")
    abc, keywords = _PROBLEMS[name]
    k = 10.0 if k is None else float(k)
    words = {"k": repr(k), "k1": repr(k - 1.0), "t": "pi*sin(x)*cos(y)"}
    label = f"exam4-k{k:g}" if name == "exam4" else name
    return problem_from_expressions(label, [entry.format(**words) for entry in abc], **keywords)
