import hashlib

import pytest

from monofd.problems import built_in_problem, problem_from_expressions

# sha256 of str() of a, b, c, f, g and exact_u, one per line, for each
# built-in problem; exam4 at two anisotropy ratios k.  exam1-exam3 take no k;
# their keys carry exam4's default.
EXPRESSION_DIGESTS = {
    ("exam1", 10.0): "850c16c4831453e58d692fe184ace7ac26b927ea2e29ccf36f8490eed6e8ae29",
    ("exam2", 10.0): "20e36829fa5916f313d4099958de6ae43c9bd305d452bb6e0b57b5fb49e28897",
    ("exam3", 10.0): "325785cd66578fada2b24b529128217fa8d591fffd437fb6da8616e0d530a954",
    ("exam4", 10.0): "4700fbb1aab16076b9247c2bb77fb26977bbbdc8541f655b59656f20c26b9688",
    ("exam4", 100.0): "4a0073d2008fdbe8c7d581c09ed3bcc93121d9134960db63ca33f8dd30f2276d",
}


def digest(problem):
    parts = (problem.field.a, problem.field.b, problem.field.c, problem.f, problem.g, problem.exact_u)
    return hashlib.sha256("\n".join(str(part) for part in parts).encode()).hexdigest()


@pytest.mark.parametrize("name, k", sorted(EXPRESSION_DIGESTS))
def test_built_in_expressions_are_pinned(name, k):
    problem = built_in_problem(name, k=k) if name == "exam4" else built_in_problem(name)
    assert digest(problem) == EXPRESSION_DIGESTS[(name, k)]


# The fold and identity rules of the constructors, each put into a, b, c and
# an exact solution that the source -div(D grad u) differentiates; recorded
# before folding moved to the evaluator's float64 operations.
FOLD_RULE_DIGESTS = {
    "0+x": "f3a6e3c398a0bb09f9aba21694c3cb3cad3fe3c5371dc83aad29349edb44380f",
    "x+0": "f3a6e3c398a0bb09f9aba21694c3cb3cad3fe3c5371dc83aad29349edb44380f",
    "x-0": "f3a6e3c398a0bb09f9aba21694c3cb3cad3fe3c5371dc83aad29349edb44380f",
    "0*x": "70194d876bb9c006fddb2541ae4910b636f50ef8b2a940c762bc84a73f30aa93",
    "x*0": "70194d876bb9c006fddb2541ae4910b636f50ef8b2a940c762bc84a73f30aa93",
    "1*x": "f3a6e3c398a0bb09f9aba21694c3cb3cad3fe3c5371dc83aad29349edb44380f",
    "x*1": "f3a6e3c398a0bb09f9aba21694c3cb3cad3fe3c5371dc83aad29349edb44380f",
    "0/x": "70194d876bb9c006fddb2541ae4910b636f50ef8b2a940c762bc84a73f30aa93",
    "x/1": "f3a6e3c398a0bb09f9aba21694c3cb3cad3fe3c5371dc83aad29349edb44380f",
    "x**1": "f3a6e3c398a0bb09f9aba21694c3cb3cad3fe3c5371dc83aad29349edb44380f",
    "x**0": "220d1dd4eb8cdc96128627dc0f8c761d5b5d4564bcd98361c077a390075bc219",
    "x**0.5": "134bc834bd1ba1e78524511da07f37fda12c08a5cd155543352dcc8ee3a6a1bc",
    "2**3*x": "ece984cb04a7088b3d04de2c7c569c644bc6cfc8e6c2d6378a703c2a0aa4219e",
    "-x": "5522be69c0d2af513062195afc2af06cea0a1f8fe89a5eab81f9c8ea8298847a",
    "-0.0*x": "70194d876bb9c006fddb2541ae4910b636f50ef8b2a940c762bc84a73f30aa93",
    "(1/3)*x": "fe890768ff592e1dd1a5eee7c9b13602c62d46ce2601e5dcfe2e5d325d5f76c9",
}


@pytest.mark.parametrize("entries, exact_u, expected", [
    # / ** tan and atan, which no built-in problem uses, through the symbolic
    # source -div(D grad u).
    (("2 + x**2", "0.3*atan(y)", "1 + y/2"), "atan(x*y)/(1 + x**2) + tan(0.5*y)",
     "6cdfde63ec52175fdb6629bc3090c3c1df55bdc3c18a2f1acb33e873c13b0784"),
    *[((f"2 + {rule}", f"0.3*sin({rule})", f"1 + y*({rule})"), f"({rule})*y + atan({rule})", expected)
      for rule, expected in FOLD_RULE_DIGESTS.items()],
], ids=["off-grammar", *FOLD_RULE_DIGESTS])
def test_manufactured_tree_off_the_built_in_grammar_is_pinned(entries, exact_u, expected):
    assert digest(problem_from_expressions("custom", entries, exact_u=exact_u)) == expected
