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


def test_manufactured_tree_off_the_built_in_grammar_is_pinned():
    # / ** tan and atan, which no built-in problem uses, through the symbolic
    # source -div(D grad u).
    problem = problem_from_expressions("custom", ("2 + x**2", "0.3*atan(y)", "1 + y/2"),
                                       exact_u="atan(x*y)/(1 + x**2) + tan(0.5*y)")
    assert digest(problem) == "6cdfde63ec52175fdb6629bc3090c3c1df55bdc3c18a2f1acb33e873c13b0784"
