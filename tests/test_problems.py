import hashlib

import pytest

from monofd.problems import built_in_problem

# sha256 of str() of a, b, c, f, g and exact_u, one per line, for each
# built-in problem; exam4 at two anisotropy ratios k.
EXPRESSION_DIGESTS = {
    ("exam1", 10.0): "850c16c4831453e58d692fe184ace7ac26b927ea2e29ccf36f8490eed6e8ae29",
    ("exam2", 10.0): "20e36829fa5916f313d4099958de6ae43c9bd305d452bb6e0b57b5fb49e28897",
    ("exam3", 10.0): "325785cd66578fada2b24b529128217fa8d591fffd437fb6da8616e0d530a954",
    ("exam4", 10.0): "4700fbb1aab16076b9247c2bb77fb26977bbbdc8541f655b59656f20c26b9688",
    ("exam4", 100.0): "4a0073d2008fdbe8c7d581c09ed3bcc93121d9134960db63ca33f8dd30f2276d",
}


@pytest.mark.parametrize("name, k", sorted(EXPRESSION_DIGESTS))
def test_built_in_expressions_are_pinned(name, k):
    problem = built_in_problem(name, k=k)
    field = problem.field
    parts = (field.a, field.b, field.c, problem.f, problem.g, problem.exact_u)
    text = "\n".join(str(part) for part in parts)
    assert hashlib.sha256(text.encode()).hexdigest() == EXPRESSION_DIGESTS[(name, k)]
