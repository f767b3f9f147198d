"""The assembled systems, pinned bit for bit.

``system_digests.json`` holds a sha256 of each CSR array (``data``,
``indices``, ``indptr``) and of the right-hand side for exam1 N=20,
exam2, exam3 and exam4 k=10 at N=21, and exam4 k=100 at N=201.  A change
that claims to keep behaviour keeps these digests.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from monofd.assembly import assemble
from monofd.grid import build_grid
from monofd.stencil import plan_grid

PINNED = json.loads((Path(__file__).parent / "system_digests.json").read_text())
PREPARED = {"exam1": "prep_exam1", "exam2": "prep_exam2", "exam3": "prep_exam3",
            "exam4-k10": "prep_exam4", "exam4-k100": "prep_exam4_k100"}


def system_digests(system) -> dict:
    matrix = system.matrix
    arrays = {"data": matrix.data, "indices": matrix.indices, "indptr": matrix.indptr, "rhs": system.rhs}
    return {name: hashlib.sha256(np.ascontiguousarray(v).tobytes()).hexdigest() for name, v in arrays.items()}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_system_matches_pinned_digests(request, case):
    problem, n = case.rsplit("-N", 1)
    prep = request.getfixturevalue(PREPARED[problem])
    system = assemble(prep.problem, plan_grid(build_grid(int(n)), prep.table))
    assert system.matrix.has_canonical_format
    assert system_digests(system) == PINNED[case]
