#!/usr/bin/env python3
"""Run the full benchmark battery and drop CSV/plan reports under out/studies.

Covers the extrema table (rows labeled 21/51/101, i.e. N = 20/50/100
intervals), matrix audits, the four convergence studies, and the k = 100
anisotropy comparison.  Everything is reproducible from the library API; this
script just sequences it.
"""

import argparse
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from monofd.problems import built_in_problem
from monofd.stencil import stencil_upper_bound
from monofd.verification import (
    convergence_study,
    dmp_table,
    prepare,
    run_case,
    write_convergence_csv,
    write_dmp_csv,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/studies", help="output directory")
    parser.add_argument("--probe-step", type=float, default=1e-3)
    parser.add_argument("--full", action="store_true",
                        help="include the slow rows (N=500/1000 extrema, settled-grid ladders)")
    args = parser.parse_args()
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.time()
    prep1 = prepare(built_in_problem("exam1"), args.probe_step)
    c = prep1.table.constants
    print(f"exam1 constants: alpha_bar={c.alpha_bar:.6g} alpha={c.alpha:.6g} "
          f"radius={c.radius:.4g} bound={stencil_upper_bound(c)}")

    table_rows = [20, 50, 100] + ([500, 1000] if args.full else [])
    rows = dmp_table(prep1, table_rows)
    write_dmp_csv(rows, out / "extrema_exam1.csv")
    for r in rows:
        print(f"  nodes={r.n + 1}: boundary [{r.boundary_min:.6e}, {r.boundary_max:.6f}] "
              f"interior [{r.interior_min:.6e}, {r.interior_max:.6f}] dmp={r.dmp_holds}")

    ladders = {
        "exam2": [21, 41, 81, 161],
        "exam3": [21, 41, 81, 161] + ([281, 321, 401] if args.full else []),
        "exam4": [21, 41, 81, 161],
    }
    for name, ns in ladders.items():
        prep = prepare(built_in_problem(name), args.probe_step)
        rows, slope = convergence_study(prep, ns)
        write_convergence_csv(rows, out / f"convergence_{name}.csv")
        print(f"{name}: slope={slope:.3f} "
              f"errors={[f'{r.max_error:.3e}' for r in rows]}")

    prep10 = prepare(built_in_problem("exam4", k=10), args.probe_step)
    prep100 = prepare(built_in_problem("exam4", k=100), args.probe_step)
    n = 201
    case10 = run_case(prep10, n)
    case100 = run_case(prep100, n)
    X, Y = case10.grid.interior_coords()
    e10 = float(np.abs(case10.solution - prep10.problem.exact_u(X, Y)).max())
    e100 = float(np.abs(case100.solution - prep100.problem.exact_u(X, Y)).max())
    print(f"exam4 anisotropy at N={n}: err(k=10)={e10:.3e} err(k=100)={e100:.3e} "
          f"ratio={e100 / e10:.0f}; k=100 max stencil half-width {case100.plan.max_m}")
    print(f"total {time.time() - t0:.1f}s; reports in {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
