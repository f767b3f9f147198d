#!/usr/bin/env python3
"""Sweep a problem over a grid ladder and print per-pair observed orders.

Useful for probing pre-asymptotic effects: the max-norm error on problems
whose off-diagonal entry changes sign carries a contribution from the b = 0
crease that settles below the h^2 level only once the mesh resolves the
crease band (around N~280 for exam3).

    python3 scripts/order_sweep.py exam3 --n 21,41,81,161,241,321,401
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from monofd.problems import built_in_problem
from monofd.verification import convergence_study, prepare


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("problem", choices=["exam2", "exam3", "exam4"])
    parser.add_argument("--n", default="21,41,81,161")
    parser.add_argument("--k", type=float, default=None)
    parser.add_argument("--probe-step", type=float, default=1e-3)
    args = parser.parse_args()

    ns = [int(v) for v in args.n.split(",")]
    prep = prepare(built_in_problem(args.problem, k=args.k), args.probe_step)
    rows, slope = convergence_study(prep, ns)
    print(f"{'N':>5} {'h':>10} {'max_error':>12} {'order':>7} {'err*N^2':>9}")
    for r in rows:
        order = "" if r.observed_order is None else f"{r.observed_order:7.2f}"
        print(f"{r.n:5d} {r.h:10.6f} {r.max_error:12.4e} {order:>7} {r.max_error * r.n**2:9.2f}")
    print(f"least-squares slope: {slope:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
