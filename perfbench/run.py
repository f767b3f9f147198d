#!/usr/bin/env python3
"""Benchmark of the monofd prepare -> plan -> assemble -> audit -> solve pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload acceptance-ladder --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
adds one traced setup round and pass and prints the per-layer metrics.  The
last stdout line is one JSON object with the keys correct, attempted, failed
and metrics.  Run records (and, when tracing, the spans) go to
``.perfbench-out/`` under the repository root.  perfbench/reference.json
holds the per-case counts and plan digests traced at the seed commit; traced
runs report differences from them.
"""

import os

# One BLAS/OpenMP thread, set before numpy is imported, so runs are quiet and
# every second is attributable to this process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench-out"
REFERENCE = HERE / "reference.json"


def import_monofd() -> None:
    """Import monofd from this checkout's src/, or exit without a result."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import monofd
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import monofd from {src}: {exc}")
    if not Path(monofd.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: imported monofd from {monofd.__file__}, not from {src}")


def git_commit() -> str:
    """HEAD commit read from .git without starting a process; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "threads": {var: os.environ[var] for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def end_to_end(m) -> dict[str, float]:
    return {
        "setup_s": statistics.median(m.setup_s),
        "time_to_solution_s": m.time_to_solution_s,
        "peak_rss_mb": m.peak_rss_mb,
        # An end-to-end metric must not read 0 (its bound is a share of its
        # median), so failed/attempted, also on the result line, is reported
        # as its complement.
        "success_rate": 1.0 - m.failed / m.attempted,
        "max_error": m.tally.max_error,
        # No table row computed (every table case failed) means no digits.
        "reference_digits": m.tally.digits if math.isfinite(m.tally.digits) else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_monofd()
    import workloads
    from tracing import layer_metrics

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choices: {sorted(workloads.WORKLOADS)}")
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        m = workloads.measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = end_to_end(m)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "env": env,
              "setup_s": m.setup_s, "setup_wall_s": m.setup_wall_s, "pass_s": m.pass_s,
              "pass_wall_s": m.pass_wall_s, "clock_probes": m.probes,
              "clock_median_probe_s": m.median_probe_s, "end_to_end": values}
    wanted = spec["end_to_end"]
    if args.trace:
        pinned = json.loads(REFERENCE.read_text())["cases"]
        layers, rows = layer_metrics(m.tracer, pinned, m.time_to_solution_s, m.traced_pass_s,
                                     m.traced_tally.bytes_written)
        values.update(layers)
        record.update(per_layer=layers, cases=rows)
        wanted = spec["per_layer"]
        m.tracer.save_spans(OUT / f"{args.workload}-seed{args.seed}-spans.npz")
        for row in rows:
            print(f"case {json.dumps(row, sort_keys=True)}")
    attempted, failed, failures = m.attempted, m.failed, m.failures
    record.update(attempted=attempted, failed=failed, failures=failures)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str))

    print(f"workload {args.workload} seed {args.seed}: {len(m.pass_s)} passes {m.pass_s} "
          f"(raw wall {m.pass_wall_s}), setup rounds {m.setup_s} (raw wall {m.setup_wall_s}), "
          f"{m.probes} clock probes, median {m.median_probe_s:.3g} s")
    for line in failures:
        print(f"FAILED {line}")
    print(f"failure_rate = {failed}/{attempted} = {failed / attempted:.6g}")
    metrics = {}
    for entry in wanted:
        value = float(values[entry["name"]])
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"metric {entry['name']} = {value!r} {entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
