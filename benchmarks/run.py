"""vmim benchmark: pretrain, finetune and infer workloads.

    python3 benchmarks/run.py --workload pretrain --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` installs the
span tracer and reports per-layer metrics instead. ``--workload all`` runs
each workload in its own process and prints the named metrics of
all three. The last stdout line is one JSON object: correct, attempted,
failed and metrics. ``--record-reference`` rewrites reference.json.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOAD_NAMES = ("pretrain", "finetune", "infer")
# Pinned before numpy loads, at most nproc: one BLAS thread keeps runs
# steady on a shared two-core machine and leaves the workload single-threaded.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    return parser.parse_args(argv)


def _print_report(report: dict) -> None:
    print(f"workload {report['workload']}  trace {report['trace']}  timed calls {report['calls']}")
    for name, m in report["metrics"].items():
        print(f"  {name:24s} {m['value']:14.6g} {m['unit']:5s} n={m['samples']}")
    print("  environment " + json.dumps(report["environment"], sort_keys=True))
    print(f"  reference digest {report['reference_digest']}"
          f" (matches recorded: {report['reference_digest_matches_recorded']})")
    print(f"  outputs digest {report['outputs_digest']}")
    for problem in report["problems"]:
        print(f"  FAILED {problem}")


def _run_all(args) -> int:
    """Each workload in its own process; prints all named metrics."""
    totals = {"correct": True, "attempted": 0, "failed": 0}
    metrics: dict = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        with open(_report_path(name, args), encoding="utf-8") as fh:
            report = json.load(fh)
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        totals["correct"] &= line["correct"]
        totals["attempted"] += line["attempted"]
        totals["failed"] += line["failed"]
        for metric, m in report["metrics"].items():
            if metric in ("setup_s", "peak_rss_mib", "error_rate", "samples_per_s"):
                metric = f"{name}.{metric}"
            metrics[metric] = {"value": m["value"], "unit": m["unit"]}
    print("all workloads")
    for metric, m in metrics.items():
        print(f"  {metric:28s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({**totals, "metrics": metrics}))
    return 0


def _report_path(name: str, args) -> str:
    return os.path.join(ROOT, ".bench_out", "results",
                        f"{name}-seed{args.seed}-trace{args.trace}.json")


def main(argv=None) -> int:
    args = _parse(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    if args.workload == "all" and not args.record_reference:
        return _run_all(args)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "vmim", "__init__.py")):
        print(f"no vmim sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import harness

    if args.record_reference:
        with open(harness.REFERENCE_PATH, "w", encoding="utf-8") as fh:
            json.dump(harness.record_reference(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {harness.REFERENCE_PATH}")
        return 0

    out = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                               import_s=time.perf_counter() - _START)
    os.makedirs(os.path.dirname(_report_path(args.workload, args)), exist_ok=True)
    with open(_report_path(args.workload, args), "w", encoding="utf-8") as fh:
        json.dump({**out["report"], "result": out["result"]}, fh, indent=1)
    _print_report(out["report"])
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
