"""One benchmark run of one workload.

A run sets the workload up several times (inputs, files, and a warm-up
call that is also the reference check), then calls the program in a
closed loop for the requested seconds. With tracing on, the tracer's
wrappers are installed after set-up and removed before the metrics are
taken; end-to-end metrics come from untraced runs only.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import time

import numpy as np
import scipy

import tracer
from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")
BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")

SETUP_REPEATS = 5
# Relative tolerance of reference losses, logits and Dice. Bitwise equality
# holds on one machine; other BLAS builds round differently.
RTOL = 1e-6
# Share of a traced call's time that may fall outside every layer's span.
UNACCOUNTED_LIMIT = 0.02

# Per-layer metrics the harness adds to tracer.LAYER_METRICS.
EXTRA_LAYER_METRICS = {
    "inference.windows": "count",
    "bench.call_s": "s",
    "bench.unaccounted_s": "s",
    "trace.overhead_s": "s",
}


class Tally:
    """Operations attempted and failed; a failure never stops the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            self.problems.append(f"{what}: {problem}")


def digest(outcomes) -> str:
    """Bitwise digest of outputs: floats by their exact hex form."""
    h = hashlib.sha256()
    for o in outcomes:
        for name in sorted(o.outputs):
            value = o.outputs[name]
            text = value if isinstance(value, str) else ",".join(float(x).hex() for x in value)
            h.update(f"{o.key}|{name}|{text}\n".encode("utf-8"))
    return h.hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def compare_reference(outcomes, expected: dict) -> str | None:
    """First difference from the recorded reference beyond RTOL, or None."""
    for o in outcomes:
        if o.error:
            return f"{o.key}: {o.error}"
        want = expected.get(o.key)
        if want is None:
            return f"{o.key}: no recorded reference"
        for name, values in want.items():
            got = o.outputs.get(name)
            if got is None or len(got) != len(values):
                return f"{o.key} {name}: got {got}, recorded {values}"
            for g, e in zip(got, values):
                if not abs(g - e) <= RTOL * abs(e):
                    return f"{o.key} {name}: got {g!r}, recorded {e!r} (rtol {RTOL})"
    return None


def record_reference() -> dict:
    """Run every reference case and return the values reference.json holds."""
    work_dir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    data: dict = {"rtol": RTOL, "digests": {}}
    try:
        for name, cls in WORKLOADS.items():
            outcomes = cls(work_dir).reference()
            for o in outcomes:
                if o.error:
                    raise RuntimeError(f"{name} reference {o.key}: {o.error}")
            data[name] = {
                o.key: {k: v for k, v in o.outputs.items() if not isinstance(v, str)}
                for o in outcomes
            }
            data["digests"][name] = digest(outcomes)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return data


def timed_loop(wl, seconds: float, tally: Tally) -> tuple[list, dict]:
    """Closed loop: the next call starts when the previous one has returned.

    Returns the calls and the digest of each input's first outputs; a later
    call on the same input that gives other outputs counts as failed.
    """
    first_digest: dict[str, str] = {}
    calls = []
    start = time.perf_counter()
    while not calls or time.perf_counter() - start < seconds:
        outcomes = wl.call(len(calls))
        for o in outcomes:
            problem = o.error
            if problem is None:
                d = digest([o])
                if first_digest.setdefault(o.key, d) != d:
                    problem = "outputs differ from an earlier call on the same inputs"
            tally.record(f"call {len(calls)} {o.label}", problem)
        calls.append(outcomes)
    return calls, first_digest


def _blas_threads() -> int | None:
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def _openblas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int, sizes: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_version(),
        "commit": _git_commit(),
        "seed": seed,
        **sizes,
    }


def declared_metrics() -> tuple[dict, dict]:
    """Unit of every end-to-end and per-layer metric BENCHMARK.json declares."""
    with open(BENCHMARK_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def layer_metric_units() -> dict:
    units = {name: unit for name, (_, _, unit) in tracer.LAYER_METRICS.items()}
    units.update(EXTRA_LAYER_METRICS)
    return units


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 reference: dict | None = None, import_s: float = 0.0) -> dict:
    """Run one workload; returns the result line and a report."""
    recorded = load_reference() if reference is None else reference
    work_dir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    wl = WORKLOADS[name](work_dir)
    tally = Tally()
    clock = time.perf_counter
    try:
        setup_times, ref_times = [], []
        for rep in range(SETUP_REPEATS):
            start = clock()
            wl.build(seed)
            ref_start = clock()
            ref = wl.reference()
            end = clock()
            setup_times.append(end - start)
            ref_times.append(end - ref_start)
            tally.record(f"reference check {rep}", compare_reference(ref, recorded[name]))
        ref_digest = digest(ref)

        if trace:
            tr = tracer.Tracer()
            tr.install()
            try:
                start = clock()
                traced_ref = wl.reference()
                traced_ref_s = clock() - start
                tr.clear()
                calls, first_digest = timed_loop(wl, seconds, tally)
            finally:
                tr.restore()
            tally.record("traced outputs equal untraced bitwise",
                         None if digest(traced_ref) == ref_digest else "traced reference outputs differ")
            survivors = tracer.surviving_wrappers()
            tally.record("wrappers removed", f"still wrapped: {survivors}" if survivors else None)
            layer_metrics, problem = _layer_metrics(tr, calls, traced_ref_s - ref_times[-1])
            tally.record("layer self times sum to the call time", problem)
            os.makedirs(os.path.join(OUT_DIR, "traces"), exist_ok=True)
            stem = os.path.join(OUT_DIR, "traces", f"{name}-seed{seed}")
            tr.write(stem + ".spans.tsv", stem + ".layers.tsv", len(calls))
        else:
            calls, first_digest = timed_loop(wl, seconds, tally)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    by_label: dict[str, list] = {}
    for outcomes in calls:
        for o in outcomes:
            by_label.setdefault(o.label, []).append(o)
    report_metrics = {
        "setup_s": (import_s + statistics.median(setup_times), "s", SETUP_REPEATS),
        "samples_per_s": (statistics.median(
            sum(o.crops for o in c) / sum(o.seconds for o in c) for c in calls), "1/s", len(calls)),
    }
    for label, (metric, unit) in wl.metrics.items():
        values = [o.seconds if unit == "s" else o.crops / o.seconds for o in by_label.get(label, [])]
        report_metrics[metric] = (statistics.median(values) if values else math.nan, unit, len(values))
    report_metrics["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB", 1)
    report_metrics["error_rate"] = (tally.failed / tally.attempted, "1", tally.attempted)

    if trace:
        metrics = layer_metrics
    else:
        e2e_units, _ = declared_metrics()
        metrics = {m: _metric(report_metrics[m][0], unit) for m, unit in e2e_units.items()}
    outputs = hashlib.sha256("".join(f"{k}={v}\n" for k, v in sorted(first_digest.items())).encode())
    report = {
        "workload": name,
        "trace": int(trace),
        "calls": len(calls),
        "import_s": import_s,
        "setups_s": setup_times,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in report_metrics.items()},
        "environment": environment(seed, wl.sizes()),
        "reference_digest": ref_digest,
        "reference_digest_matches_recorded": ref_digest == recorded["digests"].get(name),
        "outputs_digest": outputs.hexdigest(),
        "problems": tally.problems,
    }
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    return {"result": result, "report": report}


def _layer_metrics(tr: tracer.Tracer, calls: list, overhead_s: float):
    """Per-layer metrics per timed call, and a problem if the spans do not add up."""
    n = len(calls)
    table = tr.table()
    metrics = {}
    for metric, (span, column, unit) in tracer.LAYER_METRICS.items():
        metrics[metric] = _metric(table.get(span, {}).get(column, 0) / n, unit)
    measured = sum(o.seconds for c in calls for o in c)
    accounted = sum(row["self_s"] for row in table.values())
    unaccounted = measured - accounted
    extra = {"inference.windows": tr.windows() / n, "bench.call_s": measured / n,
             "bench.unaccounted_s": unaccounted / n, "trace.overhead_s": overhead_s}
    metrics.update({m: _metric(v, EXTRA_LAYER_METRICS[m]) for m, v in extra.items()})
    problem = None
    if min((row["self_s"] for row in table.values()), default=0.0) < -1e-9:
        problem = "a span's children outlast it"
    elif not 0.0 <= unaccounted <= UNACCOUNTED_LIMIT * measured:
        problem = f"{unaccounted!r} s of {measured!r} s fall outside every layer"
    return metrics, problem
