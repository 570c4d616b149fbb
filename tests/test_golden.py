"""Golden end-to-end digests: a tiny seeded CLI pipeline must leave the
bytes recorded in ``tests/golden.json``.

The pipeline runs in-process through ``cli.run``: ``synth`` of 3 16^3
volumes; ``pretrain`` with mae, simmim and simclr; ``finetune`` from the MAE
checkpoint with validation; then ``eval``. Every checkpoint, ``trace.tsv``,
``.vol``/``.lab`` payload and ``dice_report.txt`` is digested with SHA-256.
``manifest.json`` holds absolute paths, so it is left out.

When the numpy version, the OpenBLAS configuration and the OpenBLAS core
chosen for this CPU match the recording's
stamp, every digest must match bitwise. Otherwise the test compares float
summaries (each numeric field of the text files, each checkpoint tensor's
sum and norm, each payload's sum and norm) within ``RTOL``/``ATOL`` and
says so in a warning. The stamp leaves out the BLAS thread count, so a
second test runs the same pipeline in a child process at 2 OpenBLAS
threads and checks it against the same file.

A change that alters these bits on purpose re-records the file with

    PYTHONPATH=src python tests/test_golden.py

and lists the changed artifacts in CHANGES.md.
"""

import ctypes
import glob
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np

from vmim import cli
from vmim.checkpoint import load_checkpoint
from vmim.volume import load_labels, load_volume

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
RTOL, ATOL = 1e-6, 1e-9

_SHORT = ["--epochs", "2", "--window", "16", "--set", "train.warmup_epochs=0", "--seed", "1"]


def _openblas_core() -> str:
    """The kernel set that numpy's bundled OpenBLAS picked for this CPU at
    load time: a DYNAMIC_ARCH build's configuration string names only the
    build target, and two cores may round a GEMM differently."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            if hasattr(lib, name):
                corename = getattr(lib, name)
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return "unknown"


def stamp() -> dict:
    """What the bits depend on besides the code: numpy, its BLAS build and
    the BLAS kernels chosen for this CPU."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = blas.get("openblas configuration", blas.get("name", "unknown"))
    except (TypeError, KeyError):  # numpy before mode="dicts"
        openblas = "unknown"
    return {"numpy": np.__version__, "openblas": openblas, "core": _openblas_core()}


def run_pipeline(root: str) -> None:
    data = os.path.join(root, "data")
    argvs = [["synth", "--count", "3", "--shape", "16", "--seed", "1", "--out", data]]
    for method in ("mae", "simmim", "simclr"):
        argvs.append(["pretrain", "--method", method, "--data", data,
                      "--out", os.path.join(root, f"pretrain_{method}"), *_SHORT])
    argvs.append(["finetune", "--checkpoint", os.path.join(root, "pretrain_mae", "checkpoint.vmim"),
                  "--data", data, "--val-data", data, "--out", os.path.join(root, "finetune"),
                  *_SHORT])
    argvs.append(["eval", "--checkpoint", os.path.join(root, "finetune", "checkpoint.vmim"),
                  "--data", data, "--out", os.path.join(root, "eval"), "--seed", "1"])
    for argv in argvs:
        assert cli.run(argv) == 0, argv


def _numbers(path: str) -> list[float]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for field in fh.read().split():
            try:
                out.append(float(field))
            except ValueError:
                continue
    return out


def _sum_norm(a: np.ndarray) -> list[float]:
    a = np.asarray(a, dtype=np.float64)
    return [float(a.sum()), float(np.linalg.norm(a.ravel()))]


def _summary(path: str):
    if path.endswith(".vmim"):
        params, _ = load_checkpoint(path)
        return {name: _sum_norm(t.data) for name, t in sorted(params.items())}
    if path.endswith(".vol"):
        return _sum_norm(load_volume(path).data)
    if path.endswith(".lab"):
        return _sum_norm(load_labels(path).data)
    return _numbers(path)


def artifacts(root: str) -> dict:
    """Digest and float summary of every artifact under ``root`` but the
    manifests and the payload sidecars, keyed by relative path."""
    found = {}
    for directory, _, names in os.walk(root):
        for name in names:
            if not name.endswith((".vmim", ".vol", ".lab", ".tsv", ".txt")):
                continue
            path = os.path.join(directory, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            found[rel] = {"sha256": digest, "summary": _summary(path)}
    return dict(sorted(found.items()))


def record(path: str = GOLDEN) -> None:
    with tempfile.TemporaryDirectory() as root:
        run_pipeline(root)
        golden = {"stamp": stamp(), "artifacts": artifacts(root)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _flat(summary) -> np.ndarray:
    if isinstance(summary, dict):
        return np.array([v for key in sorted(summary) for v in summary[key]], dtype=np.float64)
    return np.array(summary, dtype=np.float64)


def _compare(got: dict, got_stamp: dict) -> None:
    """Check ``got`` (as artifacts() returns it) against golden.json: the
    digests when ``got_stamp`` is the recorded stamp, float summaries
    otherwise."""
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert sorted(got) == sorted(golden["artifacts"])
    if got_stamp == golden["stamp"]:
        changed = [rel for rel, entry in golden["artifacts"].items()
                   if got[rel]["sha256"] != entry["sha256"]]
        assert not changed, f"artifacts whose bytes changed: {changed}"
        return
    warnings.warn(
        f"golden stamp {golden['stamp']} differs from this environment's {got_stamp}: "
        f"compared float summaries within rtol={RTOL}, atol={ATOL}, not digests"
    )
    for rel, entry in golden["artifacts"].items():
        if isinstance(entry["summary"], dict):
            assert sorted(got[rel]["summary"]) == sorted(entry["summary"]), rel
        want, have = _flat(entry["summary"]), _flat(got[rel]["summary"])
        assert want.shape == have.shape, rel
        np.testing.assert_allclose(have, want, rtol=RTOL, atol=ATOL, err_msg=rel)


def test_pipeline_matches_golden_digests(tmp_path):
    run_pipeline(str(tmp_path))
    _compare(artifacts(str(tmp_path)), stamp())


# Runs the pipeline in a child process and prints its stamp and artifacts.
_CHILD = """
import json
import sys

from test_golden import artifacts, run_pipeline, stamp

run_pipeline(sys.argv[1])
print(json.dumps({"stamp": stamp(), "artifacts": artifacts(sys.argv[1])}))
"""


def test_pipeline_matches_golden_digests_at_two_blas_threads(tmp_path):
    # The stamp leaves out the BLAS thread count, so the bits must not
    # depend on it. The child starts at most 2 BLAS threads.
    tests = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.join(os.path.dirname(tests), "src"), tests])
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    done = subprocess.run([sys.executable, "-c", _CHILD, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    child = json.loads(done.stdout.splitlines()[-1])
    _compare(child["artifacts"], child["stamp"])


if __name__ == "__main__":
    record()
    print(f"recorded {GOLDEN}")
