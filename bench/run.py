"""Benchmark entry point for siamp.

    python3 bench/run.py --workload fig3-desk --seed 1 --seconds 40 --trace 0

Runs one workload (see workloads.py) for about ``--seconds`` seconds and
prints, as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics named in BENCHMARK.json, ``--trace 1`` the
per-layer ones from a traced run.  The lines before it give each metric
with its unit, the run's details (pass times, quality values, failures,
the sha256 of every emitted CSV) and its environment.

The package is imported from ``src/`` of the checkout that holds this
directory; without it the script exits with status 2 and prints no result.
Emitted files and spans go to ``.bench_out/<workload>/``.  BLAS is pinned
to one thread per process, so the two pool workers of ``fig4-desk-par2``
use no more threads than two cores have.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
BLAS_THREADS = "1"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _command_output(args):
    try:
        done = subprocess.run(args, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _blas_threads():
    """Thread count reported by the OpenBLAS build bundled with numpy."""
    import ctypes
    import glob

    import numpy as np
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                       "numpy.libs", "*openblas*")):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            fn.argtypes = []
            return fn()
    return None


def environment():
    import hashlib

    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    package = os.path.join(SRC, "siamp")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    git_sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git_sha = _command_output(["git", "-C", ROOT, "rev-parse", "HEAD"])
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {var: os.environ.get(var) for var in _THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "l2_bytes": _command_output(["getconf", "LEVEL2_CACHE_SIZE"]),
        "l3_bytes": _command_output(["getconf", "LEVEL3_CACHE_SIZE"]),
        "loadavg_start": os.getloadavg(),
        "note": ("S (2.4 MB at fig3-desk scale, 38.4 MB at paper-fig3 scale) "
                 "is smaller than 4x the last-level cache, so matched-filter "
                 "bytes are computed from array sizes, not measured bandwidth"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "siamp", "__init__.py")):
        print(f"error: siamp sources not found under {SRC}", file=sys.stderr)
        return 2
    # before numpy is first imported, and inherited by every child process
    for var in _THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, SRC)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(available: {', '.join(workloads.WORKLOADS)})")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    env = environment()
    result = workloads.measure(args.workload, args.seed, args.seconds,
                               bool(args.trace),
                               out_dir=os.path.join(OUT, args.workload),
                               src_dir=SRC)
    metrics = {}
    for entry in listed:
        value = result["metrics"][entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        if value is None:
            metrics[entry["name"]]["absent"] = True
        print(f"{entry['name']} = {value} {entry['unit']}")
    for name, digest in result["info"]["csv_sha256"].items():
        print(f"sha256 {name}.csv {digest}")
    print("info " + json.dumps(result["info"]))
    print("environment " + json.dumps(env))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
