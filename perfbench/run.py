#!/usr/bin/env python3
"""hyperflow benchmark: end-to-end and per-layer metrics for one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train_small --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones from a separate traced run.  Every metric is printed by name with its
unit; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
nonzero when an output check fails or the package cannot be found.
``--workload all`` runs each workload in a fresh process.
"""

import os

# BLAS threads are pinned before numpy loads, so one run uses one core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
NAMES = ("train_small", "train_large")


def environment() -> dict:
    import ctypes
    import glob

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                      "numpy.libs", "libscipy_openblas*")):
        get = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            threads = get()
    return {"nproc": os.cpu_count(), "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "openblas_threads": threads, "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def print_result(name: str, result: dict) -> None:
    print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} failed_frac={result['failed'] / max(result['attempted'], 1):.4g}")
    for problem in result.get("problems", []):
        print(f"   CHECK FAILED: {problem}")
    for key, value in result.get("info", {}).items():
        print(f"   {key} = {value}")
    for metric, (value, unit) in result["metrics"].items():
        print(f"   {metric:36s} {value:>14.6g} {unit}")


def run_one(args) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    import workloads
    from layertrace import TraceError

    out = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        result = workloads.run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                               bool(args.trace), out)
    except (workloads.BenchError, TraceError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still be using it
            WORK.rmdir()
    result["info"]["environment"] = environment()
    print_result(args.workload, result)
    if not result["correct"]:
        return 1
    print(json.dumps({
        "correct": True, "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in result["metrics"].items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print("\n".join(lines))
            combined["correct"] = False
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/hyperflow/__init__.py", "tests/reference_model.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}; run from a hyperflow checkout",
              file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
