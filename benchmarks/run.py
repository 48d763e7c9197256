"""Outside-in benchmark of cargosim: one mission at a time, a Monte-Carlo
batch, and the replay of mission logs.

    python3 benchmarks/run.py --workload mission --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a separate traced run.  The line before it carries the run's details
(versions, core count, operation counts, problems found).  Run it from the
repository root; it imports the package from ``src/``.
"""

from __future__ import annotations

import os

# one BLAS thread per process, set before numpy loads: the workloads own
# the cores, and OpenBLAS would otherwise start a second thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("mission", "montecarlo", "log_replay")


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seeds are non-negative")
    return value


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=_nonnegative, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "cargosim" / "__init__.py").is_file():
        print(f"error: no cargosim package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    t0 = perf_counter()
    import numpy
    import workloads
    import_s = perf_counter() - t0

    repeats = 1 if args.trace else workloads.SETUPS
    ctx, setup_times = workloads.setup(args.workload, args.seed, repeats)
    if args.trace:
        out = workloads.run_traced(ctx, args.workload, args.seed)
    else:
        out = workloads.WORKLOADS[args.workload](ctx, args.seed, args.seconds)
        out.metrics = {"setup_s": (import_s + statistics.median(setup_times),
                                   "s"), **out.metrics}

    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": workloads.nproc(), "python": platform.python_version(),
        "numpy": numpy.__version__, "import_s": import_s,
        "setup_runs_s": setup_times, **out.info,
        "failed_operations": out.problems[:20], "errors": out.errors,
    }
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": not out.errors,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out.metrics.items()},
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
