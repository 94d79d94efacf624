"""lzsim benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload presets --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # each workload in its own process

With ``--trace 0`` it prints the end-to-end metrics of ``BENCHMARK.json``
(defined in ``bench.py``; times are scaled to a reference machine speed, and
the raw times are printed too); with ``--trace 1`` the per-layer metrics of a
traced run (``layers.py``).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it give each metric by name and unit, the output-check
verdict and the machine.  Per-pass samples, the machine and, when tracing,
every span go to ``.perfbench_work/results/``.

Workloads are described in ``workloads.py``, output checks in ``checks.py``
(references recorded by ``record_refs.py``), and which per-layer metric should
move which end-to-end metric on which workload in ``layer_map.json``.  The
self-tests run with ``python3 -m pytest -q perfbench``.

It builds nothing: it imports lzsim from ``src/`` of the checkout it sits in,
and exits with code 2 when that or ``tests/golden`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent

#: BLAS/OpenMP pools pinned to one thread, set before numpy is imported here
#: and inherited by every child process.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="lzsim benchmark")
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    results = {}
    for name in workloads.NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            argv += ["--seconds", str(args.seconds)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results, sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    for needed in (ROOT / "src" / "lzsim" / "__init__.py", ROOT / "tests" / "golden", spec_path):
        if not needed.exists():
            print(f"error: {needed} not found; run from a full checkout of lzsim",
                  file=sys.stderr)
            return 2
    spec = json.loads(spec_path.read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    os.environ.update(THREAD_ENV)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, spec)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
