"""Seeded market-clearing benchmark for cppa.

    python3 benchmarks/run.py --workload cp_ch_cold --seed 1 --seconds 25 --trace 0

Generates ring-plus-chord market cases from the seed, prices them one at a
time through ``cppa.cli.main`` in this process, checks every case against
scipy's HiGHS, and prints each metric by name and unit. The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer ones with
``--trace 1``). See ``benchmarks/README.md``.

The package is imported from ``src/`` next to this directory; without it
the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from time import perf_counter

# BLAS gets one thread, set before numpy loads: on a 2-vCPU machine the
# default thread pool timed one 6-bus CP/CH case at 2.5-3.6 s against
# 2.4-2.5 s pinned, and the simplex's small dense solves gain nothing
# from threads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOAD_NAMES = ("cp_ch_cold", "dc_ip_commit", "cp_n1_warm")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "cppa" / "__init__.py").is_file():
        print(f"error: no cppa package under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(Path(__file__).resolve().parent)]

    t0 = perf_counter()
    import cppa.cli  # noqa: F401  (numpy and the whole package)
    import_s = perf_counter() - t0
    import harness

    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         root, import_s)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
