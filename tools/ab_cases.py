"""Time two trees' ``cppa`` on one workload's cases in one process, case by
case, and check that they write the same artifacts.

    git worktree add ../base <parent-commit>
    python3 tools/ab_cases.py --base ../base --workload cp_ch_cold --rounds 10

The cases are those ``benchmarks/run.py`` generates for the workload and
seed, written into a temporary directory, once per side, by
``harness.build_jobs`` of this tree. For the N-1 workload that also runs
the bases to write their cut stores, and each side's bases run through
that side's ``cppa``, as the benchmark builds them from its own checkout:
so each side prices the outages from its own stores. ``harness`` is only
read from ``benchmarks/``. This tree's package is imported as ``cppa``,
the base tree's as ``cppa_base``. Each round runs every case through both
``cli.main``s, alternating from case to case and from round to round
which goes first, so that a drift of the host's speed falls on both
sides alike.

Prints one line per round: the change's time per case over the base's
(the sums over the round's cases), and which side won; then the median
and range of those ratios, the rounds won, and how many cases wrote
byte-equal ``prices.csv`` and ``allocation.json`` on the two sides in the
first round. Exits 1 unless every case's artifacts are byte-equal.
"""

import argparse
import importlib.util
import io
import os
import statistics
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
ARTIFACTS = ("prices.csv", "allocation.json")


def load_package(src, name):
    """The ``cppa`` package under ``src`` imported as ``name``: its modules
    import each other relatively, so they become ``name.cli`` and so on."""
    spec = importlib.util.spec_from_file_location(
        name, Path(src) / "cppa" / "__init__.py",
        submodule_search_locations=[str(Path(src) / "cppa")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def time_case(main, argv):
    """Wall seconds of one CLI run, its status line swallowed."""
    with redirect_stdout(io.StringIO()):
        t0 = perf_counter()
        main(argv)
        return perf_counter() - t0


def build_jobs(harness, cli, wl, seed, work, count):
    """The workload's first ``count`` jobs from ``harness.build_jobs``, with
    ``cli`` in place of the harness's own ``cli`` while it builds them: the
    N-1 workload's bases run through ``cli.main``, which writes their cut
    stores."""
    own, harness.cli = harness.cli, cli
    try:
        return harness.build_jobs(wl, seed, work, count)[0][:count]
    finally:
        harness.cli = own


def run_rounds(mains, sides, rounds, out):
    """Per round, the summed wall seconds of each side over every case,
    the side that goes first alternating by case and by round. Side k runs
    its own jobs ``sides[k]``, which name the same cases in the same order,
    and writes case ``job`` to ``out / str(k) / job.name``."""
    totals = []
    for r in range(rounds):
        total = [0.0, 0.0]
        for i, name in enumerate(job.name for job in sides[0]):
            for k in ((0, 1) if (r + i) % 2 == 0 else (1, 0)):
                argv = sides[k][i].argv + ["--out-dir", str(out / str(k) / name)]
                total[k] += time_case(mains[k], argv)
        totals.append(total)
    return totals


def summary(totals):
    """The lines that report the rounds' (base, change) totals."""
    ratios = [change / base for base, change in totals]
    lines = [f"round {r}: change/base {ratio:.4f} ({'change' if ratio < 1.0 else 'base'} won)"
             for r, ratio in enumerate(ratios, start=1)]
    lines.append(f"median change/base {statistics.median(ratios):.4f}, range "
                 f"{min(ratios):.4f}-{max(ratios):.4f}, change won "
                 f"{sum(ratio < 1.0 for ratio in ratios)} of {len(ratios)} rounds")
    return lines


def byte_equal(jobs, out):
    """For each artifact, the number of cases whose two sides' files are
    both present and byte-equal."""
    return {name: sum((out / "0" / job.name / name).is_file() and
                      (out / "0" / job.name / name).read_bytes() ==
                      (out / "1" / job.name / name).read_bytes() for job in jobs)
            for name in ARTIFACTS}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="root of the tree to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--cases", type=int, default=20)
    ap.add_argument("--rounds", type=int, default=10)
    args = ap.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # as run.py, before numpy loads
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    import harness

    clis = (load_package(Path(args.base) / "src", "cppa_base"),
            importlib.import_module("cppa.cli"))
    mains = tuple(cli.main for cli in clis)
    with tempfile.TemporaryDirectory() as tmp:
        sides = [build_jobs(harness, cli, harness.WORKLOADS[args.workload], args.seed,
                            Path(tmp) / f"cases{k}", args.cases) for k, cli in enumerate(clis)]
        jobs = sides[0]
        out = Path(tmp) / "out"
        first = run_rounds(mains, sides, 1, out)
        equal = byte_equal(jobs, out)
        totals = first + run_rounds(mains, sides, args.rounds - 1, Path(tmp) / "again")
    print(f"{args.workload} seed {args.seed}: {len(jobs)} cases, {args.rounds} rounds")
    print("\n".join(summary(totals)))
    print(", ".join(f"byte-equal {name}: {n} of {len(jobs)}" for name, n in equal.items()))
    return 0 if all(n == len(jobs) for n in equal.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
