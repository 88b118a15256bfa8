"""Digest and oracle-check the artifacts of the benchmark's generated cases,
to see which cases a change moves: run it on both sides, then ``diff``.

    python3 tools/artifact_digest.py --seeds 1 2 3 > after.json

For each workload and seed, the cases a ``benchmarks/run.py`` run prices
are generated into a temporary directory by ``harness.build_jobs`` (which
also writes the N-1 bases' cut stores) and run through ``cppa.cli.main``
under ``harness.Capture``. Prints one JSON object. Each case's entry holds
its exit code, its cut rounds, a sha256 each of ``prices.csv``,
``allocation.json`` and ``report.json`` without ``timings``, and the
problems ``oracle.check_case`` finds against HiGHS in the captured pricing
model; each cut store has one sha256. A ``diff`` then shows which cases
moved their prices, which moved only their degenerate allocation or their
report, and which fail the oracle. Both ``harness`` and ``oracle`` are only
read from ``benchmarks/``.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _case_entry(code, out, capture, oracle):
    entry = {"exit": code}
    for name in ("prices.csv", "allocation.json", "report.json"):
        if (out / name).exists():
            data = (out / name).read_bytes()
            if name == "report.json":
                report = json.loads(data)
                report.pop("timings")
                entry["rounds"] = report["rounds"]
                data = json.dumps(report, sort_keys=True).encode()
            entry[name] = hashlib.sha256(data).hexdigest()
    if "report.json" in entry:
        try:
            entry["problems"] = oracle.check_case(
                out, *(capture.lp or (None, None)), *(capture.milp or (None, None)))[1]
        except RuntimeError as exc:  # HiGHS failed on the case's model
            entry["problems"] = [f"oracle: {exc}"]
    return entry


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # as run.py, before numpy loads
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    import harness
    import oracle

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for wl in harness.WORKLOADS.values():
            for seed in args.seeds:
                work, cycle = Path(tmp) / f"{wl.name}-s{seed}", len(wl.ladder)
                count = cycle * max(1, round(seconds / (wl.case_s * cycle)))  # as run.py
                jobs, _ = harness.build_jobs(wl, seed, work, count)
                for store in sorted(work.glob("*.cuts.json")):
                    digests[f"{wl.name} {seed} {store.name}"] = hashlib.sha256(
                        store.read_bytes()).hexdigest()
                for job in jobs:
                    with harness.Capture() as capture:
                        code = harness._cli(job.argv)
                    digests[f"{wl.name} {seed} {job.name}"] = _case_entry(
                        code, job.out, capture, oracle)
    # one line per case or store, so that a diff names each one that moved
    lines = (f" {json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
             for key, value in sorted(digests.items()))
    print("{\n" + ",\n".join(lines) + "\n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
