"""Digest the artifacts of the benchmark's generated cases, to check that a
change leaves them bit-identical: run it on both sides, then ``diff``.

    python3 tools/artifact_digest.py --seeds 1 2 3 > after.json

For each workload and seed, the cases a ``benchmarks/run.py`` run prices
are generated into a temporary directory by ``harness.build_jobs`` (which
also writes the N-1 bases' cut stores) and run through ``cppa.cli.main``.
Prints one JSON object: a sha256 per case of its exit code, ``prices.csv``,
``allocation.json`` and ``report.json`` without ``timings``, and one per
cut store.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _case_digest(code, out):
    h = hashlib.sha256(f"exit {code}\n".encode())
    for name in ("prices.csv", "allocation.json", "report.json"):
        if (out / name).exists():
            data = (out / name).read_bytes()
            if name == "report.json":
                report = json.loads(data)
                report.pop("timings")
                data = json.dumps(report, sort_keys=True).encode()
            h.update(name.encode() + data)
    return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # as run.py, before numpy loads
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    import harness

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
                    digests[f"{wl.name} {seed} {job.name}"] = _case_digest(
                        harness._cli(job.argv), job.out)
    json.dump(digests, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
