"""Digest and oracle-check the artifacts of the benchmark's generated cases,
to see which cases a change moves: run it on both sides, then compare.

    python3 tools/artifact_digest.py --seeds 1 2 3 > change.json
    python3 tools/artifact_digest.py --compare parent.json change.json

For each workload and seed, the cases a ``benchmarks/run.py`` run prices
are generated into a temporary directory by ``harness.build_jobs`` (which
also writes the N-1 bases' cut stores) and run through ``cppa.cli.main``
under ``harness.Capture``. Prints one JSON object. Each case's entry holds
its exit code, its cut rounds, a sha256 each of ``prices.csv``,
``allocation.json`` and ``report.json`` without ``timings``, the prices
(``[price_p, price_q]`` per bus, null where blank), the allocation (one
list per generator, then per load, of its values in key order, id left
out), and the problems
``oracle.check_case`` finds against HiGHS in the captured pricing model;
each cut store has one sha256. A ``diff`` then shows which cases moved
their prices, which moved only their degenerate allocation or their
report, and which fail the oracle. Both ``harness`` and ``oracle`` are only
read from ``benchmarks/``.

``--compare`` prints the parity summary of a parent's digest and a
change's instead: the cases in both, how many have equal exit codes, equal
rounds and byte-equal ``prices.csv``, ``allocation.json`` and reports, how
many cut stores are byte-equal, the largest price and allocation
differences, and the oracle problems that are new or fixed, by case. It
exits 1 unless the two digests are at parity: the same cases and stores,
and each case with the same exit code, rounds and artifact hashes, and
each store with the same hash.
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
            if name == "prices.csv":
                rows = data.decode().splitlines()[1:]
                entry["prices"] = [[float(v) if v else None for v in row.split(",")[1:]]
                                   for row in rows]
            if name == "allocation.json":
                alloc = json.loads(data)
                entry["allocation"] = [[v for k, v in sorted(agent.items()) if k != "id"]
                                       for key in ("generators", "loads")
                                       for agent in alloc[key]]
    if "report.json" in entry:
        try:
            entry["problems"] = oracle.check_case(
                out, *(capture.lp or (None, None)), *(capture.milp or (None, None)))[1]
        except RuntimeError as exc:  # HiGHS failed on the case's model
            entry["problems"] = [f"oracle: {exc}"]
    return entry


def _gap(a, b, field):
    """The largest difference between two cases' ``field`` values, prices
    or allocation, or None if either lacks them or they cover other rows
    or columns."""
    pa, pb = a.get(field), b.get(field)
    if pa is None or pb is None or len(pa) != len(pb):
        return None
    gaps = [abs(x - y) for ra, rb in zip(pa, pb) for x, y in zip(ra, rb, strict=True)
            if x is not None and y is not None]
    return max(gaps, default=0.0)


PARITY_FIELDS = ("exit", "rounds", "prices.csv", "allocation.json", "report.json")


def at_parity(parent, change):
    """Whether two digests hold the same keys, byte-equal cut stores, and
    cases with equal exit codes, rounds and artifact hashes."""
    return parent.keys() == change.keys() and all(
        parent[k] == change[k] or (
            isinstance(parent[k], dict) and isinstance(change[k], dict) and
            all(parent[k].get(f) == change[k].get(f) for f in PARITY_FIELDS))
        for k in parent)


def compare(parent, change):
    """The parity summary of a change's digest against its parent's, as lines."""
    shared = sorted(parent.keys() & change.keys())
    cases = [k for k in shared if isinstance(parent[k], dict)]
    stores = [k for k in shared if not isinstance(parent[k], dict)]

    def equal(field):
        return f"{sum(parent[k].get(field) == change[k].get(field) for k in cases)} of {len(cases)}"

    lines = [f"cases: {len(cases)} in both, {len(parent.keys() - change.keys())} only in "
             f"the parent, {len(change.keys() - parent.keys())} only in the change",
             f"exit codes equal: {equal('exit')}",
             f"rounds equal: {equal('rounds')}"]
    lines += [f"byte-equal {name}: {equal(name)}"
              for name in ("prices.csv", "allocation.json", "report.json")]
    lines.append(f"byte-equal cut stores: "
                 f"{sum(parent[k] == change[k] for k in stores)} of {len(stores)}")
    for field, what, unit, verb in (("prices", "price", " $/MWh", "priced"),
                                    ("allocation", "allocation", "", "allocated")):
        gaps = [(gap, k) for k in cases
                if (gap := _gap(parent[k], change[k], field)) is not None]
        if gaps:
            gap, key = max(gaps)
            lines.append(f"largest {what} difference: {gap:.3g}{unit} ({key}), "
                         f"over {len(gaps)} cases {verb} on both sides")
        else:
            lines.append(f"largest {what} difference: no case {verb} on both sides")
    for label, clean, flagged in (("new", parent, change), ("fixed", change, parent)):
        moved = [k for k in cases if flagged[k].get("problems") and not clean[k].get("problems")]
        lines.append(f"oracle problems {label}: {len(moved)}")
        lines += [f"  {k}: {'; '.join(flagged[k]['problems'])}" for k in moved]
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seeds", type=int, nargs="+")
    mode.add_argument("--compare", nargs=2, metavar=("PARENT.json", "CHANGE.json"))
    args = ap.parse_args(argv)
    if args.compare:
        parent, change = (json.loads(Path(p).read_text()) for p in args.compare)
        print("\n".join(compare(parent, change)))
        return 0 if at_parity(parent, change) else 1
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
