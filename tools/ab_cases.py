"""Run two trees' ``cppa`` on the benchmark's generated cases in one process,
case by case: time them, and judge the change by its answers.

    git worktree add ../base <parent-commit>
    python3 tools/ab_cases.py --base ../base --seed 1 2 3 --rounds 1

For each workload (default: all) and seed (default: 1), the cases a
``benchmarks/run.py`` run prices in ``BENCHMARK.json``'s ``run_seconds``
(or the first ``--cases``) are written into a temporary directory, once per
side, by ``harness.build_jobs`` of this tree. For the N-1 workload that
also runs the bases to write their cut stores, and each side's bases run
through that side's ``cppa``: so each side prices the outages from its own
stores. ``harness`` and ``oracle`` are only read from ``benchmarks/``.
This tree's package is imported as ``cppa``, the base tree's as
``cppa_base``. Each round runs every case through both ``cli.main``s,
alternating from case to case and from round to round which goes first,
so that a drift of the host's speed falls on both sides alike.

Round 1 runs each case under ``harness.Capture`` bound to the side's own
``solver``, and keeps an entry per case: its exit code, its cut rounds, a
sha256 each of ``prices.csv``, ``allocation.json`` and ``report.json``
without ``timings``, that report itself, the prices (``[price_p,
price_q]`` per bus, null where blank), the allocation (one list per
generator, then per load, of its values in key order, id left out), and
the problems ``oracle.check_case`` finds against HiGHS in the captured
pricing model. Each cut store gets an entry too: its sha256, its
statuses (each cut's, then the stored basis's [name, status] pairs) and
its numbers (each cut's rhs, then its coefficients in the store's role
order). Later rounds only time.

Prints, per workload, one line per round: the change's time over the
base's (the sums over the round's cases), and which side won; then the
median and range of those ratios and the rounds won; then each side's
simplex iterations summed over the workload's cases (``iteration_sums``),
so that equal pivots read off one line. Then the summary of
the entries (``compare``): after the byte counts, one line per top-level
``report.json`` key that differs on any case, with its count of cases and
the first three; the largest price, allocation and cut number
differences, and the count of cut stores with equal cut counts and
statuses; and one line per case whose exit code, rounds or prices
differ, with its largest price gap. Exits 1 if any case's exit code
differs between the sides or an oracle problem is new on the change side
(``verdict``); an exception on either side propagates. Byte differences
are reported, never judged: a change that moves pivots can move bits and
keep its answers.
"""

import argparse
import hashlib
import importlib.util
import io
import json
import os
import statistics
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
ARTIFACTS = ("prices.csv", "allocation.json", "report.json")


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


def run_case(harness, cli, argv):
    """(wall seconds, exit code, capture) of one CLI run, its status line
    swallowed, under ``harness.Capture`` with ``cli``'s own ``solver`` in
    place of the harness's."""
    own, harness.solver = harness.solver, cli.solver
    try:
        with harness.Capture() as capture, redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            code = cli.main(argv)
            return perf_counter() - t0, code, capture
    finally:
        harness.solver = own


def _case_entry(code, out, capture, oracle):
    """One side's entry for a case (module docstring)."""
    entry = {"exit": code}
    for name in ARTIFACTS:
        if (out / name).exists():
            data = (out / name).read_bytes()
            if name == "report.json":
                report = json.loads(data)
                report.pop("timings")
                entry["rounds"], entry["report"] = report["rounds"], report
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


def _store_entry(data):
    """One side's entry for a cut store's bytes (module docstring)."""
    store = json.loads(data)
    return {"store": hashlib.sha256(data).hexdigest(),
            "statuses": [cut.get("status") for cut in store["cuts"]] + store.get("basis", []),
            "cuts": [[cut["rhs"], *(v for _, v in cut["coefficients"])]
                     for cut in store["cuts"]]}


def run_rounds(harness, oracle, clis, cases, rounds, entries):
    """Per round, the summed wall seconds of each side over ``cases``, each
    (key, base job, change job), the side that goes first alternating by
    case and by round. Round 1 records each case's entry on side k in
    ``entries[k][key]``."""
    totals = []
    for r in range(rounds):
        total = [0.0, 0.0]
        for i, (key, *jobs) in enumerate(cases):
            for k in ((0, 1) if (r + i) % 2 == 0 else (1, 0)):
                seconds, code, capture = run_case(harness, clis[k], jobs[k].argv)
                total[k] += seconds
                if r == 0:
                    entries[k][key] = _case_entry(code, jobs[k].out, capture, oracle)
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


def simplex_iterations(report):
    """A report's simplex iterations: its rounds' ``lp_iterations``, its
    ``milp_lp_iterations`` and its ``pricing_lp_iterations``, a null
    counting as 0."""
    counts = [*(report.get("lp_iterations") or ()), report.get("milp_lp_iterations"),
              report.get("pricing_lp_iterations")]
    return sum(count or 0 for count in counts)


def iteration_sums(parent, change, workload):
    """The line that gives each side's simplex iterations, summed over the
    reports of the workload's cases on both sides, and their difference."""
    base, new = (sum(simplex_iterations(side[k].get("report", {}))
                     for k in _cases(parent, change) if k.split()[0] == workload)
                 for side in (parent, change))
    return (f"{workload} simplex iterations: base {base}, change {new} "
            f"({'equal' if base == new else f'{new - base:+d}'})")


def _gap(a, b, field):
    """The largest difference between two entries' ``field`` values,
    prices, allocation or cut numbers, or None if either lacks them or
    they cover other rows or columns."""
    pa, pb = a.get(field), b.get(field)
    if pa is None or pb is None or [len(r) for r in pa] != [len(r) for r in pb]:
        return None
    gaps = [abs(x - y) for ra, rb in zip(pa, pb) for x, y in zip(ra, rb, strict=True)
            if x is not None and y is not None]
    return max(gaps, default=0.0)


def _cases(parent, change, stores=False):
    """The keys on both sides whose entries are cases, or else cut stores,
    whose entries alone hold "store"."""
    return sorted(k for k in parent.keys() & change.keys() if ("store" in parent[k]) == stores)


def _newly_flagged(clean, flagged):
    """The cases with oracle problems in ``flagged`` and none in ``clean``."""
    return [k for k in _cases(clean, flagged)
            if flagged[k].get("problems") and not clean[k].get("problems")]


def compare(parent, change):
    """The summary of a change's entries against its parent's, as lines: the
    cases and stores on both sides, how many agree, the ``report.json``
    keys that differ and on which cases, the largest price, allocation and
    cut number differences, the cut stores with equal cut counts and
    statuses (a cut's status is a scalar, a basis entry a pair, so equal
    statuses hold equal counts), the oracle problems new and fixed, the
    cases flagged on both sides whose prices moved, and one line per case
    whose exit code, rounds or prices differ."""
    cases = _cases(parent, change)
    stores = _cases(parent, change, stores=True)

    def equal(field, keys=cases):
        return f"{sum(parent[k].get(field) == change[k].get(field) for k in keys)} of {len(keys)}"

    lines = [f"cases: {len(cases)} in both, {len(parent.keys() - change.keys())} only in "
             f"the parent, {len(change.keys() - parent.keys())} only in the change",
             f"exit codes equal: {equal('exit')}",
             f"rounds equal: {equal('rounds')}"]
    lines += [f"byte-equal {name}: {equal(name)}" for name in ARTIFACTS]
    lines.append(f"byte-equal cut stores: {equal('store', stores)}")
    reports = [(parent[k].get("report", {}), change[k].get("report", {}), k) for k in cases]
    for key in sorted({key for a, b, _ in reports for key in a.keys() | b.keys()}):
        moved = [k for a, b, k in reports if a.get(key) != b.get(key)]
        if moved:
            lines.append(f"report.json {key} differs: {len(moved)} of {len(cases)} cases, "
                         f"first {', '.join(moved[:3])}")
    for field, what, unit, keys, noun, verb in (
            ("prices", "price", " $/MWh", cases, "case", "priced on both sides"),
            ("allocation", "allocation", "", cases, "case", "allocated on both sides"),
            ("cuts", "cut coefficient or rhs", "", stores, "store", "whose cuts line up")):
        gaps = [(gap, k) for k in keys
                if (gap := _gap(parent[k], change[k], field)) is not None]
        if gaps:
            gap, key = max(gaps)
            lines.append(f"largest {what} difference: {gap:.3g}{unit} ({key}), "
                         f"over {len(gaps)} {noun}s {verb}")
        else:
            lines.append(f"largest {what} difference: no {noun} {verb}")
    lines.append(f"cut stores with equal cut counts and statuses: {equal('statuses', stores)}")
    for label, clean, flagged in (("new", parent, change), ("fixed", change, parent)):
        moved = _newly_flagged(clean, flagged)
        lines.append(f"oracle problems {label}: {len(moved)}")
        lines += [f"  {k}: {'; '.join(flagged[k]['problems'])}" for k in moved]
    # the verdict cannot judge these: the oracle flags the parent's answer too
    lines.append("flagged on both sides, prices moved: " + str(sum(
        bool(parent[k].get("problems") and change[k].get("problems"))
        and parent[k].get("prices") != change[k].get("prices") for k in cases)))
    for k in cases:
        a, b = parent[k], change[k]
        if any(a.get(f) != b.get(f) for f in ("exit", "rounds", "prices")):
            gap = _gap(a, b, "prices")
            lines.append(f"moved {k}: exit {a['exit']} -> {b['exit']}, rounds "
                         f"{a.get('rounds')} -> {b.get('rounds')}, largest price gap "
                         + ("none, not priced on both sides" if gap is None
                            else f"{gap:.3g} $/MWh"))
    return lines


def verdict(parent, change):
    """1 if a case's exit code differs between the two sides' entries or
    an oracle problem is new on the change side, else 0."""
    return int(any(parent[k]["exit"] != change[k]["exit"] for k in _cases(parent, change))
               or bool(_newly_flagged(parent, change)))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="root of the tree to compare against")
    ap.add_argument("--workload", nargs="+", help="default: every workload")
    ap.add_argument("--seed", type=int, nargs="+", default=[1])
    ap.add_argument("--cases", type=int,
                    help="cases per workload and seed; default: as benchmarks/run.py")
    ap.add_argument("--rounds", type=int, default=10)
    args = ap.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # as run.py, before numpy loads
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    import harness
    import oracle

    clis = (load_package(Path(args.base) / "src", "cppa_base"),
            importlib.import_module("cppa.cli"))
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    entries, lines = ({}, {}), []
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.workload or harness.WORKLOADS:
            wl = harness.WORKLOADS[name]
            cycle = len(wl.ladder)
            count = args.cases or cycle * max(1, round(seconds / (wl.case_s * cycle)))  # as run.py
            cases = []
            for seed in args.seed:
                sides = []
                for k, cli in enumerate(clis):
                    work = Path(tmp) / f"{name}-s{seed}-{k}"
                    sides.append(build_jobs(harness, cli, wl, seed, work, count))
                    for store in sorted(work.glob("*.cuts.json")):
                        entries[k][f"{name} {seed} {store.name}"] = _store_entry(
                            store.read_bytes())
                cases += [(f"{name} {seed} {job.name}", job, other)
                          for job, other in zip(*sides, strict=True)]
            lines.append(f"{name} seed {' '.join(map(str, args.seed))}: "
                         f"{len(cases)} cases, {args.rounds} rounds")
            lines += summary(run_rounds(harness, oracle, clis, cases, args.rounds, entries))
            lines.append(iteration_sums(*entries, name))
    print("\n".join(lines + compare(*entries)))
    return verdict(*entries)


if __name__ == "__main__":
    sys.exit(main())
