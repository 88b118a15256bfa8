"""Measure the cut loop at larger sizes than the benchmark's: cold CP/CH
runs of generated cases, warm N-1 outages from their cut stores, and with
``--base`` the same runs of another tree and the largest price move.

    OPENBLAS_NUM_THREADS=1 python3 tools/scale.py --buses 24 --seed 1 2 3
    OPENBLAS_NUM_THREADS=1 python3 tools/scale.py --buses 12 --n1 --base ../base

For each size n of ``--buses`` and each seed (default 1) the case is
``gen.make_case(gen.CaseSpec(n, n // 3), seed, 0)``, priced by the CP
model under the CH rule through ``algorithm.run_cppa``. Prints one line
per case and tree: the cold run's rounds, pivots (simplex iterations over
all its LPs) and wall time; with ``--n1``, the count of N-1 outages
(``gen.n1_outages``) and their pivots summed, each outage warm from the
cold run's cut store as ``cppa --cuts-in`` prices it. With ``--base``
(the root of another tree, e.g. a ``git archive`` of the parent commit)
the base tree's package runs each case too, from its own stores, and a
third line gives the largest price move between the trees over the cold
run and every outage, active and reactive, over every bus. Report-only:
it judges nothing, and its times are single runs on whatever host runs
it.
"""

import argparse
import importlib
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def pivots(res):
    """Simplex iterations over every LP of a run."""
    return (sum(res.lp_iterations) + (res.milp_lp_iterations or 0)
            + (res.pricing_lp_iterations or 0))


def measure(pkg, case, n1, work):
    """One tree's figures for a case: {"rounds", "pivots", "seconds",
    "outages", "n1_pivots", "prices"}, the last a list of (prices_p,
    prices_q), the cold run's then each outage's. ``pkg`` maps "algorithm",
    "cuts" and "netio" to that tree's modules and "gen" to the case
    generator; ``work`` is a directory for the cut store."""
    algorithm, cuts, netio = (pkg[k] for k in ("algorithm", "cuts", "netio"))
    config = algorithm.CppaConfig(pricing_rule="ch")
    t0 = perf_counter()
    res = algorithm.run_cppa(case, config)
    out = {"rounds": res.rounds, "pivots": pivots(res), "seconds": perf_counter() - t0,
           "outages": 0, "n1_pivots": 0, "prices": [(res.prices_p, res.prices_q)]}
    if n1:
        store = Path(work) / "base.cuts.json"
        cuts.save_cuts(res.pool, store, case)
        for bid in pkg["gen"].n1_outages(case):
            outage = netio.apply_contingency(case, [bid])
            warm = algorithm.run_cppa(outage, config, warm_cuts=cuts.load_cuts(store, outage)[0])
            out["outages"] += 1
            out["n1_pivots"] += pivots(warm)
            out["prices"].append((warm.prices_p, warm.prices_q))
    return out


def price_move(a, b):
    """The largest |price gap| between two lists of (prices_p, prices_q)."""
    return max((abs(x[bus] - y[bus]) for pa, pb in zip(a, b, strict=True)
                for x, y in zip(pa, pb) if x is not None for bus in x), default=0.0)


def line(label, fig, n1):
    text = (f"{label}: cold {fig['rounds']} rounds, {fig['pivots']} pivots, "
            f"{fig['seconds']:.2f} s")
    if n1:
        text += f"; warm N-1 {fig['outages']} outages, {fig['n1_pivots']} pivots"
    return text


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--buses", type=int, nargs="+", required=True)
    ap.add_argument("--seed", type=int, nargs="+", default=[1])
    ap.add_argument("--n1", action="store_true", help="also price every N-1 outage warm")
    ap.add_argument("--base", help="root of a tree to compare against")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks"), str(ROOT / "tools")]
    import gen
    from ab_cases import load_package

    names = {"change": "cppa"}
    if args.base:
        load_package(Path(args.base) / "src", "cppa_base")
        names["base"] = "cppa_base"
    trees = {side: {k: importlib.import_module(f"{name}.{k}")
                    for k in ("algorithm", "cuts", "netio")} | {"gen": gen}
             for side, name in names.items()}
    for n in args.buses:
        for seed in args.seed:
            case = gen.make_case(gen.CaseSpec(n, n // 3), seed, 0)
            figs = {}
            for side, pkg in trees.items():
                with tempfile.TemporaryDirectory() as work:
                    figs[side] = measure(pkg, case, args.n1, work)
                print(line(f"{n} buses, seed {seed}, {side}", figs[side], args.n1), flush=True)
            if args.base:
                move = price_move(figs["base"]["prices"], figs["change"]["prices"])
                print(f"{n} buses, seed {seed}: largest price move {move:.3g} $/MWh", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
