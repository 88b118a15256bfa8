"""Command-line scenario runner: parse, build, price, compare, and emit
machine-readable reports and cut stores.

The parser takes its defaults from ``algorithm.CppaConfig`` (the loop's
tuning) and from ``RunSpec`` (the run's own settings). A run's network
model and pricing rule belong to its ``RunSpec``: they override whatever
its ``config`` says, without changing the caller's object.

Every input is read before pricing. The loop settings, ``--voll``,
``--jobs`` and the output paths are checked before any input is read: no
two case files may share a stem, which names a case's output directory in
a multi-case run, and ``--cuts-out`` takes a single case. A run that ends
short of Optimal writes no prices.csv, allocation.json or ``--cuts-out``
store, and removes any that an earlier run left in their place. Exit
codes: 0 Optimal, 2 Infeasible, 3 TimeLimit, 1 on a malformed command line
and on setting, I/O, schema, model or solver errors; a failing case stops
no other. A run in which any case printed ``error:`` exits 1, so that no
infeasible or timed-out case hides an input error; otherwise the highest
code wins. Artifacts are deterministic given identical inputs, except the
wall-time fields in report.json.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from . import algorithm, cuts, econ, model, netio, solver

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_TIME_LIMIT = 3


@dataclass
class RunSpec:
    case_path: str
    network_model: str = "cp"
    pricing_rule: str = "ip"
    config: algorithm.CppaConfig = None
    contingency_path: str = None
    cuts_in: str = None
    cuts_out: str = None
    reference_prices: str = None
    phi_path: str = None
    voll: float = 1000.0
    out_dir: str = "out"
    dump_model: bool = False


def _clean(value):
    """No NaN ever serialized; missing values become explicit nulls."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    return value


def _format_price(price):
    """Nine decimals; a price that rounds to zero is written unsigned, so
    a dual of -1e-13 does not print as -0.000000000."""
    text = f"{price:.9f}"
    return text.lstrip("-") if float(text) == 0.0 else text


def _write_prices_csv(path, case, result):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bus_id", "price_p", "price_q"])
        for bus in case.buses:
            p = result.prices_p.get(bus.id) if result.prices_p else None
            q = result.prices_q.get(bus.id) if result.prices_q else None
            writer.writerow([
                bus.id,
                "" if p is None else _format_price(p),
                "" if q is None else _format_price(q),
            ])


def _read_reference_prices(path, case):
    """Reference active-power prices in case bus order."""
    with open(path, newline="") as fh:
        try:
            ref = {int(r["bus_id"]): float(r["price_p"]) for r in csv.DictReader(fh)}
            return [ref[b.id] for b in case.buses]
        except (KeyError, TypeError, ValueError, csv.Error) as exc:
            raise econ.EconError(f"reference prices {path}: need a numeric bus_id and "
                                 f"price_p for each case bus, failed on {exc!r}") from None


def run_scenario(spec):
    """Run one scenario end to end; returns (exit_code, report dict)."""
    out_dir = Path(spec.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    case = netio.parse_case(spec.case_path, voll=spec.voll)
    if spec.contingency_path:
        outages = netio.read_json(spec.contingency_path, netio.CaseError,
                                  "contingency file")
        case = netio.apply_contingency(case, outages)

    config = replace(
        spec.config or algorithm.CppaConfig(),
        network_model=spec.network_model, pricing_rule=spec.pricing_rule)

    warm = None
    warm_loaded = warm_dropped = None
    if spec.cuts_in:
        warm, warm_loaded, warm_dropped = cuts.load_cuts(spec.cuts_in, case)
    ref = spec.reference_prices and _read_reference_prices(spec.reference_prices, case)
    phi = spec.phi_path and econ.load_allocation(spec.phi_path)
    if phi and ({g.id for g in case.generators} - phi.gens.keys()
                or {l.id for l in case.loads} - phi.loads.keys()):
        raise econ.EconError(f"allocation {spec.phi_path} misses an agent of the case")

    if spec.dump_model and not case.islanded:
        welfare = algorithm.build_welfare(case, spec.network_model)
        (out_dir / "model.lp").write_text(welfare.to_lp_text())

    result = algorithm.run_cppa(case, config, warm_cuts=warm)

    report = {
        "scenario": case.scenario_name,
        "model": spec.network_model,
        "rule": spec.pricing_rule,
        "status": result.status,
        "termination": result.termination,
        "objective": result.objective,
        "rounds": result.rounds,
        "cuts_added": result.cuts_added,
        "cuts_dropped": result.cuts_dropped,
        "cut_pool_size": len(result.pool.cuts) if result.pool else 0,
        "warm_cuts_loaded": warm_loaded,
        "warm_cuts_dropped": warm_dropped,
        "objective_trace": result.objective_trace,
        "lp_iterations": result.lp_iterations,
        "milp_nodes": result.milp_nodes,
        "milp_lp_iterations": result.milp_lp_iterations,
        "pricing_lp_iterations": result.pricing_lp_iterations,
        "delta_vs_reference": None,
        "delta_per_round": None,
        "efficiency": None,
        "timings": {"time_lp_s": result.time_lp, "time_cut_s": result.time_cut},
    }

    if result.status == algorithm.STATUS_OPTIMAL:
        _write_prices_csv(out_dir / "prices.csv", case, result)
        alloc = econ.allocation_from_result(case, result)
        econ.save_allocation(alloc, out_dir / "allocation.json")

        if ref:
            got = [result.prices_p[b.id] for b in case.buses]
            report["delta_vs_reference"] = econ.price_distance(got, ref)
            report["delta_per_round"] = [
                econ.price_distance([trace[b.id] for b in case.buses], ref)
                for trace in result.price_trace]

        report["efficiency"] = asdict(
            econ.efficiency_metrics(case, alloc, phi or alloc, result.prices_p))

        if spec.cuts_out and result.pool is not None:
            cuts.save_cuts(result.pool, spec.cuts_out, case)
    else:  # no earlier run's answers or cut store beside this run's report
        for name in ("prices.csv", "allocation.json"):
            (out_dir / name).unlink(missing_ok=True)
        if spec.cuts_out:
            Path(spec.cuts_out).unlink(missing_ok=True)

    netio.write_json(out_dir / "report.json", _clean(report))

    if result.status == algorithm.STATUS_OPTIMAL:
        code = EXIT_OK
    elif result.status == algorithm.STATUS_TIME_LIMIT:
        code = EXIT_TIME_LIMIT
    else:
        code = EXIT_INFEASIBLE
    return code, report


def _run_case(spec):
    """(exit code, line to print) of one case; its errors stop no other."""
    try:
        code, report = run_scenario(spec)
    except (netio.CaseError, cuts.CutError, econ.EconError, model.ModelError,
            solver.SolverError, OSError) as exc:
        return EXIT_ERROR, f"error: {exc} (case {spec.case_path})"
    return code, f"{report['scenario']}: {report['status']}"


def _check_outputs(case_paths, cuts_out):
    """Raise ValueError where two cases would write to one path: several
    cases with one ``--cuts-out``, or two case files whose output
    directories, named by their stems, are one. A file given twice is run
    twice."""
    if cuts_out and len(case_paths) > 1:
        raise ValueError("--cuts-out takes a single --case")
    first = {}
    for path in case_paths:
        other = first.setdefault(Path(path).stem, path)
        if other is not path and Path(other).resolve() != Path(path).resolve():
            raise ValueError(f"cases {other} and {path} would both write to "
                             f"the output directory {Path(path).stem}")


def build_parser():
    defaults = algorithm.CppaConfig()
    ap = argparse.ArgumentParser(
        prog="cppa",
        description="Cutting-plane pricing for wholesale electricity markets")
    ap.add_argument("--case", action="append", required=True,
                    help="case file (.json schema or MATPOWER .m); repeatable")
    ap.add_argument("--model", choices=["dc", "cp"], default=RunSpec.network_model)
    ap.add_argument("--rule", choices=["ip", "ch"], default=RunSpec.pricing_rule)
    ap.add_argument("--time-limit", type=float, default=defaults.time_limit_s)
    ap.add_argument("--ftol", type=float, default=defaults.ftol)
    ap.add_argument("--ftol-rounds", type=int, default=defaults.ftol_rounds)
    ap.add_argument("--t-age", type=float, default=defaults.t_age)
    ap.add_argument("--eps-viol", type=float, default=defaults.eps_viol)
    ap.add_argument("--eps-par", type=float, default=defaults.eps_par)
    ap.add_argument("--rho", type=float, default=defaults.rho)
    ap.add_argument("--max-rounds", type=int, default=defaults.max_rounds)
    ap.add_argument("--contingency", help="JSON list of branch ids to outage")
    ap.add_argument("--cuts-in", help="warm-start cut store")
    ap.add_argument("--cuts-out", help="write terminal cut store here")
    ap.add_argument("--reference-prices", help="prices.csv to compare against")
    ap.add_argument("--phi", help="AC-feasible adjusted allocation JSON")
    ap.add_argument("--voll", type=float, default=RunSpec.voll,
                    help="value of lost load for synthesized MATPOWER bids")
    ap.add_argument("--out-dir", default=RunSpec.out_dir)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--dump-model", action="store_true")
    ap.add_argument("--seed", type=int, default=None,
                    help="reserved; the pipeline is deterministic")
    return ap


# parse_args leaves a parser as it found it, and --case's append default is
# None, so one parser serves every call
_PARSER = build_parser()


def main(argv=None):
    try:
        args = _PARSER.parse_args(argv)
        config = algorithm.CppaConfig(
            time_limit_s=args.time_limit, ftol=args.ftol, ftol_rounds=args.ftol_rounds,
            t_age=args.t_age, eps_viol=args.eps_viol, eps_par=args.eps_par,
            rho=args.rho, max_rounds=args.max_rounds)
        if not 0 < args.voll < math.inf:
            raise ValueError("voll must be finite and positive")
        if args.jobs < 1:
            raise ValueError("jobs must be >= 1")
        _check_outputs(args.case, args.cuts_out)
    except SystemExit as exc:  # after --help (0), or argparse's usage error line (2)
        return EXIT_ERROR if exc.code else EXIT_OK
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    def spec_for(case_path):
        out_dir = Path(args.out_dir)
        if len(args.case) > 1:
            out_dir = out_dir / Path(case_path).stem
        return RunSpec(
            case_path=case_path,
            network_model=args.model,
            pricing_rule=args.rule,
            config=config,
            contingency_path=args.contingency,
            cuts_in=args.cuts_in,
            cuts_out=args.cuts_out,
            reference_prices=args.reference_prices,
            phi_path=args.phi,
            voll=args.voll,
            out_dir=str(out_dir),
            dump_model=args.dump_model,
        )

    specs = [spec_for(c) for c in args.case]
    parallel = args.jobs > 1 and len(specs) > 1
    if parallel:  # processes, as the GIL serializes threads' small numpy calls
        from concurrent.futures import ProcessPoolExecutor as Pool
    codes = []
    with Pool(min(args.jobs, len(specs))) if parallel else contextlib.nullcontext() as pool:
        for code, line in (pool.map if parallel else map)(_run_case, specs):
            codes.append(code)
            print(line, file=sys.stderr if code == EXIT_ERROR else sys.stdout)
    return EXIT_ERROR if EXIT_ERROR in codes else max(codes)


if __name__ == "__main__":
    sys.exit(main())
