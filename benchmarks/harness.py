"""Workloads, set-up, the closed measuring loop, correctness checks and
metrics of the market-clearing benchmark. ``run.py`` is the entry point.

Closed loop, one client: each case is handed to ``cppa.cli.main`` in this
process only after the previous one returned. Cases cycle in generation
order; a run prices a fixed number of them, sized from ``--seconds``.
"""

from __future__ import annotations

import gzip
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter

import numpy as np

import gen
import tracing
from cppa import cli, netio, solver

SETUP_REPS = 3

# A typical time of the calibration kernel on the reference host (2-vCPU
# Xeon VM at 2.0 GHz); it only sets the scale. Identical cases on that
# shared host ran up to 50% slower from one minute to the next while the
# process had the CPU to itself. Times are reported in reference seconds:
# wall seconds x CALIB_REF_S / (mean kernel time over the run).
CALIB_REF_S = 0.025


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    rule: str
    ladder: tuple          # CaseSpecs, cycled over the generated cases
    case_s: float          # mean reference seconds per case at this commit
    bases: int = 0         # if set, price every N-1 outage of this many
                           # bases from each base's stored cut pool


WORKLOADS = {w.name: w for w in (
    Workload(
        "cp_ch_cold", "cp", "ch",
        (gen.CaseSpec(4, 1),), 0.7),
    Workload(
        "dc_ip_commit", "dc", "ip", (gen.CaseSpec(12, 4, blocks=4, condensers=False),), 0.5),
    Workload(
        "cp_n1_warm", "cp", "ch", (gen.CaseSpec(4, 2),), 0.3, bases=3),
)}


@dataclass
class Job:
    name: str
    argv: list
    out: Path


@dataclass
class Attempt:
    job: Job
    wall_s: float
    code: object            # exit code, or the exception raised
    report: dict = None
    artifacts: tuple = None  # bytes of prices.csv and allocation.json
    lp: tuple = None         # (model, solution) of the last solve_lp call
    milp: tuple = None       # (model, solution) of the solve_milp call
    problems: list = field(default_factory=list)


_SOLVE = np.linalg.solve  # untraced even while a Tracer swaps the attribute


def calibrate():
    """Seconds for a fixed imitation of dense simplex iterations: solves
    with a 180x180 basis and its transpose, products with a 180x300
    constraint matrix, and a Python pass over the rows like a ratio test."""
    t0 = perf_counter()
    a = np.arange(1.0, 181.0)
    basis = np.add.outer(a, a) ** 0.5 + 180.0 * np.eye(180)
    A = np.add.outer(a, np.arange(1.0, 301.0)) ** 0.3
    best, leave = float("inf"), -1
    for _ in range(25):
        w = _SOLVE(basis, a)
        y = _SOLVE(basis.T, A[:, 0])
        d = A.T @ y
        for i in range(180):
            ratio = w[i] / (d[i] + 1.0)
            if 0.0 < ratio < best:
                best, leave = ratio, i
    return perf_counter() - t0


class Clock:
    """Host-speed factor from calibration samples taken between cases.
    One kernel run is too noisy to correct a single case by, so a factor
    is the mean over a whole phase of the run. The host switches between
    a fast and a slow state, and the mean weighs them as the cases met
    them."""

    def __init__(self):
        self.samples = []
        self.sample()

    def sample(self, wall_s=0.0):
        """One kernel run, or one per half second of ``wall_s``, so that
        the samples weigh the host's speed by time spent."""
        for _ in range(max(1, round(wall_s / 0.5))):
            self.samples.append(calibrate())

    def factor(self, since=0):
        return CALIB_REF_S / statistics.fmean(self.samples[since:])


class Capture:
    """Keeps the last model handed to ``solver.solve_lp`` / ``solve_milp``
    so the oracle can re-solve it after the timed call. The cost is one
    extra Python call per LP, in traced and untraced runs alike."""

    def __init__(self):
        self.lp = self.milp = None
        self._saved = {}

    def _hook(self, name):
        fn = getattr(solver, name)

        def captured(model, *args, **kwargs):
            sol = fn(model, *args, **kwargs)
            setattr(self, name[len("solve_"):], (model, sol))
            return sol
        return captured

    def __enter__(self):
        for name in ("solve_lp", "solve_milp"):
            self._saved[name] = getattr(solver, name)
            setattr(solver, name, self._hook(name))
        return self

    def __exit__(self, *exc):
        for name, fn in self._saved.items():
            setattr(solver, name, fn)
        return False


def _cli(argv):
    """Run the CLI with its per-case status line swallowed."""
    with redirect_stdout(io.StringIO()):
        return cli.main(argv)


def build_jobs(wl, seed, work, count):
    """Generate and write ``count`` cases, or the workload's bases: each
    base is run cold to write its cut store, and its N-1 outages become
    the jobs. Returns (jobs, case shapes)."""
    work.mkdir(parents=True)
    jobs, shapes = [], []
    common = ["--model", wl.model, "--rule", wl.rule]
    for i in range(wl.bases or count):
        spec = wl.ladder[i % len(wl.ladder)]
        case = gen.make_case(spec, seed, i)
        path = work / f"{case.scenario_name}.json"
        netio.save_case(case, path)
        shapes.append(gen.describe(case, wl.model))
        if not wl.bases:
            jobs.append(Job(case.scenario_name,
                            ["--case", str(path), *common], work / "out" / case.scenario_name))
            continue
        store = work / f"{case.scenario_name}.cuts.json"
        code = _cli(["--case", str(path), *common, "--cuts-out", str(store),
                     "--out-dir", str(work / "base" / case.scenario_name)])
        if code != cli.EXIT_OK:
            raise RuntimeError(f"cold base run of {case.scenario_name} exited {code}")
        per_base = []
        for bid in gen.n1_outages(case):
            name = f"{case.scenario_name}_out{bid}"
            outage = work / f"{name}.json"
            outage.write_text(json.dumps([bid]) + "\n")
            per_base.append(Job(name, ["--case", str(path), *common,
                                       "--contingency", str(outage),
                                       "--cuts-in", str(store)],
                                work / "out" / name))
        jobs.append(per_base)
    if wl.bases:
        # interleave the bases so a cut-short window still covers all
        rows = max(len(b) for b in jobs)
        jobs = [b[k] for k in range(rows) for b in jobs if k < len(b)]
    for job in jobs:
        job.argv += ["--out-dir", str(job.out)]
    return jobs, shapes


def setup(wl, seed, work, count, clock):
    """Set up SETUP_REPS times; returns (median wall seconds, jobs, shapes)."""
    walls = []
    for rep in range(SETUP_REPS):
        t0 = perf_counter()
        jobs, shapes = build_jobs(wl, seed, work / f"setup{rep}", count)
        walls.append(perf_counter() - t0)
        clock.sample(walls[-1])
    return statistics.median(walls), jobs, shapes


def _read_outputs(attempt):
    out = attempt.job.out
    try:
        with open(out / "report.json") as fh:
            attempt.report = json.load(fh)
        attempt.artifacts = ((out / "prices.csv").read_bytes(),
                             (out / "allocation.json").read_bytes())
    except OSError as exc:
        attempt.problems.append(f"missing artifact: {exc}")


def measure(jobs, capture, clock, count, cap_s=float("inf"), tracer=None):
    """Run ``count`` jobs in order, cycling, or fewer if the busy wall time
    passes ``cap_s`` first."""
    attempts, busy = [], 0.0
    while len(attempts) < count and busy < cap_s:
        job = jobs[len(attempts) % len(jobs)]
        capture.lp = capture.milp = None
        if tracer is not None:
            tracer.case = len(attempts)
        t0 = perf_counter()
        try:
            code = _cli(job.argv)
        except Exception as exc:  # a crash is a failed case, not a dead run
            code = exc
            traceback.print_exc(file=sys.stderr)
        wall = perf_counter() - t0
        busy += wall
        clock.sample(wall)
        attempt = Attempt(job, wall, code, lp=capture.lp, milp=capture.milp)
        if code != cli.EXIT_OK:
            attempt.problems.append(f"exit {code!r}")
        else:
            _read_outputs(attempt)
        if attempt.report and attempt.report.get("status") != "Optimal":
            attempt.problems.append(f"status {attempt.report.get('status')}")
        attempts.append(attempt)
    return attempts


def check(attempts, capture, clock):
    """Oracle-check the first attempt of each job and compare every later
    attempt's artifacts with it; repeat one case if none repeated. Marks
    failures on the attempts and returns the worst error figures."""
    import oracle  # scipy loads only after the timed cases

    first, worst = {}, {"obj_rel_err": 0.0, "price_abs_err": 0.0, "kkt_gap": 0.0}
    for a in attempts:
        ref = first.setdefault(a.job.name, a)
        if a.problems:
            continue
        if ref is not a:
            if a.artifacts != ref.artifacts:
                a.problems.append("artifacts differ on a repeat")
            continue
        try:
            errors, problems = oracle.check_case(a.job.out, *(a.lp or (None, None)),
                                                 *(a.milp or (None, None)))
        except Exception as exc:  # an oracle crash fails the case
            errors, problems = {}, [f"oracle: {exc!r}"]
        a.problems += problems
        for key, value in errors.items():
            worst[key] = max(worst[key], float(value))
    if len(first) == len(attempts):
        ref = attempts[0]
        with capture:
            again = measure([ref.job], capture, clock, 1)[0]
        if again.problems or again.artifacts != ref.artifacts:
            ref.problems.append("artifacts differ on a repeat")
    for a in attempts:  # a job that failed once fails every attempt
        if first[a.job.name].problems and not a.problems:
            a.problems.append("same case failed its first attempt")
    return worst


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _percentiles(times):
    """Median plus the highest percentile with at least ten samples beyond."""
    qs = statistics.quantiles(times, n=100) if len(times) > 1 else [times[0]] * 99
    parts = [f"p50 {statistics.median(times):.4f} s"]
    for p in (99, 95, 90, 75):
        if len(times) * (100 - p) / 100 >= 10:
            parts.append(f"p{p} {qs[p - 1]:.4f} s")
            break
    return ", ".join(parts) + f" (n={len(times)})"


def end_to_end(attempts, setup_ref_s, factor):
    times = [a.wall_s * factor for a in attempts]
    return {
        "cases_per_min": (60.0 * len(times) / sum(times), "cases/min"),
        "case_s.p50": (statistics.median(times), "s"),
        "setup_s": (setup_ref_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, traced, untraced, worst, overhead):
    calls, total, self_s = tracing.summarize(tracer.spans)
    c = tracer.counts
    n = len(traced)

    def per(x):
        return x / n

    def mean_report(key):
        return per(sum(a.report.get(key) or 0 for a in traced if a.report))

    module_self = {}
    for name, value in self_s.items():
        module = name.split(".")[0]
        module_self[module] = module_self.get(module, 0.0) + value
    m = {
        "solver.simplex_calls": (per(calls["solver.simplex"]), "count"),
        "solver.simplex_s": (per(total["solver.simplex"]), "s"),
        "solver.simplex_iters": (per(c["simplex_iters"]), "count"),
        "solver.ms_per_iter": (1e3 * total["solver.simplex"] / max(c["simplex_iters"], 1), "ms"),
        "solver.linalg_solve_calls": (per(calls["solver.linalg_solve"]), "count"),
        "solver.linalg_solve_s": (per(total["solver.linalg_solve"]), "s"),
        "solver.linalg_solve_gflop_computed": (per(c["linalg_flop"]) / 1e9, "GFLOP"),
        "solver.lp_calls": (per(calls["solver.lp"]), "count"),
        "solver.lp_s": (per(total["solver.lp"]), "s"),
        "solver.lp_rows_max": (c["lp_rows_max"], "count"),
        "solver.lp_cols_max": (c["lp_cols_max"], "count"),
        "solver.milp_calls": (per(calls["solver.milp"]), "count"),
        "solver.milp_s": (per(total["solver.milp"]), "s"),
        "solver.milp_nodes": (per(c["milp_nodes"]), "count"),
        "solver.standard_form_calls": (per(calls["solver.standard_form"]), "count"),
        "solver.standard_form_s": (per(total["solver.standard_form"]), "s"),
        "solver.self_s": (per(module_self.get("solver", 0.0)), "s"),
        "model.copy_calls": (per(calls["model.copy"]), "count"),
        "model.copy_s": (per(total["model.copy"]), "s"),
        "model.build_s": (per(total["model.build"]), "s"),
        "model.self_s": (per(module_self.get("model", 0.0)), "s"),
        "cuts.violation_calls": (per(calls["cuts.violation"]), "count"),
        "cuts.separation_s": (per(total["cuts.violation"] + total["cuts.select"]), "s"),
        "cuts.generated": (per(c["generated"]), "count"),
        "cuts.cutgen_s": (per(total["cuts.cutgen"]), "s"),
        "cuts.admit_calls": (per(calls["cuts.admit"]), "count"),
        "cuts.admitted": (per(c["admitted"]), "count"),
        "cuts.admit_ratio": (c["admitted"] / max(calls["cuts.admit"], 1), "ratio"),
        "cuts.admit_s": (per(total["cuts.admit"]), "s"),
        "cuts.aged_out": (per(c["aged_out"]), "count"),
        "cuts.prune_s": (per(total["cuts.prune"]), "s"),
        "cuts.pool_final": (mean_report("cut_pool_size"), "count"),
        "cuts.io_s": (per(total["cuts.io_load"] + total["cuts.io_save"]), "s"),
        "cuts.warm_loaded": (mean_report("warm_cuts_loaded"), "count"),
        "cuts.warm_dropped": (mean_report("warm_cuts_dropped"), "count"),
        "cuts.self_s": (per(module_self.get("cuts", 0.0)), "s"),
        "algorithm.rounds": (mean_report("rounds"), "count"),
        "algorithm.zero_admit_rounds": (per(sum(
            a.report["cuts_added"].count(0) for a in traced if a.report)), "count"),
        "algorithm.self_s": (per(module_self.get("algorithm", 0.0)), "s"),
        "netio.parse_s": (per(total["netio.parse"]), "s"),
        "netio.contingency_s": (per(total["netio.contingency"]), "s"),
        "netio.self_s": (per(module_self.get("netio", 0.0)), "s"),
        "econ.metrics_s": (per(total["econ.metrics"]), "s"),
        "econ.self_s": (per(module_self.get("econ", 0.0)), "s"),
        "cli.self_s": (per(module_self.get("cli", 0.0)), "s"),
        "check.obj_rel_err_max": (worst["obj_rel_err"], "ratio"),
        "check.price_abs_err_max": (worst["price_abs_err"], "USD/MWh"),
        "check.kkt_gap_max": (worst["kkt_gap"], "ratio"),
        "trace.case_s": (per(total["cli.main"]), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    return m


def run(workload, seed, seconds, traced, root, import_s):
    wl = WORKLOADS[workload]
    work = root / "benchmarks" / "_work" / f"{workload}-s{seed}-p{os.getpid()}"
    out_dir = root / "benchmarks" / "_out"
    clock = Clock()
    # A fixed number of cases per run: whole ladder cycles (or whole passes
    # over the outages) sized to take ``seconds`` on the reference host, so
    # that every run of one seed does the same work. The cap bounds the run
    # if the program gets slower.
    cycle = len(wl.ladder)
    distinct = cycle * max(1, round(seconds / (wl.case_s * cycle)))
    try:
        setup_wall, jobs, shapes = setup(wl, seed, work, distinct, clock)
        count = len(jobs) * max(1, round(seconds / (wl.case_s * len(jobs))))
        with Capture() as capture:
            if not traced:
                attempts = measure(jobs, capture, clock, count, 3.0 * seconds)
                factor = clock.factor()
                metrics = end_to_end(attempts, (import_s + setup_wall) * factor, factor)
            else:
                untraced = measure(jobs, capture, clock, (count + 1) // 2,
                                   1.5 * seconds)
                factor, mark = clock.factor(), len(clock.samples)
                with tracing.Tracer() as tracer:
                    traced_attempts = measure(jobs, capture, clock, len(untraced),
                                              tracer=tracer)
                attempts = untraced + traced_attempts
                overhead = (sum(a.wall_s for a in traced_attempts) * clock.factor(mark)
                            / (sum(a.wall_s for a in untraced) * factor) - 1.0)
        worst = check(attempts, capture, clock)
        if traced:
            metrics = per_layer(tracer, traced_attempts, untraced, worst, overhead)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for a in attempts if a.problems)
    env = environment()
    print(f"workload {workload} seed {seed}, {len(attempts)} cases")
    print(f"env {json.dumps(env, sort_keys=True)}")
    sizes = sorted({(s['buses'], s['branches'], s['vars'], s['rows']) for s in shapes})
    print("case sizes (buses, branches, vars, rows): " + ", ".join(map(str, sizes)))
    walls = [a.wall_s for a in attempts]
    print(f"case wall, raw: {_percentiles(walls)}; "
          f"{60.0 * len(walls) / sum(walls):.4g} cases/min; "
          f"setup {import_s + setup_wall:.4g} s")
    print(f"host speed factor {factor:.4g} (reference seconds per wall second)")
    print(f"fail_ratio {failed / len(attempts):.4f} ratio ({failed} of {len(attempts)} cases)")
    for a in attempts:
        if a.problems:
            print(f"  FAILED {a.job.name}: {'; '.join(a.problems)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")

    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(traced)}"
    record = {"workload": workload, "seed": seed, "seconds": seconds, "env": env,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "import_s": import_s, "setup_wall_s": setup_wall,
              "speed_factor": factor, "calibration_s": clock.samples,
              "cases": [{"name": a.job.name, "wall_s": a.wall_s,
                         "problems": a.problems} for a in attempts]}
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        with gzip.open(out_dir / f"{tag}.spans.json.gz", "wt") as fh:
            json.dump(tracer.spans, fh)

    return {"correct": failed == 0, "attempted": len(attempts), "failed": failed,
            "metrics": {k: {"value": float(v), "unit": u}
                        for k, (v, u) in metrics.items()}}
