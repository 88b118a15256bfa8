"""The answer ladder: a correctness net that judges every LP a run solves by
its answer and not by its bits, so that a change which moves pivots, sums
in another order or takes another optimal vertex is judged by what it
computes. Byte parity of artifacts with an earlier tree
(``tools/ab_cases.py``) is a report; this is the contract. Test-only:
nothing under ``src/`` or the CLI imports it, and neither has a hook or
an option for it.

Three rungs, each a function that returns the problems it finds (an empty
list passes):

1. Per LP, ``lp_problems``. ``recording`` wraps ``solver.CarriedLp.solve``
   and keeps, for every solve, a copy of its ``LpSolution`` and of the
   standard form it ran on (``A``, ``b``, ``c``, ``lb``, ``ub``): the form
   and not the model, because a branch-and-bound node's bounds live on the
   node. An Optimal LP must reach HiGHS's objective on the same form within
   LP_REL_TOL, relative to max(1, |objective|), and its residuals, as
   ``solver.kkt_report`` defines them, must be at most KKT_TOL. Its row
   slacks must be b - Ax of the recorded form within KKT_TOL, and exactly
   0 where the terminal statuses leave a slack nonbasic. An
   Infeasible or Unbounded verdict must be HiGHS's status too; any other
   status (a time limit) is no verdict and fails. HiGHS runs its interior
   point method with crossover (``highs-ipm``), which meets
   LP_REL_TOL itself; its default dual simplex was found up to 6.3e-6 off
   the optimum on these LPs.
2. Per run, ``run_problems``. A run must end Optimal, and its termination
   must agree with its cut loop's last LP: ``converged`` means that LP's
   largest cone violation is at most ``eps_viol``, ``stalled`` that each
   of the last ``ftol_rounds`` relative objective changes is below
   ``ftol``, ``max_rounds`` that the loop ran ``max_rounds`` LPs. The
   reported objective and prices must be those of the run's last LP (under
   the IP rule, the fixed-binary pricing LP).
3. End to end, ``price_gap``. The warm and cold prices of one N-1 outage
   must agree within PATH_SPREAD. A cut loop that stalls stops at a point
   that depends on its pivot path, so the two runs of one outage need not
   give equal prices, only close ones.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.optimize import linprog

from cppa import algorithm, cuts, netio, solver
from cppa.model import ModelIR, Row, Variable

from conftest import benchmark_module

gen = benchmark_module("gen")

LP_REL_TOL = 1e-9
KKT_TOL = 1e-6
# $/MWh (and $/MVArh). Measured on the tree the ladder was written for,
# over every N-1 outage of the 4-bus CP/CH case (gen.CaseSpec(4, 1), index
# 0): warm and cold prices differed by at most 0.070 on seeds 1-3 and 0.109
# on seeds 1-20. It bounds the cases measured, not every case: one outage
# of gen.CaseSpec(4, 2), seed 4, index 0, differs by 2.6.
PATH_SPREAD = 0.12
HIGHS_STATUS = {solver.INFEASIBLE: 2, solver.UNBOUNDED: 3}  # linprog's status codes


@dataclass
class Lp:
    """One recorded solve: the standard form it ran on, and its answer."""
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    n: int
    sol: solver.LpSolution

    @classmethod
    def of(cls, carry, sol):
        """The record of ``carry``'s form and a solution of it, copied."""
        return cls(carry.A.copy(), carry.b.copy(), carry.c.copy(), carry.lb.copy(),
                   carry.ub.copy(), carry.n, copy.deepcopy(sol))


@contextmanager
def recording():
    """Record every ``solver.CarriedLp.solve`` made inside the block;
    yields the list of ``Lp`` records, in solve order."""
    lps = []
    solve = solver.CarriedLp.solve

    def recorded(carry, deadline=None):
        form = Lp.of(carry, None)  # copied before the solve, as it started
        sol = solve(carry, deadline)
        form.sol = copy.deepcopy(sol)  # solve_milp rounds an incumbent's binaries in place
        lps.append(form)
        return sol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver.CarriedLp, "solve", recorded)
        yield lps


def model_of(lp):
    """A model whose standard form is the record's: its structural
    columns, their bounds, the objective, and one row per form row, whose
    sense is read off its slack's bounds."""
    n = lp.n
    sense_of = {bounds: sense for sense, bounds in solver.SLACK_BOUNDS.items()}
    m = ModelIR()
    m.variables = [Variable(f"x{j}", lo, hi) for j, (lo, hi) in
                   enumerate(zip(lp.lb[:n].tolist(), lp.ub[:n].tolist()))]
    m.objective = {j: float(lp.c[j]) for j in np.flatnonzero(lp.c[:n]).tolist()}
    rows, cols = np.nonzero(lp.A[:, :n])
    starts = np.searchsorted(rows, np.arange(lp.b.size + 1)).tolist()
    cols, values = cols.tolist(), lp.A[rows, cols].tolist()
    for i, (rhs, lo, hi) in enumerate(zip(lp.b.tolist(), lp.lb[n:].tolist(), lp.ub[n:].tolist())):
        row = slice(starts[i], starts[i + 1])
        m.rows.append(Row(f"r{i}", dict(zip(cols[row], values[row])), sense_of[(lo, hi)], rhs))
    return m


def highs(lp):
    """scipy's HiGHS result for the record's form, max c'x s.t. Ax = b,
    lb <= x <= ub."""
    return linprog(-lp.c, A_eq=lp.A, b_eq=lp.b, bounds=np.column_stack([lp.lb, lp.ub]),
                   method="highs-ipm")


def lp_problems(lp):
    """Rung 1: what is wrong with one recorded LP's answer."""
    st, res = lp.sol.status, highs(lp)
    if st in HIGHS_STATUS:
        return [] if res.status == HIGHS_STATUS[st] else [f"{st}; HiGHS: {res.message}"]
    if st != solver.OPTIMAL:
        return [f"no verdict: {st}"]
    if res.status != 0:
        return [f"Optimal; HiGHS: {res.message}"]
    problems = []
    err = abs(lp.sol.objective + res.fun) / max(1.0, abs(res.fun))
    if not err <= LP_REL_TOL:
        problems.append(f"objective off HiGHS's by {err:.3g} (relative)")
    kkt = solver.kkt_report(model_of(lp), lp.sol)
    problems += [f"KKT {name} residual {value:.3g}" for name, value in kkt.items()
                 if not value <= KKT_TOL]
    slacks = lp.sol.slacks
    off = np.abs(slacks - (lp.b - lp.A[:, :lp.n] @ lp.sol.primal)).max(initial=0.0)
    if not off <= KKT_TOL:
        problems.append(f"slacks off b - Ax by {off:.3g}")
    if np.count_nonzero(slacks[lp.sol.basis_status[lp.n:] != solver.BASIC]):
        problems.append("a nonbasic slack is not 0")
    return problems


@dataclass
class Run:
    """One ``run_cppa`` run and every LP it solved, in order."""
    case: object
    config: algorithm.CppaConfig
    result: algorithm.PricingResult
    lps: list


def run(case, config, warm_cuts=None):
    with recording() as lps:
        result = algorithm.run_cppa(case, config, warm_cuts=warm_cuts)
    return Run(case, config, result, lps)


def run_problems(r):
    """Rung 2: where a run's ending disagrees with its LPs."""
    res, cfg = r.result, r.config
    if res.status != algorithm.STATUS_OPTIMAL:
        return [f"run ended {res.status} ({res.termination})"]
    loop, last = r.lps[:res.rounds], r.lps[-1].sol
    model = algorithm.build_welfare(r.case, cfg.network_model)
    problems = []
    if res.termination == "converged":
        worst = cuts.ConeTable(model.cones).violations(loop[-1].sol.primal).max(initial=0.0)
        if not worst <= cfg.eps_viol:
            problems.append(f"converged at a cone violation of {worst:.3g}")
    elif res.termination == "stalled":
        z = [lp.sol.objective for lp in loop]
        changes = [abs(z0 - z1) / max(abs(z0), 1e-9) for z0, z1 in zip(z, z[1:])]
        tail = changes[-cfg.ftol_rounds:]
        if len(tail) < cfg.ftol_rounds or not all(c < cfg.ftol for c in tail):
            problems.append(f"stalled on the relative objective changes {tail}")
    elif res.termination != "max_rounds" or res.rounds != cfg.max_rounds:
        problems.append(f"ended {res.termination!r} after {res.rounds} rounds")
    if res.objective != last.objective:
        problems.append(f"objective {res.objective} is not the last LP's {last.objective}")
    if (res.prices_p, res.prices_q) != algorithm.extract_prices(last, model, r.case.base_mva):
        problems.append("prices are not the last LP's balance-row duals")
    return problems


def outage_runs(case, config, store):
    """(branch id, warm run, cold run) of every N-1 outage of the case; the
    warm run starts from the cut store at ``store``, written by a run of
    the case itself."""
    for bid in gen.n1_outages(case):
        outage = netio.apply_contingency(case, [bid])
        pool, _, _ = cuts.load_cuts(store, outage)
        yield bid, run(outage, config, pool), run(outage, config)


def price_gap(warm, cold):
    """Rung 3: the largest gap between two runs' prices, active and
    reactive, over every bus."""
    gaps = [abs(a[bus] - b[bus]) for a, b in ((warm.prices_p, cold.prices_p),
                                              (warm.prices_q or {}, cold.prices_q or {}))
            for bus in a]
    return max(gaps, default=0.0)
