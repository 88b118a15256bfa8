"""The cutting-plane pricing loop: solve, separate, manage cuts, then
apply the IP or CH pricing rule and extract nodal prices.

``build_welfare`` is the one place that picks the CP or DC welfare model.
The loop solves each round's model as an LP, which relaxes its binaries
(the LP layer ignores binary flags); cuts are pure cone geometry and
independent of commitments, so under the IP rule a single MILP is solved
once the relaxation has converged, the binaries are fixed at their
welfare-maximizing values, and the final LP duals are the prices.

Only the first round's LP starts cold, and not even that one when the
warm pool carries the basis its writer ended on (a cut store written by
``--cuts-out``): the stored statuses are mapped by name onto this run's
model and repaired to a basis (``solver.repair_basis``). Each later round
starts from the previous round's terminal basis, the MILP root from the
last round's, each branch-and-bound node from its parent's, and the
fixed-binary pricing LP from the incumbent node's. The run ends by leaving
its last round's statuses on the pool for the next run. Every LP and the
MILP run under the same wall-clock deadline as the loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import cuts as cutmod
from . import model as modelmod
from . import solver

RULE_IP = "ip"
RULE_CH = "ch"

MODEL_CP = "cp"
MODEL_DC = "dc"

STATUS_OPTIMAL = "Optimal"
STATUS_INFEASIBLE = "Infeasible"
STATUS_TIME_LIMIT = "TimeLimit"


@dataclass
class CppaConfig:
    time_limit_s: float = 300.0
    ftol_rounds: int = 3
    ftol: float = 1e-5
    t_age: float = cutmod.T_AGE
    eps_viol: float = cutmod.EPS_VIOL
    eps_par: float = cutmod.EPS_PAR
    rho: float = 1.0
    k_max: int = None
    pricing_rule: str = RULE_CH
    milp_gap: float = 1e-6
    network_model: str = MODEL_CP
    max_rounds: int = None

    def __post_init__(self):
        if self.time_limit_s <= 0:
            raise ValueError("time limit must be positive")
        if self.ftol_rounds < 1:
            raise ValueError("ftol_rounds must be >= 1")
        if self.ftol <= 0:
            raise ValueError("ftol must be positive")
        if self.pricing_rule not in (RULE_IP, RULE_CH):
            raise ValueError(f"unknown pricing rule {self.pricing_rule!r}")
        if self.network_model not in (MODEL_CP, MODEL_DC):
            raise ValueError(f"unknown network model {self.network_model!r}")


@dataclass
class PricingResult:
    status: str
    prices_p: dict = None          # bus id -> $/MWh
    prices_q: dict = None          # bus id -> $/MVArh (None for DC)
    allocation: dict = None        # raw primal values keyed by variable name
    commitments: dict = None       # gen id -> {on, su, sd}
    objective: float = None
    objective_trace: list = field(default_factory=list)
    price_trace: list = field(default_factory=list)  # per-round prices_p
    rounds: int = 0
    lp_iterations: list = field(default_factory=list)  # simplex iterations per round
    milp_nodes: int = None             # IP rule only, as are the next two
    milp_lp_iterations: int = None     # summed over all nodes, root included
    pricing_lp_iterations: int = None  # the fixed-binary pricing LP
    cuts_added: list = field(default_factory=list)   # per round
    cuts_dropped: list = field(default_factory=list)
    pool: cutmod.CutPool = None
    time_lp: float = 0.0
    time_cut: float = 0.0
    termination: str = ""


def extract_prices(solution, model, base_mva):
    """Nodal prices from balance-row duals, rescaled to $/MWh ($/MVArh)."""
    prices_p = {}
    for bus_id, row in sorted(model.bus_p_row.items()):
        prices_p[bus_id] = float(solution.duals[row]) / base_mva
    if not model.bus_q_row:
        return prices_p, None
    prices_q = {}
    for bus_id, row in sorted(model.bus_q_row.items()):
        prices_q[bus_id] = float(solution.duals[row]) / base_mva
    return prices_p, prices_q


def _allocation_from(model, primal):
    return {v.name: float(primal[j]) for j, v in enumerate(model.variables)}


def _commitments_from(model, primal):
    out = {}
    for gid, roles in sorted(model.gen_vars.items()):
        out[gid] = {
            "on": float(primal[roles["on"]]),
            "su": float(primal[roles["su"]]),
            "sd": float(primal[roles["sd"]]),
        }
    return out


def build_welfare(case, network_model):
    """The welfare model of the case under the CP or DC network model."""
    if network_model == MODEL_DC:
        return modelmod.build_dc_welfare(case)
    return modelmod.build_cp_welfare(case)


def _with_cut_rows(base_model, pool):
    m = base_model.copy()
    for cut in pool.cuts:
        m.rows.append(cut.to_row(m))
    return m


def _carry_basis(statuses, n_base, solved_cuts, cuts):
    """Terminal statuses of one round's LP, mapped onto the next round's
    standard form: structural columns and base-row slacks as they were,
    surviving cuts' slacks by cut identity, new cuts' slacks basic. A new
    cut's slack is negative where it cuts off the last point; phase 1
    repairs that."""
    slack = {id(cut): st for cut, st in zip(solved_cuts, statuses[n_base:])}
    tail = [slack.get(id(cut), solver.BASIC) for cut in cuts]
    return np.concatenate([statuses[:n_base], np.array(tail, dtype=statuses.dtype)])


def _timed_out(result):
    result.status = STATUS_TIME_LIMIT
    result.termination = "time_limit"
    return result


def _stored_basis(model, n_base_rows, pool):
    """Candidate statuses over the model's standard form from the basis
    the pool carries: columns and base rows by name, cut slacks from their
    cuts. What the pool lacks starts as it would cold: a column at a
    bound, a slack basic."""
    cols = [pool.basis.get(v.name, solver.AT_LOWER) for v in model.variables]
    rows = [pool.basis.get(r.name, solver.BASIC) for r in model.rows[:n_base_rows]]
    cuts = [solver.BASIC if c.status is None else c.status for c in pool.cuts]
    return np.array(cols + rows + cuts, dtype=np.int8)


def _keep_basis(pool, model, statuses):
    """Leave statuses over the model's standard form (cut rows last, in
    pool order) on the pool: by name for the model's columns and rows, on
    each cut for its slack."""
    names = [v.name for v in model.variables] + [r.name for r in model.rows]
    pool.basis = dict(zip(names, statuses[:len(names)].tolist()))
    for cut, st in zip(pool.cuts, statuses[len(names):].tolist()):
        cut.status = st


def run_cppa(case, config, warm_cuts=None):
    """Run the cutting-plane pricing algorithm on a case.

    The working model is the welfare problem with the current cut pool
    appended, solved as an LP; the loop exits on convergence of the
    separation oracle, on the stall counter, on max_rounds, or on the wall
    clock, which also bounds every LP and the MILP. The first round's LP
    starts from the basis the warm pool carries, if any; each later one
    from the previous round's terminal basis.
    """
    t_start = time.perf_counter()
    deadline = t_start + config.time_limit_s
    result = PricingResult(status=STATUS_OPTIMAL)
    if case.islanded:
        result.status = STATUS_INFEASIBLE
        result.termination = "islanded"
        return result

    base_model = build_welfare(case, config.network_model)
    pool = warm_cuts if warm_cuts is not None else cutmod.CutPool()
    result.pool = pool

    z_prev = None
    stall = 0
    hint = None
    n_base = len(base_model.variables) + len(base_model.rows)
    while True:
        if time.perf_counter() > deadline:
            return _timed_out(result)

        working = _with_cut_rows(base_model, pool)
        solved_cuts = list(pool.cuts)
        t0 = time.perf_counter()
        if result.rounds == 0 and pool.basis is not None:
            A, _, _, lb, ub, _ = solver.standard_form(working)
            hint = solver.repair_basis(A, lb, ub, _stored_basis(
                working, len(base_model.rows), pool))
        sol = solver.solve_lp(working, basis_hint=hint, deadline=deadline)
        result.time_lp += time.perf_counter() - t0
        result.rounds += 1
        result.lp_iterations.append(sol.iterations)

        if sol.status == solver.TIME_LIMIT:
            return _timed_out(result)
        if sol.status != solver.OPTIMAL:
            result.status = STATUS_INFEASIBLE
            result.termination = sol.status
            return result

        result.objective_trace.append(sol.objective)
        result.price_trace.append(
            extract_prices(sol, working, case.base_mva)[0])

        t0 = time.perf_counter()
        violations = [(i, cone, cutmod.cone_violation(sol.primal, cone))
                      for i, cone in enumerate(working.cones)]
        selected = cutmod.select_cuts(
            violations, eps_viol=config.eps_viol, rho=config.rho,
            k_max=config.k_max)
        result.time_cut += time.perf_counter() - t0

        if not selected:
            result.termination = "converged"
            break

        t0 = time.perf_counter()
        added = 0
        for _, cone, _viol in selected:
            try:
                cut = cutmod.max_distance_cut(
                    sol.primal, cone, round_no=result.rounds,
                    eps_viol=config.eps_viol)
            except cutmod.DegenerateCutError:
                continue
            if pool.admit(cut, result.rounds, eps_par=config.eps_par):
                added += 1
        dropped = pool.prune_aged(
            working, sol.primal, result.rounds, t_age=config.t_age)
        result.time_cut += time.perf_counter() - t0
        result.cuts_added.append(added)
        result.cuts_dropped.append(dropped)

        z = sol.objective
        if z_prev is not None:
            improvement = abs(z_prev - z) / max(abs(z_prev), 1e-9)
            if improvement < config.ftol:
                stall += 1
            else:
                stall = 0
        z_prev = z
        if stall >= config.ftol_rounds:
            result.termination = "stalled"
            break
        if config.max_rounds is not None and result.rounds >= config.max_rounds:
            result.termination = "max_rounds"
            break
        hint = _carry_basis(sol.basis_status, n_base, solved_cuts, pool.cuts)

    final_basis = _carry_basis(sol.basis_status, n_base, solved_cuts, pool.cuts)
    _keep_basis(pool, base_model, final_basis)

    # pricing rule
    if config.pricing_rule == RULE_CH or not base_model.binary_indices():
        price_sol, price_model = sol, working
    else:
        # the root starts from the last round's basis; a stalled or
        # max_rounds exit has admitted or pruned cuts since that solve
        milp_model = _with_cut_rows(base_model, pool)
        milp = solver.solve_milp(milp_model, gap_tol=config.milp_gap,
                                 basis_hint=final_basis, deadline=deadline)
        result.milp_nodes = milp.nodes
        result.milp_lp_iterations = milp.lp_iterations
        if milp.status == solver.TIME_LIMIT:
            return _timed_out(result)
        if milp.status != solver.OPTIMAL:
            result.status = STATUS_INFEASIBLE
            result.termination = f"milp_{milp.status}"
            return result
        fixes = {j: milp.primal[j] for j in milp_model.binary_indices()}
        fixed = solver.fix_binaries(milp_model, fixes)
        # fixing binaries keeps the layout, so the incumbent node's
        # statuses are a basis of the fixed LP, optimal up to degeneracy
        price_sol = solver.solve_lp(fixed, basis_hint=milp.basis_status,
                                    deadline=deadline)
        result.pricing_lp_iterations = price_sol.iterations
        if price_sol.status == solver.TIME_LIMIT:
            return _timed_out(result)
        if price_sol.status != solver.OPTIMAL:
            result.status = STATUS_INFEASIBLE
            result.termination = f"fixed_lp_{price_sol.status}"
            return result
        price_model = fixed

    result.prices_p, result.prices_q = extract_prices(
        price_sol, price_model, case.base_mva)
    result.objective = price_sol.objective
    result.allocation = _allocation_from(price_model, price_sol.primal)
    result.commitments = _commitments_from(price_model, price_sol.primal)
    return result
