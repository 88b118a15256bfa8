"""The cutting-plane pricing loop: solve, separate, manage cuts, then
apply the IP or CH pricing rule and extract nodal prices.

``build_welfare`` is the one place that picks the CP or DC welfare model.
The loop solves each round's model as an LP, which relaxes its binaries
(the LP layer ignores binary flags); cuts are pure cone geometry and
independent of commitments, so under the IP rule a single MILP is solved
once the relaxation has converged, the binaries are fixed at their
welfare-maximizing values, and the final LP duals are the prices.

Each run carries one LP (``solver.CarriedLp``), the only holder of its
model and start state: the model, with the warm pool's cut rows after the
welfare rows, its standard form, the statuses the next solve starts from
and the last solve's terminal factor. Every solve is handed the carried
model. The form is built once, at round 1, and each later round deletes
the rows of the cuts that aged out and appends those of the cuts
admitted, each cut's row bound once as it enters, with their slacks
basic, and starts from the previous round's terminal factor, shrunk and
bordered to match. Only the first round's LP starts cold, and not even
that one when the warm pool carries the basis its writer ended on (a cut
store written by ``--cuts-out``): the stored statuses are mapped by name
onto this run's model and repaired to a basis (``solver.repair_basis``)
on the carried form, and the carry starts from them. Separation runs on
arrays: the model's cones become one ``cuts.ConeTable`` per run, and each
round takes every cone's violation, the cones selected and their deepest
cuts in a fixed number of numpy calls, and tests the cuts for parallelism
against the pool's arrays of keys and unit normals (``CutPool.admit_cones``);
only the cuts admitted become ``Cut`` objects and rows. Cuts age by their
rows' slacks in the solved LP. The pool takes the carried statuses once,
when the loop ends. Under the IP rule the carried LP goes on into the
MILP, whose root starts from it and whose nodes share its form, each from
its parent's state; the MILP leaves the incumbent node's state on it. The
carry then pins the binaries on its model and its bounds alike, and the
fixed-binary pricing LP starts from that state. Every LP and the MILP run
under the same wall-clock deadline as the loop.
"""

from __future__ import annotations

import math
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
    pricing_rule: str = RULE_CH
    network_model: str = MODEL_CP
    max_rounds: int = None

    def __post_init__(self):
        # a NaN fails every comparison, so it fails its check
        for ok, message in (
                (self.time_limit_s > 0, "time limit must be positive"),
                (self.ftol_rounds >= 1, "ftol_rounds must be >= 1"),
                (self.ftol > 0, "ftol must be positive"),
                (0 < self.rho <= 1, "rho must be in (0, 1]"),
                (self.t_age >= 1, "t_age must be >= 1"),
                (0 <= self.eps_viol < math.inf, "eps_viol must be finite and >= 0"),
                (self.eps_par >= 0, "eps_par must be >= 0"),
                (self.max_rounds is None or self.max_rounds >= 1,
                 "max_rounds must be >= 1"),
                (self.pricing_rule in (RULE_IP, RULE_CH),
                 f"unknown pricing rule {self.pricing_rule!r}"),
                (self.network_model in (MODEL_CP, MODEL_DC),
                 f"unknown network model {self.network_model!r}")):
            if not ok:
                raise ValueError(message)


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
    """Nodal prices from balance-row duals, rescaled to $/MWh ($/MVArh);
    the reactive prices are None for a model without reactive rows (DC)."""
    prices_p, prices_q = ({bus_id: float(solution.duals[row]) / base_mva
                           for bus_id, row in sorted(rows.items())}
                          for rows in (model.bus_p_row, model.bus_q_row))
    return prices_p, prices_q if model.bus_q_row else None


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


def _stopped(result, status, prefix=""):
    """End the run on a solve that stopped short of Optimal: TimeLimit at
    the deadline, else Infeasible with the prefixed solver status."""
    if status == solver.TIME_LIMIT:
        result.status, result.termination = STATUS_TIME_LIMIT, "time_limit"
    else:
        result.status, result.termination = STATUS_INFEASIBLE, prefix + status
    return result


def _stored_basis(model, n_base_rows, pool):
    """Candidate statuses over the model's standard form from the basis
    the pool carries: columns and base rows by name, cut slacks from their
    cuts. What the pool lacks starts as it would cold: a column at a
    bound, a slack basic."""
    cols = [pool.basis.get(v.name, solver.AT_LOWER) for v in model.variables]
    rows = [pool.basis.get(r.name, solver.BASIC) for r in model.rows[:n_base_rows]]
    cuts = [c.status for c in pool.cuts]
    return np.array(cols + rows + cuts, dtype=np.int8)


def _keep_basis(pool, names, statuses):
    """Leave statuses over a standard form (base columns and rows named by
    ``names``, then cut rows in pool order) on the pool and its cuts."""
    pool.basis = dict(zip(names, statuses[:len(names)].tolist()))
    for cut, st in zip(pool.cuts, statuses[len(names):].tolist()):
        cut.status = st


def run_cppa(case, config, warm_cuts=None):
    """Run the cutting-plane pricing algorithm on a case.

    The carried model is the welfare problem with the current cut pool
    appended, solved as an LP; the loop exits on convergence of the
    separation oracle, on the stall counter, on max_rounds, or on the wall
    clock, which also bounds every LP and the MILP. The first LP starts
    from the basis the warm pool carries, if any, each later one from the
    previous round's terminal factor.
    """
    deadline = time.perf_counter() + config.time_limit_s
    result = PricingResult(status=STATUS_OPTIMAL)
    if case.islanded:
        result.status = STATUS_INFEASIBLE
        result.termination = "islanded"
        return result

    model = build_welfare(case, config.network_model)
    pool = warm_cuts if warm_cuts is not None else cutmod.CutPool()
    result.pool = pool
    names = [v.name for v in model.variables] + [r.name for r in model.rows]
    n_base_rows = len(model.rows)
    model.rows += [cut.to_row(model) for cut in pool.cuts]

    # the run's one model and standard form; each round edits its cut rows.
    # Cut edits keep the cones, so one table serves every round.
    lp = solver.CarriedLp(model)
    cones = cutmod.ConeTable(model.cones)
    if pool.basis is not None:
        lp.status = solver.repair_basis(lp.A, _stored_basis(model, n_base_rows, pool))

    stall = 0
    while True:
        if time.perf_counter() > deadline:
            return _stopped(result, solver.TIME_LIMIT)

        t0 = time.perf_counter()
        sol = solver.solve_lp(lp.model, deadline=deadline, carry=lp)
        result.time_lp += time.perf_counter() - t0
        result.rounds += 1
        result.lp_iterations.append(sol.iterations)

        if sol.status != solver.OPTIMAL:
            return _stopped(result, sol.status)

        result.objective_trace.append(sol.objective)
        result.price_trace.append(
            extract_prices(sol, lp.model, case.base_mva)[0])

        t0 = time.perf_counter()
        selected = cones.select(sol.primal, config.eps_viol, config.rho)
        result.time_cut += time.perf_counter() - t0

        if not selected.size:
            result.termination = "converged"
            break

        t0 = time.perf_counter()
        held = len(pool.cuts)  # the LP holds these cuts' rows, in pool order
        slacks = lp.b[n_base_rows:] - lp.A[n_base_rows:, :lp.n] @ sol.primal
        added = pool.admit_cones(cones, selected, sol.primal, result.rounds,
                                 eps_par=config.eps_par)
        dropped = pool.prune_aged(slacks, result.rounds, t_age=config.t_age)
        # A nonbasic cut slack sits at its bound 0, and the verdict's
        # residual bound FEAS_TOL keeps its computed slack below TIGHT_TOL:
        # that cut is tight this round and never ages out. So every row
        # deleted here has a basic slack, as edit_rows requires.
        lp.edit_rows(n_base_rows + (~pool.kept[:held]).nonzero()[0],
                     [cut.to_row(lp.model) for cut in pool.cuts[held - dropped:]])
        result.time_cut += time.perf_counter() - t0
        result.cuts_added.append(added)
        result.cuts_dropped.append(dropped)

        if len(result.objective_trace) > 1:
            z_prev, z = result.objective_trace[-2:]
            improvement = abs(z_prev - z) / max(abs(z_prev), 1e-9)
            stall = stall + 1 if improvement < config.ftol else 0
        if stall >= config.ftol_rounds:
            result.termination = "stalled"
            break
        if config.max_rounds is not None and result.rounds >= config.max_rounds:
            result.termination = "max_rounds"
            break

    # the carried statuses cover the pool as it stands, with the slacks of
    # cuts admitted after the last solve basic
    _keep_basis(pool, names, lp.status)

    # pricing rule
    price_sol = sol
    bins = lp.model.binary_indices()
    if config.pricing_rule == RULE_IP and bins:
        # the root starts from the carried statuses and factor, which cover
        # the cuts a stalled or max_rounds exit admitted or pruned after the
        # last solve
        milp = solver.solve_milp(lp.model, deadline=deadline, carry=lp)
        result.milp_nodes = milp.nodes
        result.milp_lp_iterations = milp.lp_iterations
        if milp.status != solver.OPTIMAL:
            return _stopped(result, milp.status, "milp_")
        # fixing binaries keeps the layout, so the incumbent node's
        # statuses and factor, which the MILP left on the carry, are a
        # basis of the fixed LP, optimal up to degeneracy
        lp.fix_binaries({j: milp.primal[j] for j in bins})
        price_sol = solver.solve_lp(lp.model, deadline=deadline, carry=lp)
        result.pricing_lp_iterations = price_sol.iterations
        if price_sol.status != solver.OPTIMAL:
            return _stopped(result, price_sol.status, "fixed_lp_")

    # cut edits and pinned binaries keep the variables and the balance rows
    result.prices_p, result.prices_q = extract_prices(
        price_sol, lp.model, case.base_mva)
    result.objective = price_sol.objective
    result.allocation = _allocation_from(lp.model, price_sol.primal)
    result.commitments = _commitments_from(lp.model, price_sol.primal)
    return result
