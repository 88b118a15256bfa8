"""Direct utilities, efficiency metrics (make-whole payments, lost
opportunity costs, redispatch costs), the price-distance statistic, and
the polar AC residual evaluator used as a feasibility oracle.

Utilities use active-power revenue only; reactive power carries prices
but no remuneration in the settlement metrics. Allocation files
("cppa-alloc-v1") are read and written by ``netio.ALLOC_SCHEMA``, and a
malformed one raises ``EconError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import netio


class EconError(ValueError):
    pass


@dataclass
class GenAlloc:
    p: float
    q: float = 0.0
    on: float = 1.0
    su: float = 0.0
    sd: float = 0.0


@dataclass
class LoadAlloc:
    p: float
    q: float = 0.0


@dataclass
class Allocation:
    gens: dict       # gen id -> GenAlloc
    loads: dict      # load id -> LoadAlloc


@dataclass
class EfficiencyReport:
    welfare: float
    mwp: float
    gloc: float
    lloc: float
    rdc: float


def allocation_from_result(case, result):
    """Build an Allocation from a PricingResult's raw variable values."""
    values = result.allocation
    gens = {}
    for g in case.generators:
        tag = f"g{g.id}"
        gens[g.id] = GenAlloc(
            p=values[f"{tag}_p"],
            q=values.get(f"{tag}_q", 0.0),
            on=values[f"{tag}_on"],
            su=values[f"{tag}_su"],
            sd=values[f"{tag}_sd"],
        )
    loads = {}
    for l in case.loads:
        tag = f"l{l.id}"
        loads[l.id] = LoadAlloc(p=values[f"{tag}_p"],
                                q=values.get(f"{tag}_q", 0.0))
    return Allocation(gens=gens, loads=loads)


def allocation_to_dict(alloc):
    return netio.to_json(alloc, netio.ALLOC_SCHEMA)


def allocation_from_dict(data):
    fields = netio.from_json(data, netio.ALLOC_SCHEMA, EconError)
    return Allocation(gens={g.pop("id"): GenAlloc(**g) for g in fields["gens"]},
                      loads={l.pop("id"): LoadAlloc(**l) for l in fields["loads"]})


def load_allocation(path):
    return allocation_from_dict(netio.read_json(path, EconError, "allocation"))


def save_allocation(alloc, path):
    netio.write_json(path, allocation_to_dict(alloc))


def _pwl_value(segments, p):
    """Greedy fill of PWL segments up to p (p.u.); returns the unscaled
    $/MWh-weighted area."""
    total = 0.0
    prev_bp = 0.0
    remaining = p
    for bp, mv in segments:
        width = bp - prev_bp
        take = min(max(remaining, 0.0), width)
        total += take * mv
        remaining -= take
        prev_bp = bp
    return total


def generator_cost(gen, p, on, su, sd, base_mva):
    """Total bid cost in $: energy plus commitment-linked fixed costs."""
    return (_pwl_value(gen.cost_segments, p) * base_mva
            + gen.no_load_cost * on
            + gen.startup_cost * su
            + gen.shutdown_cost * sd)


def load_benefit(load, p, base_mva):
    return _pwl_value(load.benefit_segments, p) * base_mva


def direct_utility(agent, alloc, prices_p, base_mva):
    """Settled utility of one agent at nodal prices ($); active power only."""
    lam = prices_p[agent.bus]
    if hasattr(agent, "cost_segments"):
        a = alloc.gens[agent.id]
        return (a.p * base_mva * lam
                - generator_cost(agent, a.p, a.on, a.su, a.sd, base_mva))
    a = alloc.loads[agent.id]
    return load_benefit(agent, a.p, base_mva) - a.p * base_mva * lam


def welfare(case, alloc):
    """Objective (bid surplus) of an allocation, in $."""
    total = 0.0
    for l in case.loads:
        total += load_benefit(l, alloc.loads[l.id].p, case.base_mva)
    for g in case.generators:
        a = alloc.gens[g.id]
        total -= generator_cost(g, a.p, a.on, a.su, a.sd, case.base_mva)
    return total


def _linked_su_sd(on, initial_on):
    # su - sd = on - initial_on with su + sd <= 1 pins both binaries
    diff = on - int(initial_on)
    return (1.0, 0.0) if diff > 0 else (0.0, 1.0) if diff < 0 else (0.0, 0.0)


def _best_gen_dispatch(gen, lam, base_mva):
    """Best p in [pmin, pmax] at price lam; the profit is concave PWL so a
    breakpoint or an interval endpoint is optimal."""
    candidates = {gen.pmin, gen.pmax}
    for bp, _ in gen.cost_segments:
        if gen.pmin <= bp <= gen.pmax:
            candidates.add(bp)
    best_p, best_v = gen.pmin, -math.inf
    for p in sorted(candidates):
        v = p * base_mva * lam - _pwl_value(gen.cost_segments, p) * base_mva
        if v > best_v + 1e-12:
            best_p, best_v = p, v
    return best_p, best_v


def gen_best_response(gen, lam, base_mva, fixed_commitment=None):
    """sup of the generator's utility at prices; commitments free (with
    startup/shutdown linked to the initial state) unless fixed."""
    if fixed_commitment is not None:
        options = [fixed_commitment]
    else:
        options = [(on, *_linked_su_sd(on, gen.initial_on)) for on in (0, 1)]
    best = -math.inf
    for on, su, sd in options:
        u = -(gen.no_load_cost * on + gen.startup_cost * su
              + gen.shutdown_cost * sd)
        if round(on) != 0:
            u += _best_gen_dispatch(gen, lam, base_mva)[1]
        best = max(best, u)
    return best


def load_best_response(load, lam, base_mva):
    """sup of the load's utility over p in [0, pmax] at prices."""
    candidates = {0.0, load.pmax}
    for bp, _ in load.benefit_segments:
        if bp <= load.pmax:
            candidates.add(bp)
    best = -math.inf
    for p in sorted(candidates):
        v = _pwl_value(load.benefit_segments, p) * base_mva - p * base_mva * lam
        best = max(best, v)
    return best


def efficiency_metrics(case, z, phi_z, prices_p):
    """MWP, GLOC, LLOC and RDC of an allocation z and its AC-feasible
    adjustment phi_z at nodal prices; welfare is evaluated at phi_z."""
    base = case.base_mva
    mwp = gloc = lloc = rdc = 0.0
    for g in case.generators:
        u_phi = direct_utility(g, phi_z, prices_p, base)
        u_z = direct_utility(g, z, prices_p, base)
        lam = prices_p[g.bus]
        a = phi_z.gens[g.id]
        sup_free = gen_best_response(g, lam, base)
        sup_fixed = gen_best_response(g, lam, base,
                                      fixed_commitment=(a.on, a.su, a.sd))
        mwp += max(-u_phi, 0.0)
        gloc += sup_free - u_phi
        lloc += sup_fixed - u_phi
        rdc += max(u_z - u_phi, 0.0)
    for l in case.loads:
        u_phi = direct_utility(l, phi_z, prices_p, base)
        u_z = direct_utility(l, z, prices_p, base)
        lam = prices_p[l.bus]
        sup = load_best_response(l, lam, base)
        mwp += max(-u_phi, 0.0)
        gloc += sup - u_phi
        lloc += sup - u_phi
        rdc += max(u_z - u_phi, 0.0)
    return EfficiencyReport(welfare=welfare(case, phi_z), mwp=mwp,
                            gloc=gloc, lloc=lloc, rdc=rdc)


def price_distance(prices_a, prices_b):
    """Mean absolute nodal price difference ($/MWh)."""
    a = np.asarray(prices_a, dtype=float)
    b = np.asarray(prices_b, dtype=float)
    if a.shape != b.shape:
        raise EconError("price vectors have different lengths")
    return float(np.abs(a - b).sum() / a.size)


@dataclass
class ACReport:
    flows: dict            # branch id -> (P_f, Q_f, P_t, Q_t)
    balance_p: np.ndarray  # per bus, flow sum minus injection
    balance_q: np.ndarray
    current_slack: dict    # branch id -> (from slack, to slack); < 0 violated
    angle_slack: dict      # branch id -> max_angle_diff - |theta_km|
    max_balance: float
    max_limit_violation: float


def branch_flows(branch, vk, vm, theta_km):
    """Polar power-flow equations for one branch."""
    y = branch.admittance
    ct, st = math.cos(theta_km), math.sin(theta_km)
    vkm = vk * vm
    p_f = y.g_ff * vk**2 + y.g_ft * vkm * ct + y.b_ft * vkm * st
    p_t = y.g_tt * vm**2 + y.g_tf * vkm * ct - y.b_tf * vkm * st
    q_f = -y.b_ff * vk**2 - y.b_ft * vkm * ct + y.g_ft * vkm * st
    q_t = -y.b_tt * vm**2 - y.b_tf * vkm * ct - y.g_tf * vkm * st
    return p_f, q_f, p_t, q_t


def ac_residual(case, vm, va, p_inj, q_inj):
    """Evaluate the polar AC equations at (|V|, theta) against per-bus net
    injections. Diagnostic only: reports residuals and never raises on
    physics.

    ``vm``, ``va``, ``p_inj``, ``q_inj`` are dicts keyed by bus id (p.u.,
    radians, net injection = generation minus consumption).
    """
    bus_ids = [b.id for b in case.buses]
    pos = {k: i for i, k in enumerate(bus_ids)}
    flow_p = np.zeros(len(bus_ids))
    flow_q = np.zeros(len(bus_ids))
    flows = {}
    current_slack = {}
    angle_slack = {}
    for br in case.branches:
        if not br.status:
            continue
        vk, vmm = vm[br.from_bus], vm[br.to_bus]
        theta = va[br.from_bus] - va[br.to_bus]
        p_f, q_f, p_t, q_t = branch_flows(br, vk, vmm, theta)
        flows[br.id] = (p_f, q_f, p_t, q_t)
        flow_p[pos[br.from_bus]] += p_f
        flow_q[pos[br.from_bus]] += q_f
        flow_p[pos[br.to_bus]] += p_t
        flow_q[pos[br.to_bus]] += q_t
        lim = br.current_limit_sq
        current_slack[br.id] = (lim * vk**2 - (p_f**2 + q_f**2),
                                lim * vmm**2 - (p_t**2 + q_t**2))
        angle_slack[br.id] = br.max_angle_diff - abs(theta)
    bal_p = flow_p - np.array([p_inj[k] for k in bus_ids])
    bal_q = flow_q - np.array([q_inj[k] for k in bus_ids])
    max_balance = max(np.max(np.abs(bal_p)) if bal_p.size else 0.0,
                      np.max(np.abs(bal_q)) if bal_q.size else 0.0)
    worst = 0.0
    for sl_f, sl_t in current_slack.values():
        worst = max(worst, -sl_f, -sl_t)
    for sl in angle_slack.values():
        worst = max(worst, -sl)
    return ACReport(flows=flows, balance_p=bal_p, balance_q=bal_q,
                    current_slack=current_slack, angle_slack=angle_slack,
                    max_balance=float(max_balance),
                    max_limit_violation=float(worst))
