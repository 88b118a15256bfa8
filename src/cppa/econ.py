"""Direct utilities, efficiency metrics (make-whole payments, lost
opportunity costs, redispatch costs), the price-distance statistic, and
the polar AC residual evaluator used as a feasibility oracle.

Generators and loads are settled by one rule: a generator's utility is
revenue minus bid cost, a load's bid benefit minus payment, and each
metric sums over both kinds in one loop. One surplus rule
(``_best_surplus``) gives either kind's best response, and welfare is the
agents' utility at a price of 0.

Utilities use active-power revenue only; reactive power carries prices
but no remuneration in the settlement metrics. Allocation files
("cppa-alloc-v1") are read and written by ``netio.ALLOC_SCHEMA``, and a
malformed one raises ``EconError``.
"""

from __future__ import annotations

import functools
import math
import operator
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
    """Build an Allocation from a PricingResult's raw variable values: an
    agent's field is its ``{tag}_{field}`` variable, and q is 0.0 in a
    model without one."""
    values = result.allocation

    def read(tag, *roles):
        return {r: values[f"{tag}_{r}"] for r in roles} | {"q": values.get(f"{tag}_q", 0.0)}

    return Allocation(
        gens={g.id: GenAlloc(**read(f"g{g.id}", "p", "on", "su", "sd")) for g in case.generators},
        loads={l.id: LoadAlloc(**read(f"l{l.id}", "p")) for l in case.loads})


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
    """Objective (bid surplus) of an allocation, in $: every load's, then
    every generator's direct utility at a price of 0 at every bus, added
    left to right (``sum`` would compensate the float sum from Python 3.12
    on, and round otherwise)."""
    zero = dict.fromkeys(case.bus_map(), 0.0)
    return functools.reduce(operator.add, (
        direct_utility(agent, alloc, zero, case.base_mva)
        for agent in (*case.loads, *case.generators)), 0.0)


def _linked_su_sd(on, initial_on):
    # su - sd = on - initial_on with su + sd <= 1 pins both binaries
    diff = on - int(initial_on)
    return (1.0, 0.0) if diff > 0 else (0.0, 1.0) if diff < 0 else (0.0, 0.0)


def _best_surplus(segments, lo, hi, lam, base_mva, sign):
    """Best surplus over p in [lo, hi] at price lam of a cost bid (sign
    1.0: revenue minus cost) or a benefit bid (sign -1.0: benefit minus
    payment). The surplus is concave PWL, so a breakpoint or an interval
    end is optimal. In increasing p, a later candidate wins only if it is
    better by more than 1e-12: at a price equal to a marginal bid two
    breakpoints tie up to rounding, and the first of them is kept."""
    best = -math.inf
    for p in sorted({lo, hi, *(bp for bp, _ in segments if lo <= bp <= hi)}):
        v = sign * (p * base_mva * lam - _pwl_value(segments, p) * base_mva)
        if v > best + 1e-12:
            best = v
    return best


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
            u += _best_surplus(gen.cost_segments, gen.pmin, gen.pmax, lam, base_mva, 1.0)
        best = max(best, u)
    return best


def load_best_response(load, lam, base_mva):
    """sup of the load's utility over p in [0, pmax] at prices."""
    return _best_surplus(load.benefit_segments, 0.0, load.pmax, lam, base_mva, -1.0)


def efficiency_metrics(case, z, phi_z, prices_p):
    """MWP, GLOC, LLOC and RDC of an allocation z and its AC-feasible
    adjustment phi_z at nodal prices; welfare is evaluated at phi_z.

    One loop settles every agent, generators first, each adding its
    make-whole payment max(-u_phi, 0), its lost opportunity costs against
    its best response with commitments free (GLOC) and fixed at phi_z's
    (LLOC), which for a load, with no commitment, are one value, and its
    redispatch cost max(u_z - u_phi, 0)."""
    base = case.base_mva
    mwp = gloc = lloc = rdc = 0.0
    for agent in (*case.generators, *case.loads):
        u_phi = direct_utility(agent, phi_z, prices_p, base)
        u_z = direct_utility(agent, z, prices_p, base)
        lam = prices_p[agent.bus]
        if hasattr(agent, "cost_segments"):
            a = phi_z.gens[agent.id]
            sup_free = gen_best_response(agent, lam, base)
            sup_fixed = gen_best_response(agent, lam, base,
                                          fixed_commitment=(a.on, a.su, a.sd))
        else:
            sup_free = sup_fixed = load_best_response(agent, lam, base)
        mwp += max(-u_phi, 0.0)
        gloc += sup_free - u_phi
        lloc += sup_fixed - u_phi
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
