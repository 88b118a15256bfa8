"""Solver-independent optimization models for the market welfare problem.

Two builders are provided: ``build_cp_welfare`` assembles the welfare
problem over the linear part of the Jabr relaxation (rotated-cone and
current-limit constraints are registered as cone descriptors, not rows),
and ``build_dc_welfare`` assembles the lossless B-theta model with active
power only. Both run one frame: their own network part, then every
generator's and load's block and the per-bus balance rows. The two agent
blocks share one bid builder: a generator's cost segments and a load's
benefit segments are the same variables and ``_pdef`` row, valued at -1
and +1 times the marginal bid.

Deterministic size formulas (regression-tested), with B = buses, E =
in-service branches, G = generators, L = loads, nseg = bid segments:

    CP vars = |B| + 6|E| + sum_G (5 + nseg_g) + sum_L (2 + nseg_l)
    CP rows = 2|B| + 4|E| + 7|G| + 2|L|
    CP cones = 3|E|
    DC vars = |B| + |E| + sum_G (4 + nseg_g) + sum_L (1 + nseg_l)
    DC rows = |B| + 3|E| + 5|G| + |L|

The CP row count assumes finite reactive limits: a generator whose qmin
or qmax is infinite has no row for that limit, which would bound nothing.

Objective coefficients are in $ (marginal bids scaled by base_mva), so
balance-row duals are $ per p.u. and divide by base_mva to give $/MWh.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

from . import netio

INF = float("inf")

SENSE_LE = "<="
SENSE_EQ = "="
SENSE_GE = ">="

JABR = "JabrRotated"
CURRENT_FROM = "CurrentLimitFrom"
CURRENT_TO = "CurrentLimitTo"


class ModelError(ValueError):
    """Raised when a model cannot be built from the given case."""


@dataclass
class Variable:
    name: str
    lb: float
    ub: float
    binary: bool = False


@dataclass
class Row:
    name: str
    coeffs: dict  # var index -> coefficient
    sense: str
    rhs: float


@dataclass
class ConeDescriptor:
    """One registered (not yet enforced) cone of the Jabr relaxation.

    kind JABR: vars holds c, s, v2_from, v2_to (c^2 + s^2 <= v2_f * v2_t).
    kind CURRENT_*: vars holds P, Q, v2; multiplier is the apparent
    current-squared bound (P^2 + Q^2 <= multiplier * v2).
    """

    kind: str
    branch_id: int
    vars: dict  # role -> var index
    multiplier: float = 0.0


class ModelIR:
    """Bounded variables, sparse linear rows, a maximization objective,
    registered cones, and index maps back into the case."""

    def __init__(self, base_mva=1.0):
        self.base_mva = base_mva
        self.variables = []
        self.rows = []
        self.objective = {}  # var index -> coefficient
        self.cones = []
        self.bus_p_row = {}   # bus id -> active balance row index
        self.bus_q_row = {}   # bus id -> reactive balance row index
        self.gen_vars = {}    # gen id -> role -> var index
        self.load_vars = {}   # load id -> role -> var index
        self.branch_vars = {}  # branch id -> role -> var index
        self.theta_vars = {}  # bus id -> angle var index (DC only)
        self.v2_vars = {}     # bus id -> squared-voltage var index (CP only)

    def add_var(self, name, lb, ub, binary=False):
        if binary and (lb < 0.0 or ub > 1.0):
            raise ModelError(f"binary {name}: bounds [{lb}, {ub}] leave [0, 1]")
        self.variables.append(Variable(name, lb, ub, binary))
        return len(self.variables) - 1

    def add_row(self, name, coeffs, sense, rhs):
        for j in coeffs:
            if not 0 <= j < len(self.variables):
                raise ModelError(f"row {name}: unknown variable index {j}")
        self.rows.append(Row(name, dict(coeffs), sense, rhs))
        return len(self.rows) - 1

    def add_objective(self, var, coeff):
        self.objective[var] = self.objective.get(var, 0.0) + coeff

    def binary_indices(self):
        return [j for j, v in enumerate(self.variables) if v.binary]

    def copy(self):
        return copy.deepcopy(self)

    def relax_binaries(self):
        m = self.copy()
        for v in m.variables:
            v.binary = False
        return m

    def to_lp_text(self):
        """Industry-standard LP file layout, for diffing against external
        solvers (--dump-model)."""
        def term(j, c):
            sign = "+" if c >= 0 else "-"
            return f"{sign} {abs(c):.12g} {self.variables[j].name}"

        out = ["Maximize", " obj: " + " ".join(
            term(j, c) for j, c in sorted(self.objective.items()) if c != 0.0)]
        out.append("Subject To")
        for r in self.rows:
            body = " ".join(term(j, c) for j, c in sorted(r.coeffs.items()) if c != 0.0)
            out.append(f" {r.name}: {body} {r.sense} {r.rhs:.12g}")
        out.append("Bounds")
        for v in self.variables:
            lo = "-inf" if v.lb == -INF else f"{v.lb:.12g}"
            hi = "+inf" if v.ub == INF else f"{v.ub:.12g}"
            out.append(f" {lo} <= {v.name} <= {hi}")
        bins = [v.name for v in self.variables if v.binary]
        if bins:
            out.append("Binaries")
            out.append(" " + " ".join(bins))
        out.append("End")
        return "\n".join(out) + "\n"


def _bid_segments(model, tag, p, segments, sign):
    """One variable per bid segment, as wide as the segment, worth sign x
    its marginal bid x base_mva in the objective (sign -1.0 for a cost, +1.0
    for a benefit), and the {tag}_pdef row that sums them to p. Returns the
    segment variables' indices."""
    segs = []
    prev_bp = 0.0
    for i, (bp, mv) in enumerate(segments):
        sj = model.add_var(f"{tag}_seg{i}", 0.0, bp - prev_bp)
        model.add_objective(sj, sign * mv * model.base_mva)
        segs.append(sj)
        prev_bp = bp
    model.add_row(f"{tag}_pdef", {p: 1.0, **{sj: -1.0 for sj in segs}},
                  SENSE_EQ, 0.0)
    return segs


def build_generator_block(gen, model, reactive=True):
    """Commitment binaries, PWL-cost dispatch and linking rows for one
    generator. Returns the role -> variable index map."""
    if not netio.monotone_bid(gen.cost_segments, True):
        raise ModelError(f"generator {gen.id}: non-convex cost segments")
    tag = f"g{gen.id}"
    on = model.add_var(f"{tag}_on", 0.0, 1.0, binary=True)
    su = model.add_var(f"{tag}_su", 0.0, 1.0, binary=True)
    sd = model.add_var(f"{tag}_sd", 0.0, 1.0, binary=True)
    p = model.add_var(f"{tag}_p", 0.0 if gen.pmin >= 0 else gen.pmin,
                      max(gen.pmax, 0.0))
    roles = {"on": on, "su": su, "sd": sd, "p": p,
             "segs": _bid_segments(model, tag, p, gen.cost_segments, -1.0)}
    model.add_row(f"{tag}_pmin", {p: 1.0, on: -gen.pmin}, SENSE_GE, 0.0)
    model.add_row(f"{tag}_pmax", {p: 1.0, on: -gen.pmax}, SENSE_LE, 0.0)
    if reactive:
        q = model.add_var(f"{tag}_q", min(gen.qmin, 0.0), max(gen.qmax, 0.0))
        roles["q"] = q
        if gen.qmin > -INF:  # an infinite limit's row bounds nothing
            model.add_row(f"{tag}_qmin", {q: 1.0, on: -gen.qmin}, SENSE_GE, 0.0)
        if gen.qmax < INF:
            model.add_row(f"{tag}_qmax", {q: 1.0, on: -gen.qmax}, SENSE_LE, 0.0)
    model.add_row(f"{tag}_link", {su: 1.0, sd: -1.0, on: -1.0},
                  SENSE_EQ, -float(gen.initial_on))
    model.add_row(f"{tag}_susd", {su: 1.0, sd: 1.0}, SENSE_LE, 1.0)

    model.add_objective(on, -gen.no_load_cost)
    model.add_objective(su, -gen.startup_cost)
    model.add_objective(sd, -gen.shutdown_cost)
    model.gen_vars[gen.id] = roles
    return roles


def build_load_block(load, model, reactive=True):
    """Elastic consumption with concave PWL benefit; reactive power tied
    by the constant power-factor ratio."""
    if not netio.monotone_bid(load.benefit_segments, False):
        raise ModelError(f"load {load.id}: non-concave benefit segments")
    tag = f"l{load.id}"
    p = model.add_var(f"{tag}_p", 0.0, load.pmax)
    roles = {"p": p, "segs": _bid_segments(model, tag, p, load.benefit_segments, 1.0)}
    if reactive:
        gamma = load.power_factor_ratio
        span = abs(gamma) * load.pmax + 1e-12
        q = model.add_var(f"{tag}_q", -span, span)
        roles["q"] = q
        model.add_row(f"{tag}_qdef", {q: 1.0, p: -gamma}, SENSE_EQ, 0.0)
    model.load_vars[load.id] = roles
    return roles


def _balance_rows(case, model, reactive):
    """Per-bus balance: sum of outgoing flows - generation + consumption = 0.
    With this orientation the active-row dual is directly the nodal price
    (in $ per p.u.). Every term goes in through one rule, ``inject``."""
    p_terms = {b.id: {} for b in case.buses}
    q_terms = {b.id: {} for b in case.buses}

    def inject(bus, p_var, q_var, sign):
        p_terms[bus][p_var] = p_terms[bus].get(p_var, 0.0) + sign
        if reactive:
            q_terms[bus][q_var] = q_terms[bus].get(q_var, 0.0) + sign

    for br in case.branches:
        if br.status:
            roles = model.branch_vars[br.id]
            inject(br.from_bus, roles["P_from"], roles.get("Q_from"), 1.0)
            if "P_to" in roles:
                inject(br.to_bus, roles["P_to"], roles["Q_to"], 1.0)
            else:  # DC: the to-side flow is the negated from-side flow
                inject(br.to_bus, roles["P_from"], None, -1.0)
    for g in case.generators:
        inject(g.bus, model.gen_vars[g.id]["p"], model.gen_vars[g.id].get("q"), -1.0)
    for l in case.loads:
        inject(l.bus, model.load_vars[l.id]["p"], model.load_vars[l.id].get("q"), 1.0)
    for b in case.buses:
        model.bus_p_row[b.id] = model.add_row(
            f"bal_p_{b.id}", p_terms[b.id], SENSE_EQ, 0.0)
        if reactive:
            model.bus_q_row[b.id] = model.add_row(
                f"bal_q_{b.id}", q_terms[b.id], SENSE_EQ, 0.0)


def _welfare(case, network, reactive):
    """The welfare frame: the network part (``network(case, model)``), then
    every generator's and load's block and the per-bus balance rows."""
    if case.islanded:
        raise ModelError("case is islanded")
    model = ModelIR(case.base_mva)
    network(case, model)
    for g in case.generators:
        build_generator_block(g, model, reactive=reactive)
    for l in case.loads:
        build_load_block(l, model, reactive=reactive)
    _balance_rows(case, model, reactive=reactive)
    return model


def build_cp_welfare(case):
    """Welfare problem over the linear rows of the Jabr relaxation, with
    one rotated cone and two current-limit cones registered per branch."""
    return _welfare(case, _jabr_network, reactive=True)


def build_dc_welfare(case):
    """Lossless B-theta welfare model: active power only, flows linear in
    angle differences, sqrt(current_limit_sq) as the MW flow limit."""
    return _welfare(case, _b_theta_network, reactive=False)


def _jabr_network(case, model):
    """Squared voltages, and per in-service branch the Jabr variables, the
    four flow-definition rows and the three registered cones."""
    bus = case.bus_map()

    for b in case.buses:
        model.v2_vars[b.id] = model.add_var(
            f"v2_{b.id}", b.vmin**2, b.vmax**2)

    for br in case.branches:
        if not br.status:
            continue
        vk, vm = bus[br.from_bus], bus[br.to_bus]
        vv = vk.vmax * vm.vmax
        tag = f"e{br.id}"
        # c >= 0 is valid: the angle-difference limit below pi/2 keeps
        # cos(theta_km) positive at any physical operating point.
        c = model.add_var(f"{tag}_c", 0.0, vv)
        s = model.add_var(f"{tag}_s", -vv, vv)
        pf = model.add_var(f"{tag}_Pf", -INF, INF)
        pt = model.add_var(f"{tag}_Pt", -INF, INF)
        qf = model.add_var(f"{tag}_Qf", -INF, INF)
        qt = model.add_var(f"{tag}_Qt", -INF, INF)
        y = br.admittance
        w_f, w_t = model.v2_vars[br.from_bus], model.v2_vars[br.to_bus]
        model.add_row(f"{tag}_Pfdef",
                      {pf: 1.0, w_f: -y.g_ff, c: -y.g_ft, s: -y.b_ft},
                      SENSE_EQ, 0.0)
        model.add_row(f"{tag}_Ptdef",
                      {pt: 1.0, w_t: -y.g_tt, c: -y.g_tf, s: y.b_tf},
                      SENSE_EQ, 0.0)
        model.add_row(f"{tag}_Qfdef",
                      {qf: 1.0, w_f: y.b_ff, c: y.b_ft, s: -y.g_ft},
                      SENSE_EQ, 0.0)
        model.add_row(f"{tag}_Qtdef",
                      {qt: 1.0, w_t: y.b_tt, c: y.b_tf, s: y.g_tf},
                      SENSE_EQ, 0.0)
        roles = {"c": c, "s": s, "P_from": pf, "P_to": pt,
                 "Q_from": qf, "Q_to": qt, "v2_from": w_f, "v2_to": w_t}
        model.branch_vars[br.id] = roles
        model.cones.append(ConeDescriptor(
            JABR, br.id, {"c": c, "s": s, "v2_from": w_f, "v2_to": w_t}))
        model.cones.append(ConeDescriptor(
            CURRENT_FROM, br.id, {"P": pf, "Q": qf, "v2": w_f},
            multiplier=br.current_limit_sq))
        model.cones.append(ConeDescriptor(
            CURRENT_TO, br.id, {"P": pt, "Q": qt, "v2": w_t},
            multiplier=br.current_limit_sq))


def _b_theta_network(case, model):
    """Bus angles, the lowest bus id the reference, and per in-service
    branch its MW flow, the flow-definition row and the angle-limit rows."""
    ref = min(b.id for b in case.buses)
    for b in case.buses:
        if b.id == ref:
            model.theta_vars[b.id] = model.add_var(f"th_{b.id}", 0.0, 0.0)
        else:
            model.theta_vars[b.id] = model.add_var(f"th_{b.id}", -INF, INF)

    for br in case.branches:
        if not br.status:
            continue
        tag = f"e{br.id}"
        cap = math.sqrt(br.current_limit_sq)
        p = model.add_var(f"{tag}_P", -cap, cap)
        tk, tm = model.theta_vars[br.from_bus], model.theta_vars[br.to_bus]
        k = 1.0 / (br.x * br.tap)
        model.add_row(f"{tag}_Pdef", {p: 1.0, tk: -k, tm: k},
                      SENSE_EQ, -br.shift * k)
        model.add_row(f"{tag}_angmax", {tk: 1.0, tm: -1.0},
                      SENSE_LE, br.max_angle_diff)
        model.add_row(f"{tag}_angmin", {tk: 1.0, tm: -1.0},
                      SENSE_GE, -br.max_angle_diff)
        model.branch_vars[br.id] = {"P_from": p}
