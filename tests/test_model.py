import math

import pytest

from cppa import model as modelmod
from cppa import solver
from cppa.econ import branch_flows
from cppa.model import (CURRENT_FROM, CURRENT_TO, JABR, SENSE_EQ, ModelError,
                        ModelIR, build_cp_welfare, build_dc_welfare)
from cppa.netio import Bus, make_case

from conftest import mk_branch, mk_gen, mk_load


def _row_residual(model, row, values):
    return sum(c * values[j] for j, c in row.coeffs.items()) - row.rhs


def test_generator_block_objective_is_pwl_cost():
    # hand oracle: segments [(0.5, 10), (1.0, 20)] filled to p = 0.8
    # cost 0.5*10 + 0.3*20 = 11 $ at base 1
    m = ModelIR(base_mva=1.0)
    gen = mk_gen(1, 1, 0.0, 1.0, -1.0, 1.0, [(0.5, 10.0), (1.0, 20.0)])
    roles = modelmod.build_generator_block(gen, m)
    s0, s1 = roles["segs"]
    assert m.variables[s0].ub == pytest.approx(0.5)
    assert m.variables[s1].ub == pytest.approx(0.5)
    assert m.objective[s0] == pytest.approx(-10.0)
    assert m.objective[s1] == pytest.approx(-20.0)
    # the convex filling: cheapest segment saturates first
    cost = -(m.objective[s0] * 0.5 + m.objective[s1] * 0.3)
    assert cost == pytest.approx(11.0)


def test_generator_block_scales_energy_not_fixed_costs():
    m = ModelIR(base_mva=100.0)
    gen = mk_gen(1, 1, 0.0, 1.0, -1.0, 1.0, [(1.0, 10.0)], no_load=7.0,
                 startup=3.0)
    roles = modelmod.build_generator_block(gen, m)
    assert m.objective[roles["segs"][0]] == pytest.approx(-1000.0)
    assert m.objective[roles["on"]] == pytest.approx(-7.0)
    assert m.objective[roles["su"]] == pytest.approx(-3.0)


def test_load_block_objective_is_pwl_benefit():
    # hand oracle: segments [(0.5, 120), (1.0, 24)] filled to p = 1.0
    # benefit 0.5*120 + 0.5*24 = 72 $ at base 1
    m = ModelIR(base_mva=1.0)
    load = mk_load(1, 1, 1.0, [(0.5, 120.0), (1.0, 24.0)])
    roles = modelmod.build_load_block(load, m)
    s0, s1 = roles["segs"]
    benefit = m.objective[s0] * 0.5 + m.objective[s1] * 0.5
    assert benefit == pytest.approx(72.0)


def test_nonconvex_cost_rejected_by_builder():
    from cppa.netio import Generator
    m = ModelIR()
    bad = Generator(1, 1, 0.0, 1.0, 0.0, 0.0, ((0.5, 20.0), (1.0, 10.0)),
                    0.0, 0.0, 0.0, True)
    with pytest.raises(ModelError, match="non-convex"):
        modelmod.build_generator_block(bad, m)


def test_nonconcave_benefit_rejected_by_builder():
    bad = mk_load(1, 1, 1.0, [(0.5, 10.0), (1.0, 20.0)])
    with pytest.raises(ModelError, match="load 1: non-concave"):
        modelmod.build_load_block(bad, ModelIR())


def test_cp_size_formulas(three_bus):
    m = build_cp_welfare(three_bus)
    # B=3, E=3, gen segs (2,1,1), load segs (2,1)
    assert len(m.variables) == 3 + 6 * 3 + (7 + 6 + 6) + (4 + 3)
    assert len(m.rows) == 2 * 3 + 4 * 3 + 7 * 3 + 2 * 2
    assert len(m.cones) == 3 * 3
    kinds = [c.kind for c in m.cones]
    assert kinds.count(JABR) == 3
    assert kinds.count(CURRENT_FROM) == 3
    assert kinds.count(CURRENT_TO) == 3


def test_dc_size_formulas(three_bus):
    m = build_dc_welfare(three_bus)
    assert len(m.variables) == 3 + 3 + (6 + 5 + 5) + (3 + 2)
    assert len(m.rows) == 3 + 3 * 3 + 5 * 3 + 2
    assert len(m.cones) == 0


def test_out_of_service_branch_excluded(three_bus):
    from cppa import netio
    reduced = netio.apply_contingency(three_bus, [2])
    m = build_cp_welfare(reduced)
    assert 2 not in m.branch_vars
    assert len(m.cones) == 3 * 2


def test_islanded_case_rejected(two_bus_lossless):
    from cppa import netio
    islanded = netio.apply_contingency(two_bus_lossless, [1])
    with pytest.raises(ModelError, match="islanded"):
        build_cp_welfare(islanded)
    with pytest.raises(ModelError, match="islanded"):
        build_dc_welfare(islanded)


def _lifted_point(case, m, vm, va):
    """Exact SOC lift of a polar voltage profile into the CP variables."""
    values = [0.0] * len(m.variables)
    for b in case.buses:
        values[m.v2_vars[b.id]] = vm[b.id] ** 2
    for br in case.branches:
        if not br.status:
            continue
        roles = m.branch_vars[br.id]
        vk, vmm = vm[br.from_bus], vm[br.to_bus]
        theta = va[br.from_bus] - va[br.to_bus]
        values[roles["c"]] = vk * vmm * math.cos(theta)
        values[roles["s"]] = vk * vmm * math.sin(theta)
        p_f, q_f, p_t, q_t = branch_flows(br, vk, vmm, theta)
        values[roles["P_from"]] = p_f
        values[roles["Q_from"]] = q_f
        values[roles["P_to"]] = p_t
        values[roles["Q_to"]] = q_t
    return values


def test_flow_rows_match_polar_equations(two_bus_lossy):
    # any lifted AC point must satisfy the linear flow-definition rows
    # exactly and make the rotated cone tight
    m = build_cp_welfare(two_bus_lossy)
    vm = {1: 1.03, 2: 0.97}
    va = {1: 0.0, 2: -0.07}
    values = _lifted_point(two_bus_lossy, m, vm, va)
    for row in m.rows:
        if row.name.startswith("e1_"):
            assert _row_residual(m, row, values) == pytest.approx(0.0, abs=1e-12)
    for cone in m.cones:
        v = cone.vars
        if cone.kind == JABR:
            viol = (values[v["c"]] ** 2 + values[v["s"]] ** 2
                    - values[v["v2_from"]] * values[v["v2_to"]])
            assert abs(viol) < 1e-12
        else:
            viol = (values[v["P"]] ** 2 + values[v["Q"]] ** 2
                    - cone.multiplier * values[v["v2"]])
            assert viol < 0.0  # limits slack at this mild operating point


def test_flat_start_reactive_flow_sign(two_bus_lossy):
    # flat start (v=1, theta=0): Q_km reduces to -B_ff - B_ft, which is
    # positive charging injection on a predominantly inductive line
    m = build_cp_welfare(two_bus_lossy)
    br = two_bus_lossy.branches[0]
    vm = {1: 1.0, 2: 1.0}
    va = {1: 0.0, 2: 0.0}
    values = _lifted_point(two_bus_lossy, m, vm, va)
    roles = m.branch_vars[br.id]
    y = br.admittance
    assert values[roles["Q_from"]] == pytest.approx(-y.b_ff - y.b_ft, abs=1e-12)
    assert values[roles["P_from"]] == pytest.approx(y.g_ff + y.g_ft, abs=1e-12)


def test_balance_row_orientation(two_bus_lossless):
    m = build_cp_welfare(two_bus_lossless)
    row = m.rows[m.bus_p_row[1]]
    assert row.sense == SENSE_EQ
    roles = m.branch_vars[1]
    gen_p = m.gen_vars[1]["p"]
    # outgoing flow enters +1, generation enters -1
    assert row.coeffs[roles["P_from"]] == 1.0
    assert row.coeffs[gen_p] == -1.0
    row2 = m.rows[m.bus_p_row[2]]
    load_p = m.load_vars[1]["p"]
    assert row2.coeffs[roles["P_to"]] == 1.0
    assert row2.coeffs[load_p] == 1.0


def test_dc_reference_bus_pinned(three_bus):
    m = build_dc_welfare(three_bus)
    ref = m.variables[m.theta_vars[1]]
    assert ref.lb == 0.0 and ref.ub == 0.0
    other = m.variables[m.theta_vars[2]]
    assert other.lb == -modelmod.INF and other.ub == modelmod.INF


def test_dc_flow_definition():
    # P = (theta_k - theta_m - shift) / (x * tap); check rhs encoding
    case = make_case(
        100.0,
        buses=[Bus(1, 0.95, 1.05), Bus(2, 0.95, 1.05)],
        branches=[mk_branch(1, 1, 2, 0.0, 0.2, tap=0.9, shift=0.05)],
        generators=[mk_gen(1, 1, 0.0, 1.0, -1.0, 1.0, [(1.0, 10.0)])],
        loads=[mk_load(1, 2, 0.5, [(0.5, 50.0)])],
    )
    m = build_dc_welfare(case)
    row = next(r for r in m.rows if r.name == "e1_Pdef")
    k = 1.0 / (0.2 * 0.9)
    tk, tm = m.theta_vars[1], m.theta_vars[2]
    p = m.branch_vars[1]["P_from"]
    assert row.coeffs[p] == 1.0
    assert row.coeffs[tk] == pytest.approx(-k)
    assert row.coeffs[tm] == pytest.approx(k)
    assert row.rhs == pytest.approx(-0.05 * k)


def test_relax_binaries_keeps_bounds(one_bus_market):
    m = build_cp_welfare(one_bus_market)
    assert m.binary_indices()
    r = m.relax_binaries()
    assert not r.binary_indices()
    j = m.gen_vars[1]["on"]
    assert r.variables[j].lb == 0.0 and r.variables[j].ub == 1.0
    # the original is untouched
    assert m.variables[j].binary


def test_lp_text_dump(one_bus_market):
    text = build_cp_welfare(one_bus_market).to_lp_text()
    assert text.startswith("Maximize")
    assert "Subject To" in text and "Bounds" in text
    assert "Binaries" in text and "g1_on" in text
    assert text.endswith("End\n")


def test_copy_is_deep(one_bus_market):
    m = build_cp_welfare(one_bus_market)
    c = m.copy()
    c.rows[0].coeffs[0] = 99.0
    c.variables[0].lb = -5.0
    assert m.rows[0].coeffs.get(0) != 99.0
    assert m.variables[0].lb != -5.0


def test_cp_lossless_welfare_value(two_bus_lossless):
    # gen mc 10, load mb 50, 0.5 p.u. cleared at base 100:
    # welfare = (50 - 10) * 50 MWh = 2000 $
    m = build_cp_welfare(two_bus_lossless).relax_binaries()
    sol = solver.solve_lp(m)
    assert sol.status == solver.OPTIMAL
    assert sol.objective == pytest.approx(2000.0, abs=1e-6)
