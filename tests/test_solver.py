import copy
import dataclasses
import functools
import itertools
import math
import sys
import time

import numpy as np
import pytest

from cppa import cuts, solver
from cppa.algorithm import CppaConfig, run_cppa
from cppa.model import INF, SENSE_EQ, SENSE_GE, SENSE_LE, ModelIR
from cppa.model import build_cp_welfare, build_dc_welfare
from cppa.netio import Bus, make_case
from cppa.solver import (AT_LOWER, AT_UPPER, BASIC, FEAS_TOL, FREE, INFEASIBLE, OPT_TOL,
                         OPTIMAL, STALL_LIMIT, SolverError, _start)

from conftest import benchmark_module, condenser, mk_branch, mk_gen, mk_load
from conftest import record_inverses, record_simplex, record_solve_lp
from conftest import clock_jumps_at


def _toy_lp():
    # max 3x + 2y s.t. x + y <= 4, 0 <= x <= 3, 0 <= y <= 3
    # optimum (3, 1), objective 11, row dual 2
    m = ModelIR()
    x = m.add_var("x", 0.0, 3.0)
    y = m.add_var("y", 0.0, 3.0)
    m.add_objective(x, 3.0)
    m.add_objective(y, 2.0)
    m.add_row("cap", {x: 1.0, y: 1.0}, SENSE_LE, 4.0)
    return m


def test_toy_lp_exact():
    sol = solver.solve_lp(_toy_lp())
    assert sol.status == solver.OPTIMAL
    assert sol.objective == pytest.approx(11.0, abs=1e-12)
    assert sol.primal[0] == pytest.approx(3.0, abs=1e-12)
    assert sol.primal[1] == pytest.approx(1.0, abs=1e-12)
    assert sol.duals[0] == pytest.approx(2.0, abs=1e-12)
    # x is at its upper bound with positive reduced cost 3 - 2 = 1
    assert sol.reduced_costs[0] == pytest.approx(1.0, abs=1e-12)


def test_toy_lp_kkt_clean():
    m = _toy_lp()
    rep = solver.kkt_report(m, solver.solve_lp(m))
    assert rep["primal"] <= 1e-12
    assert rep["dual"] <= 1e-12
    assert rep["complementarity"] <= 1e-12
    assert rep["gap"] <= 1e-12


def test_equality_and_ge_rows():
    # max x + y s.t. x + y = 2, x - y >= 0, x,y in [0,2]
    m = ModelIR()
    x = m.add_var("x", 0.0, 2.0)
    y = m.add_var("y", 0.0, 2.0)
    m.add_objective(x, 1.0)
    m.add_objective(y, 1.0)
    m.add_row("sum", {x: 1.0, y: 1.0}, SENSE_EQ, 2.0)
    m.add_row("ord", {x: 1.0, y: -1.0}, SENSE_GE, 0.0)
    sol = solver.solve_lp(m)
    assert sol.status == solver.OPTIMAL
    assert sol.objective == pytest.approx(2.0, abs=1e-12)
    assert sol.primal[0] + sol.primal[1] == pytest.approx(2.0, abs=1e-12)


def _infeasible_lp():
    m = ModelIR()
    x = m.add_var("x", 0.0, 1.0)
    m.add_objective(x, 1.0)
    m.add_row("force", {x: 1.0}, SENSE_EQ, 2.0)
    return m


def _unbounded_lp():
    m = ModelIR()
    x = m.add_var("x", 0.0, INF)
    y = m.add_var("y", -INF, INF)
    m.add_objective(x, 1.0)
    m.add_row("tie", {x: 1.0, y: -1.0}, SENSE_EQ, 0.0)
    return m


def _beale_lp():
    # classic degenerate LP that cycles under textbook most-negative
    # pricing; its optimum is 0.05
    m = ModelIR()
    x = [m.add_var(f"x{i}", 0.0, INF) for i in range(4)]
    for j, cj in zip(x, (0.75, -150.0, 0.02, -6.0)):
        m.add_objective(j, cj)
    m.add_row("r1", {x[0]: 0.25, x[1]: -60.0, x[2]: -1.0 / 25.0, x[3]: 9.0},
              SENSE_LE, 0.0)
    m.add_row("r2", {x[0]: 0.5, x[1]: -90.0, x[2]: -1.0 / 50.0, x[3]: 3.0},
              SENSE_LE, 0.0)
    m.add_row("r3", {x[2]: 1.0}, SENSE_LE, 1.0)
    return m


def test_infeasible_detected():
    sol = solver.solve_lp(_infeasible_lp())
    assert sol.status == solver.INFEASIBLE


def test_unbounded_detected():
    sol = solver.solve_lp(_unbounded_lp())
    assert sol.status == solver.UNBOUNDED


def test_beale_cycling_example_terminates():
    # the stall-triggered Bland rule must reach the optimum
    sol = solver.solve_lp(_beale_lp())
    assert sol.status == solver.OPTIMAL
    assert sol.objective == pytest.approx(0.05, abs=1e-10)


def _kkt_report_loops(model, sol):
    """kkt_report as Python loops over rows and columns: the reference for
    the vectorized one."""
    A, b, c, lb, ub, n = solver.standard_form(model)
    x = sol.primal
    y = sol.duals
    d = c[:n] - A[:, :n].T @ y

    primal = 0.0
    for j in range(n):
        if lb[j] > -INF:
            primal = max(primal, lb[j] - x[j])
        if ub[j] < INF:
            primal = max(primal, x[j] - ub[j])
    act = A[:, :n] @ x
    comp = 0.0
    dual = 0.0
    for i, row in enumerate(model.rows):
        res = act[i] - b[i]
        if row.sense == SENSE_EQ:
            primal = max(primal, abs(res))
        elif row.sense == SENSE_LE:
            primal = max(primal, res)
            dual = max(dual, -y[i])
            comp = max(comp, abs(y[i] * min(res, 0.0)))
        else:
            primal = max(primal, -res)
            dual = max(dual, y[i])
            comp = max(comp, abs(y[i] * max(res, 0.0)))

    dual_obj = float(y @ b)
    span_tol = 1e-7
    for j in range(n):
        interior = ((lb[j] == -INF or x[j] > lb[j] + span_tol) and
                    (ub[j] == INF or x[j] < ub[j] - span_tol))
        if interior:
            dual = max(dual, abs(d[j]))
        elif ub[j] < INF and abs(x[j] - ub[j]) <= span_tol and not (
                lb[j] > -INF and abs(x[j] - lb[j]) <= span_tol):
            dual = max(dual, -d[j])
        elif lb[j] > -INF and abs(x[j] - lb[j]) <= span_tol and not (
                ub[j] < INF and abs(x[j] - ub[j]) <= span_tol):
            dual = max(dual, d[j])
        if d[j] > 0.0:
            if ub[j] < INF:
                dual_obj += d[j] * ub[j]
            else:
                dual = max(dual, d[j])
        elif d[j] < 0.0:
            if lb[j] > -INF:
                dual_obj += d[j] * lb[j]
            else:
                dual = max(dual, -d[j])
        comp = max(comp, abs(max(d[j], 0.0) * (ub[j] - x[j])) if ub[j] < INF else 0.0)
        comp = max(comp, abs(min(d[j], 0.0) * (x[j] - lb[j])) if lb[j] > -INF else 0.0)
    gap = abs(sol.objective - dual_obj) / max(1.0, abs(sol.objective))
    return {"primal": primal, "dual": dual, "complementarity": comp, "gap": gap}


@pytest.mark.parametrize("fixture", ["two_bus_lossless", "two_bus_lossy", "three_bus",
                                     "three_bus_line", "one_bus_market",
                                     "block_unit_market"])
@pytest.mark.parametrize("build", [build_dc_welfare, build_cp_welfare], ids=["dc", "cp"])
def test_kkt_report_matches_its_loop_reference(fixture, build, request):
    # at the optimum, and at points off it: the primal, the duals or both
    # moved, by steps that leave some columns at their bounds and some not
    m = build(request.getfixturevalue(fixture))
    sol = solver.solve_lp(m)
    rng = np.random.default_rng(7)
    points = [sol]
    for scale in (1e-8, 1e-3, 1.0):
        dx = rng.normal(0.0, scale, sol.primal.size) * (rng.random(sol.primal.size) < 0.5)
        dy = rng.normal(0.0, 100.0 * scale, sol.duals.size)
        points += [dataclasses.replace(sol, primal=sol.primal + dx),
                   dataclasses.replace(sol, duals=sol.duals + dy),
                   dataclasses.replace(sol, primal=sol.primal + dx, duals=sol.duals + dy)]
    for point in points:
        ref = _kkt_report_loops(m, point)
        rep = solver.kkt_report(m, point)
        assert rep.keys() == ref.keys()
        for key, value in ref.items():
            assert rep[key] == pytest.approx(value, rel=0.0, abs=1e-12), key


def test_kkt_report_counts_a_reduced_cost_toward_an_infinite_bound():
    # x sits below its lower bound, so only the rule for a reduced cost
    # that points at an infinite bound reports the dual infeasibility
    m = ModelIR()
    x = m.add_var("x", 0.0, INF)
    m.add_objective(x, 5.0)
    m.add_row("cap", {x: 1.0}, SENSE_LE, 10.0)
    point = solver.LpSolution(solver.OPTIMAL, np.array([-1.0]), np.array([0.0]),
                              np.array([5.0]), -5.0)
    rep = solver.kkt_report(m, point)
    assert rep == _kkt_report_loops(m, point)
    assert rep["dual"] == 5.0


def test_dc_economy_duals(two_bus_lossless):
    m = build_dc_welfare(two_bus_lossless).relax_binaries()
    sol = solver.solve_lp(m)
    assert sol.status == solver.OPTIMAL
    assert sol.objective == pytest.approx(2000.0, abs=1e-9)
    # marginal unit sets a uniform 10 $/MWh price at both buses
    for bus_id in (1, 2):
        lam = sol.duals[m.bus_p_row[bus_id]] / 100.0
        assert lam == pytest.approx(10.0, abs=1e-9)


def test_lp_duality_invariant_on_network_models(three_bus):
    for build in (build_dc_welfare, build_cp_welfare):
        m = build(three_bus).relax_binaries()
        sol = solver.solve_lp(m)
        assert sol.status == solver.OPTIMAL
        rep = solver.kkt_report(m, sol)
        assert rep["primal"] <= 1e-7
        assert rep["dual"] <= 1e-7
        assert rep["gap"] <= 1e-6


def test_warm_start_from_optimal_basis(three_bus):
    m = build_dc_welfare(three_bus).relax_binaries()
    cold = solver.solve_lp(m)
    warm = solver.solve_lp(m, basis_hint=cold.basis_status)
    assert warm.status == solver.OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
    assert warm.iterations == 1  # optimality verified on the first pass


def test_deterministic_repeat(three_bus):
    m = build_cp_welfare(three_bus).relax_binaries()
    a = solver.solve_lp(m)
    b = solver.solve_lp(m)
    assert a.iterations == b.iterations
    np.testing.assert_array_equal(a.primal, b.primal)
    np.testing.assert_array_equal(a.duals, b.duals)


def test_identical_agents_tie_break_to_lower_id():
    case = make_case(
        1.0,
        buses=[Bus(1, 0.95, 1.05)],
        branches=[],
        generators=[mk_gen(1, 1, 0.0, 0.5, 0.0, 0.0, [(0.5, 10.0)]),
                    mk_gen(2, 1, 0.0, 0.5, 0.0, 0.0, [(0.5, 10.0)])],
        loads=[mk_load(1, 1, 0.5, [(0.5, 50.0)])],
    )
    m = build_dc_welfare(case).relax_binaries()
    sol = solver.solve_lp(m)
    assert sol.status == solver.OPTIMAL
    p1 = sol.primal[m.gen_vars[1]["p"]]
    p2 = sol.primal[m.gen_vars[2]["p"]]
    assert p1 == pytest.approx(0.5, abs=1e-9)
    assert p2 == pytest.approx(0.0, abs=1e-9)


def test_fix_binaries_rejects_fractional(one_bus_market):
    m = build_cp_welfare(one_bus_market)
    j = m.gen_vars[1]["on"]
    with pytest.raises(solver.SolverError, match="non-integral"):
        solver.fix_binaries(m, {j: 0.5})


def test_milp_matches_exhaustive_enumeration(block_unit_market):
    m = build_cp_welfare(block_unit_market)
    bins = m.binary_indices()
    assert len(bins) == 6
    milp = solver.solve_milp(m)
    assert milp.status == solver.OPTIMAL

    best = -float("inf")
    for mask in range(2 ** len(bins)):
        fixes = {j: float((mask >> k) & 1) for k, j in enumerate(bins)}
        sol = solver.solve_lp(solver.fix_binaries(m, fixes))
        if sol.status == solver.OPTIMAL:
            best = max(best, sol.objective)
    assert milp.objective == pytest.approx(best, abs=1e-6)
    assert milp.bound >= milp.objective - 1e-6


def test_milp_on_integral_relaxation(one_bus_market):
    m = build_cp_welfare(one_bus_market)
    relaxed = solver.solve_lp(m.relax_binaries())
    milp = solver.solve_milp(m)
    assert milp.status == solver.OPTIMAL
    # the relaxation is integral here, so no branching gap
    assert milp.objective == pytest.approx(relaxed.objective, abs=1e-9)


def test_milp_fix_and_resolve_round_trip(block_unit_market):
    m = build_cp_welfare(block_unit_market)
    milp = solver.solve_milp(m)
    fixes = {j: milp.primal[j] for j in m.binary_indices()}
    sol = solver.solve_lp(solver.fix_binaries(m, fixes))
    assert sol.status == solver.OPTIMAL
    assert sol.objective == pytest.approx(milp.objective, abs=1e-9)


def test_block_unit_welfare_value(block_unit_market):
    # hand oracle: committing the 0.4 block at mc 5 + 10 no-load and
    # topping up 0.2 from the flexible unit at mc 10 serves 0.6 at mb 100:
    # 60 - (2 + 10 + 2) = 46
    milp = solver.solve_milp(build_cp_welfare(block_unit_market))
    assert milp.objective == pytest.approx(46.0, abs=1e-9)


def _violated_cut_model(case):
    """The CP relaxation, its cold solution, and the same model with one
    max-distance cut that this solution violates."""
    m = build_cp_welfare(case).relax_binaries()
    sol = solver.solve_lp(m)
    worst = max(m.cones, key=lambda cone: cuts.cone_violation(sol.primal, cone))
    cut_model = m.copy()
    cut_model.rows.append(cuts.max_distance_cut(sol.primal, worst).to_row(cut_model))
    return sol, cut_model


def test_warm_start_with_violated_cut_row(three_bus):
    sol, m = _violated_cut_model(three_bus)
    cold = solver.solve_lp(m)
    # the new cut's slack enters basic, below its bound of zero
    hint = np.append(sol.basis_status, solver.BASIC).astype(np.int8)
    warm = solver.solve_lp(m, basis_hint=hint)
    assert cold.status == warm.status == solver.OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
    np.testing.assert_allclose(warm.duals, cold.duals, rtol=0.0, atol=1e-9)
    assert warm.iterations < cold.iterations


def test_a_hint_one_basic_column_short_is_repaired(three_bus):
    # the optimal statuses with one basic column sent nonbasic: the repair
    # gives a row its slack, and the solve starts from the repaired hint,
    # not from the crash
    m = build_cp_welfare(three_bus).relax_binaries()
    cold = solver.solve_lp(m)
    hint = cold.basis_status.copy()
    hint[np.flatnonzero(hint == solver.BASIC)[0]] = solver.AT_LOWER
    warm = solver.solve_lp(m, basis_hint=hint)
    assert warm.status == cold.status == solver.OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=0.0)
    assert max(solver.kkt_report(m, warm).values()) <= 1e-9
    assert warm.iterations < cold.iterations


def _ring_case(n_bus):
    """Lossy ring with gens at odd buses, loads and reactive slack at even
    ones; its CP relaxation takes about 5 pivots per bus from the crash
    basis (87 at 16 buses) and 11 from the slack basis."""
    odd, even = range(1, n_bus + 1, 2), range(2, n_bus + 1, 2)
    return make_case(
        100.0,
        buses=[Bus(i, 0.95, 1.05) for i in range(1, n_bus + 1)],
        branches=[mk_branch(i, i, i % n_bus + 1, 0.01 + 0.002 * i,
                            0.1 + 0.01 * i, b_c=0.02, max_angle_diff=0.4)
                  for i in range(1, n_bus + 1)],
        generators=[mk_gen(i, i, 0.0, 1.0, -2.0, 2.0,
                           [(0.5, 10.0 + 3 * i), (1.0, 14.0 + 3 * i)])
                    for i in odd] + [condenser(100 + i, i) for i in even],
        loads=[mk_load(i, i, 0.6, [(0.3, 80.0 - 2 * i), (0.6, 40.0 - i)])
               for i in even],
    )


def test_kkt_clean_past_the_refactorization_interval():
    m = build_cp_welfare(_ring_case(16)).relax_binaries()
    sol = solver.solve_lp(m)
    assert sol.status == solver.OPTIMAL
    assert sol.iterations > solver.REFACTOR_INTERVAL
    assert max(solver.kkt_report(m, sol).values()) <= 1e-9


def test_hint_at_an_infinite_bound_falls_back_to_cold(three_bus_line):
    m = build_dc_welfare(three_bus_line)
    cold = solver.solve_lp(m)
    # the cold start's own statuses, the crash's, which leave the angle at
    # bus 3 nonbasic AT_LOWER, at its lower bound of -inf: one basic column
    # per row, yet no finite starting point
    A, _, _, lb, ub, _ = solver.standard_form(m)
    hint = solver.crash(A, lb, ub)
    assert ((hint == solver.AT_LOWER) & (lb == -INF)).any()
    warm = solver.solve_lp(m, basis_hint=hint)
    assert warm.status == cold.status == solver.OPTIMAL
    # the cold start places its boxed columns by their reduced costs, the
    # hint by its statuses: the two reach optima of one LP, whose duals
    # need not be the same
    assert warm.objective == pytest.approx(cold.objective, rel=1e-12, abs=0.0)
    assert max(solver.kkt_report(m, warm).values()) <= 1e-9


WARM_CASES = [("block_unit_market", build_dc_welfare),
              ("block_unit_market", build_cp_welfare),
              ("three_bus", build_dc_welfare),
              ("three_bus", build_cp_welfare)]
WARM_IDS = ["block_unit-dc", "block_unit-cp", "three_bus-dc", "three_bus-cp"]


@pytest.mark.parametrize("fixture, build", WARM_CASES, ids=WARM_IDS)
def test_milp_root_warm_from_the_optimal_lp_basis(fixture, build, request,
                                                  monkeypatch):
    m = build(request.getfixturevalue(fixture))
    root = solver.solve_lp(m)
    cold = solver.solve_milp(m)
    calls = record_simplex(monkeypatch)
    warm = solver.solve_milp(m, carry=solver.CarriedLp(m, root.basis_status))
    np.testing.assert_array_equal(calls[0][0], root.basis_status)
    assert calls[0][1] == 1
    assert warm.status == cold.status == solver.OPTIMAL
    assert warm.nodes == cold.nodes
    assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
    np.testing.assert_allclose(warm.primal, cold.primal, rtol=0.0, atol=1e-9)
    assert warm.lp_iterations == cold.lp_iterations - root.iterations + 1


@pytest.mark.parametrize("fixture, build", WARM_CASES, ids=WARM_IDS)
def test_milp_root_hint_of_wrong_length_falls_back_to_cold(fixture, build,
                                                           request):
    m = build(request.getfixturevalue(fixture))
    hint = solver.solve_lp(m).basis_status[:-1]
    cold_lp, warm_lp = solver.CarriedLp(m), solver.CarriedLp(m, hint)
    cold = solver.solve_milp(m, carry=cold_lp)
    warm = solver.solve_milp(m, carry=warm_lp)
    assert (warm.status, warm.nodes, warm.lp_iterations) == (
        cold.status, cold.nodes, cold.lp_iterations)
    np.testing.assert_array_equal(warm.primal, cold.primal)
    np.testing.assert_array_equal(warm_lp.status, cold_lp.status)


@pytest.mark.parametrize("fixture, build", WARM_CASES, ids=WARM_IDS)
def test_milp_basis_status_is_a_basis_of_the_fixed_lp(fixture, build, request):
    # the incumbent node's statuses, which the MILP leaves on its carry
    m = build(request.getfixturevalue(fixture))
    carry = solver.CarriedLp(m)
    milp = solver.solve_milp(m, carry=carry)
    assert carry.status.size == len(m.variables) + len(m.rows)
    assert np.count_nonzero(carry.status == solver.BASIC) == len(m.rows)
    fixed = solver.fix_binaries(m, {j: milp.primal[j] for j in m.binary_indices()})
    cold = solver.solve_lp(fixed)
    warm = solver.solve_lp(fixed, basis_hint=carry.status)
    assert warm.iterations <= 2 < cold.iterations
    assert warm.objective == pytest.approx(cold.objective, abs=1e-9)


def test_milp_deadline_in_the_past_stops_before_the_root(block_unit_market):
    m = build_cp_welfare(block_unit_market)
    milp = solver.solve_milp(m, deadline=time.perf_counter() - 1.0)
    assert milp.status == solver.TIME_LIMIT
    assert milp.primal is None
    assert (milp.nodes, milp.lp_iterations) == (0, 0)
    assert solver.solve_milp(m, deadline=time.perf_counter() + 60.0).status == (
        solver.OPTIMAL)


def test_the_iteration_cap_raises_instead_of_ending_the_lp(block_unit_market,
                                                          monkeypatch):
    # an LP stopped at the cap has no verdict: solve_lp raises, and
    # solve_milp raises instead of pruning the node as if infeasible
    monkeypatch.setattr(solver, "ITERATION_FACTOR", 0)
    with pytest.raises(SolverError, match="iteration limit 0 reached"):
        solver.solve_lp(_toy_lp())
    with pytest.raises(SolverError, match="iteration limit 0 reached"):
        solver.solve_milp(build_cp_welfare(block_unit_market))


def _twin_columns_lp():
    # x and y have the same column, so a basis holding both is singular,
    # though it has one basic column per row and no infinite bound; the
    # optimum (3, 1) and its duals (2, 0) are unique
    m = ModelIR()
    x = m.add_var("x", 0.0, 3.0)
    y = m.add_var("y", 0.0, 3.0)
    m.add_objective(x, 3.0)
    m.add_objective(y, 2.0)
    m.add_row("cap", {x: 1.0, y: 1.0}, SENSE_LE, 4.0)
    m.add_row("cap2", {x: 1.0, y: 1.0}, SENSE_LE, 5.0)
    hint = np.array([solver.BASIC, solver.BASIC, solver.AT_LOWER, solver.AT_LOWER],
                    dtype=np.int8)
    return m, hint


def test_a_singular_hint_is_repaired():
    # the start basis {x, y} is singular: the repair every hint takes
    # sends y nonbasic and gives its row its slack, and the solve goes on
    # from x basic instead of from the crash basis
    m, hint = _twin_columns_lp()
    repaired = solver.repair_basis(solver.standard_form(m)[0], hint)
    assert repaired[0] == BASIC and repaired[1] != BASIC
    assert np.count_nonzero(repaired[2:] == BASIC) == 1
    warm = solver.solve_lp(m, basis_hint=hint)
    assert warm.status == solver.OPTIMAL
    np.testing.assert_allclose(warm.primal, [3.0, 1.0], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(warm.duals, [2.0, 0.0], rtol=0.0, atol=1e-12)


def test_a_long_step_finds_its_leaving_row():
    # the step is 20000, where 20000 + 1e-12 rounds to 20000: the tie
    # window must still hold the row that sets it
    m = ModelIR()
    x = m.add_var("x", 0.0, INF)
    m.add_objective(x, 1.0)
    m.add_row("cap", {x: 1.0}, SENSE_LE, 20000.0)
    sol = solver.solve_lp(m)
    assert sol.status == solver.OPTIMAL
    assert sol.objective == 20000.0


def test_singular_basis_at_a_refactorization_is_repaired():
    # a start factor of the singular basis {x, y}, due for a refresh: the
    # refactorization finds it singular, sends y nonbasic, gives its row
    # its slack and goes on to the optimum
    m, hint = _twin_columns_lp()
    A, b, c, lb, ub, n = solver.standard_form(m)
    factor = (np.array([0, 1]), np.eye(2), solver.REFACTOR_INTERVAL)
    status, x, y, _, _, _, _ = solver.simplex(A, b, c, lb, ub, basis_hint=hint,
                                              factor=factor)
    assert status == solver.OPTIMAL
    np.testing.assert_allclose(x[:n], [3.0, 1.0], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(y, [2.0, 0.0], rtol=0.0, atol=1e-12)


def test_a_basis_repaired_inside_the_dual_phase_reaches_the_cold_answer(monkeypatch):
    # with a refresh due after every third update, one falls inside a dual
    # phase; its inverse raises SingularBasisError once, so refresh
    # repairs the basis and the dual phase prices it as after any fresh
    # inverse. Whichever loop then takes it, every LP of the run reaches
    # its cold answer. The KKT residuals are absolute, in $ on objectives
    # of about 5e3, and reach 2.5e-9 on this run's later LPs without any
    # repair, so they are held relative to the objective
    gen = benchmark_module("gen")
    shape, config = GENERATED_RUNS["cp-ch"]
    inverse = solver.basis_inverse
    raised = []

    def failing(A, basis):
        frame = sys._getframe(1)
        if not raised and frame.f_code.co_name == "refresh":
            while frame.f_code.co_name != "simplex":
                frame = frame.f_back
            if "bland" not in frame.f_locals:  # the primal loop has not begun
                raised.append(frame.f_locals["it"])
                raise solver.SingularBasisError("singular basis")
        return inverse(A, basis)

    monkeypatch.setattr(solver, "REFACTOR_INTERVAL", 3)
    monkeypatch.setattr(solver, "basis_inverse", failing)
    calls = record_solve_lp(monkeypatch)
    assert run_cppa(gen.make_case(gen.CaseSpec(**shape), 1, 0), config).status == OPTIMAL
    monkeypatch.undo()
    assert raised
    for model, _, sol in calls:
        cold = solver.solve_lp(model)
        scale = max(1.0, abs(cold.objective))
        assert sol.status == cold.status == OPTIMAL
        assert abs(sol.objective - cold.objective) <= 1e-9 * scale
        assert max(solver.kkt_report(model, sol).values()) <= 1e-9 * scale


def test_a_permuted_slack_basis_is_refactorized_as_its_permutation(monkeypatch):
    # max 4x + 3y, 0 <= x <= 1, -2 <= y <= 2, -2x + 2y <= 2, -3x <= -2;
    # optimum (1, 2). From the slack basis with x and y at their lower
    # bounds, and taken afresh after every pivot, the inverse meets a
    # basis of the two slacks, each at the other's row: its kernel is
    # empty, and the inverse built around it is that permutation, not I
    monkeypatch.setattr(solver, "REFACTOR_INTERVAL", 1)
    m = ModelIR()
    x = m.add_var("x", 0.0, 1.0)
    y = m.add_var("y", -2.0, 2.0)
    m.add_objective(x, 4.0)
    m.add_objective(y, 3.0)
    m.add_row("r0", {x: -2.0, y: 2.0}, SENSE_LE, 2.0)
    m.add_row("r1", {x: -3.0}, SENSE_LE, -2.0)
    inverted = []
    inverse = solver.basis_inverse

    def recording(A, basis):
        Binv = inverse(A, basis)
        inverted.append((basis.tolist(), Binv))
        return Binv

    monkeypatch.setattr(solver, "basis_inverse", recording)
    args, kw = _lp_of(m, basis_hint=np.array([AT_LOWER, AT_LOWER, BASIC, BASIC], dtype=np.int8))
    status, got, *_ = solver.simplex(*args, **kw)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert any(basis == [3, 2] and np.array_equal(Binv, swap) for basis, Binv in inverted)
    assert status == solver.OPTIMAL
    np.testing.assert_array_equal(got[:2], [1.0, 2.0])
    assert np.abs(args[0] @ got - args[1]).max() <= FEAS_TOL


def test_a_clean_verdict_takes_no_inverse(three_bus, monkeypatch):
    inverses = record_inverses(monkeypatch)
    sol = solver.solve_lp(build_cp_welfare(three_bus))
    assert sol.status == solver.OPTIMAL
    assert inverses == [("start",)]  # the crash basis's; the verdict takes none


def test_a_drifted_inverse_is_refactorized_before_the_verdict(three_bus, monkeypatch):
    # a carried start at the optimal basis whose inverse is off by about
    # 1e-6 relative, entry by entry, with an update counted since it was
    # last inverted: the verdict's residual test fails, and the fresh
    # inverse it takes gives the answer of a clean solve from the basis it
    # ends at. The drift moves scores of zero above OPT_TOL, so on this
    # dual-degenerate LP it may pivot to another optimal vertex, whose
    # duals differ from the cold solve's
    lp = solver.CarriedLp(build_cp_welfare(three_bus))
    clean = lp.solve()
    basis, Binv, _ = lp.factor
    drift = 1e-6 * np.random.default_rng(0).normal(size=Binv.shape)
    lp.factor = (basis, Binv * (1.0 + drift), 1)
    inverses = record_inverses(monkeypatch)
    sol = lp.solve()
    (verdict, primal, dual), = inverses
    assert verdict == "verdict"
    assert primal > solver.FEAS_TOL or dual > solver.OPT_TOL
    fresh = solver.solve_lp(lp.model, basis_hint=sol.basis_status)
    assert fresh.iterations == 1
    assert sol.status == clean.status == fresh.status == solver.OPTIMAL
    assert sol.objective == pytest.approx(clean.objective, abs=1e-9)
    np.testing.assert_allclose(sol.duals, fresh.duals, rtol=0.0, atol=1e-9)
    assert max(solver.kkt_report(lp.model, sol).values()) <= 1e-9


def test_a_verdict_past_the_deadline_returns_time_limit(three_bus, monkeypatch):
    # the drifted carried start above, solved twice: on time, the verdict's
    # residual check takes the solve's one fresh inverse; with the deadline
    # passed, that check stops the solve at the same iteration instead
    lp = solver.CarriedLp(build_cp_welfare(three_bus))
    lp.solve()
    basis, Binv, _ = lp.factor
    drift = 1e-6 * np.random.default_rng(0).normal(size=Binv.shape)
    lp.factor = (basis, Binv * (1.0 + drift), 1)
    late = copy.deepcopy(lp)
    inverses = record_inverses(monkeypatch)
    on_time = lp.solve()
    assert on_time.status == solver.OPTIMAL
    assert [why for why, *_ in inverses] == ["verdict"]
    inverses.clear()
    sol = late.solve(deadline=time.perf_counter() - 1.0)
    assert sol.status == solver.TIME_LIMIT
    assert inverses == []
    assert sol.iterations == on_time.iterations


def test_lp_deadline_stops_the_simplex_at_a_refactorization(monkeypatch):
    m = build_cp_welfare(_ring_case(16))
    cold = solver.solve_lp(m)
    clock_jumps_at(monkeypatch, "simplex")
    sol = solver.solve_lp(m, deadline=time.perf_counter() + 60.0)
    assert sol.status == solver.TIME_LIMIT
    # bound flips are iterations without an update of the inverse
    assert solver.REFACTOR_INTERVAL < sol.iterations < cold.iterations
    assert math.isnan(sol.objective)


def test_milp_deadline_reaches_the_node_lps(monkeypatch):
    # the clock jumps inside the root LP, which takes more pivots than
    # REFACTOR_INTERVAL: the search stops there, not after the root
    m = build_cp_welfare(_ring_case(16))
    root = solver.solve_lp(m)
    clock_jumps_at(monkeypatch, "simplex")
    milp = solver.solve_milp(m, deadline=time.perf_counter() + 60.0)
    assert milp.status == solver.TIME_LIMIT
    assert milp.primal is None
    assert milp.nodes == 1
    assert solver.REFACTOR_INTERVAL < milp.lp_iterations < root.iterations


def test_hint_places_a_free_status_at_a_finite_bound():
    # x in [1, 3] marked FREE: it starts at its lower bound 1, not at 0
    m = ModelIR()
    x = m.add_var("x", 1.0, 3.0)
    y = m.add_var("y", 0.0, 3.0)
    m.add_objective(y, 2.0)
    m.add_row("x_cap", {x: 1.0}, SENSE_LE, 5.0)
    m.add_row("y_cap", {y: 1.0}, SENSE_LE, 4.0)
    hint = np.array([solver.FREE, solver.AT_LOWER, solver.BASIC, solver.BASIC])
    sol = solver.solve_lp(m, basis_hint=hint)
    assert sol.status == solver.OPTIMAL
    assert sol.primal[0] == 1.0
    assert sol.objective == 6.0
    assert solver.kkt_report(m, sol)["primal"] == 0.0


def _commitments(case, model):
    """Every assignment of ``on`` per generator, with su and sd set by its
    initial state, as binary fixes over ``model``."""
    gens = [(model.gen_vars[g.id], float(g.initial_on)) for g in case.generators]
    for ons in itertools.product((0.0, 1.0), repeat=len(gens)):
        fixes = {}
        for (roles, init), on in zip(gens, ons):
            fixes.update({roles["on"]: on, roles["su"]: max(on - init, 0.0),
                          roles["sd"]: max(init - on, 0.0)})
        yield fixes


def test_milp_bound_is_not_below_the_enumerated_optimum(monkeypatch):
    # the cut-loop MILP against every commitment, enumerated: its bound
    # covers the optimum, and its incumbent, a feasible point, is not above
    # it, to the rounding of two LP solves (here the two differ by about
    # 1e-14, relative, either way)
    gen = benchmark_module("gen")
    case = gen.make_case(gen.CaseSpec(6, 2, blocks=2), 1, 2)
    calls = []
    solve_milp = solver.solve_milp

    def recording(model, **kw):
        # the incumbent node's statuses, before the pricing LP moves on
        calls.append((model, solve_milp(model, **kw), kw["carry"].status.copy()))
        return calls[-1][1]

    monkeypatch.setattr(solver, "solve_milp", recording)
    run_cppa(case, CppaConfig(pricing_rule="ip"))
    (m, milp, incumbent), = calls
    assert milp.status == solver.OPTIMAL
    assert len(m.binary_indices()) == 3 * len(case.generators) == 24

    best = -INF
    for fixes in _commitments(case, m):
        sol = solver.solve_lp(solver.fix_binaries(m, fixes), basis_hint=incumbent)
        if sol.status == solver.OPTIMAL:
            best = max(best, sol.objective)
    assert milp.objective <= best + 1e-12 * max(1.0, abs(best))
    assert milp.bound >= best - 1e-6


# --- the simplex's rarer paths, judged by their answers ---------------------

def _lp_of(model, **kw):
    A, b, c, lb, ub, _ = solver.standard_form(model)
    return (A, b, c, lb, ub), kw


def _milp_child(case):
    """A branch-and-bound child of the case's DC root: the root's standard
    form with its most fractional binary fixed, started from the root's
    statuses and terminal factor."""
    m = build_dc_welfare(case)
    A, b, c, lb, ub, _ = solver.standard_form(m)
    bins = np.array(m.binary_indices())
    lb[bins], ub[bins] = np.maximum(lb[bins], 0.0), np.minimum(ub[bins], 1.0)
    _, x, _, _, statuses, factor, _ = solver.simplex(A, b, c, lb, ub)
    frac = np.abs(x[bins] - np.round(x[bins]))
    assert frac.max() > solver.INT_TOL
    lb, ub = lb.copy(), ub.copy()
    lb[bins[frac.argmax()]] = ub[bins[frac.argmax()]] = 0.0
    return (A, b, c, lb, ub), {"basis_hint": statuses, "factor": factor}


def _phase1_hint(case):
    """The CP relaxation with one violated cut, started from the cut-free
    optimum's statuses and the cut's slack basic (below its bound)."""
    sol, m = _violated_cut_model(case)
    return _lp_of(m, basis_hint=np.append(sol.basis_status, solver.BASIC).astype(np.int8))


def _slack_start(model):
    """The model's LP with the slack basis as its hint: the ring's takes
    91 pivots from there, past REFACTOR_INTERVAL, against 39 from
    the crash basis."""
    n, m = len(model.variables), len(model.rows)
    return _lp_of(model, basis_hint=np.array([AT_LOWER] * n + [BASIC] * m, dtype=np.int8))


def _repaired():
    """A due refactorization that finds its basis singular."""
    m, hint = _twin_columns_lp()
    factor = (np.array([0, 1]), np.eye(2), solver.REFACTOR_INTERVAL)
    return _lp_of(m, basis_hint=hint, factor=factor)


FIXTURES = ("two_bus_lossless", "two_bus_lossy", "three_bus", "three_bus_line",
            "one_bus_market", "block_unit_market")
BUILDS = {"dc": build_dc_welfare, "cp": build_cp_welfare}

# name -> (request -> (simplex arguments, keyword arguments)): each
# fixture's DC and CP relaxation, started cold, and LPs that take the
# simplex's rarer paths
SOLVER_LPS = {
    **{f"{kind}-{fixture}": (lambda request, fixture=fixture, build=build:
                             _lp_of(build(request.getfixturevalue(fixture))))
       for kind, build in BUILDS.items() for fixture in FIXTURES},
    "beale": lambda request: _lp_of(_beale_lp()),
    "infeasible": lambda request: _lp_of(_infeasible_lp()),
    "unbounded": lambda request: _lp_of(_unbounded_lp()),
    "phase1-hint": lambda request: _phase1_hint(_ring_case(4)),
    "milp-child": lambda request: _milp_child(request.getfixturevalue("block_unit_market")),
    "ring8-refactorizations": lambda request: _slack_start(build_cp_welfare(_ring_case(8))),
    "repaired-singular": lambda request: _repaired(),
}


def _answer_problems(args, kw):
    """The answer ladder's per-LP verdict (``ladder.lp_problems``) on one
    ``solver.simplex`` solve of the form ``args`` from the start ``kw``."""
    ladder = pytest.importorskip("ladder")  # HiGHS comes with scipy
    A, b, c, lb, ub = args
    n = A.shape[1] - A.shape[0]
    status, x, y, d, statuses, *_ = solver.simplex(A, b, c, lb, ub, **kw)
    objective = float(c @ x) if status == OPTIMAL else math.nan
    sol = solver.LpSolution(status, x[:n], y, d[:n], objective, x[n:], statuses)
    return ladder.lp_problems(ladder.Lp(A, b, c, lb, ub, n, sol))


@pytest.mark.parametrize("stall_limit", [STALL_LIMIT, 1], ids=["largest-d", "bland"])
@pytest.mark.parametrize("lp", SOLVER_LPS)
def test_each_solver_lp_reaches_the_highs_answer(lp, stall_limit, monkeypatch, request):
    # a stall limit of 1 hands every pivot after the first degenerate one
    # to Bland's rule, ties among degenerate rows included
    monkeypatch.setattr(solver, "STALL_LIMIT", stall_limit)
    problems = _answer_problems(*SOLVER_LPS[lp](request))
    assert not problems, problems


def _without_the_dual_phase(solve, *args, **kw):
    """``solve(*args, **kw)`` with the dual phase off: no basic bound
    violation exceeds an infinite DUAL_STOP_TOL, so every start goes
    straight to the primal loop."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "DUAL_STOP_TOL", math.inf)
        return solve(*args, **kw)


GENERATED_RUNS = {
    "cp-ch": (dict(buses=4, chords=1), CppaConfig(pricing_rule="ch")),
    "dc-ip-blocks": (dict(buses=12, chords=4, blocks=4, condensers=False),
                     CppaConfig(pricing_rule="ip", network_model="dc")),
}


def _run_iterations(case, config):
    """Simplex iterations over a run: its cut rounds' LPs and every node
    LP of its MILP."""
    res = run_cppa(case, config)
    assert res.status == solver.OPTIMAL
    return sum(res.lp_iterations) + (res.milp_lp_iterations or 0)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("run", GENERATED_RUNS)
def test_the_dual_phase_saves_iterations_over_a_run(run, seed):
    # warm cut rounds and branch-and-bound children start dual feasible;
    # the answers of these runs are the ladder's (tests/test_ladder.py)
    gen = benchmark_module("gen")
    shape, config = GENERATED_RUNS[run]
    case = gen.make_case(gen.CaseSpec(**shape), seed, 0)
    assert _run_iterations(case, config) < _without_the_dual_phase(
        _run_iterations, case, config)


# --- the dual phase ---------------------------------------------------------

def _start_state(A, b, c, lb, ub, basis_hint=None, factor=None, **_):
    """(largest score under the true costs, largest basic bound violation)
    of a start: the dual phase runs iff the first is at most OPT_TOL and
    the second exceeds DUAL_STOP_TOL."""
    status, x, basis, Binv = _start(basis_hint, A, c, lb, ub)
    if factor is not None:
        basis, Binv = factor[0], factor[1]
    x[basis] = 0.0
    xB = Binv @ (b - A @ x)
    d = c - (c[basis] @ Binv) @ A
    fixed = ub - lb <= 0.0
    score = np.where((status == AT_LOWER) & ~fixed, d,
                     np.where((status == AT_UPPER) & ~fixed, -d,
                              np.where(status == FREE, np.abs(d), 0.0)))
    return score.max(), np.maximum(lb[basis] - xB, xB - ub[basis]).max()


def _round_lps():
    """(model, basis_hint) of every loop LP of a 4-bus CP/CH run."""
    gen = benchmark_module("gen")
    with pytest.MonkeyPatch.context() as mp:
        calls = record_solve_lp(mp)
        run_cppa(gen.make_case(gen.CaseSpec(4, 1), 1, 0), CppaConfig(pricing_rule="ch"))
    return [(model, hint) for model, hint, _ in calls]


def _bnb_child(index, value):
    """The DC model of a generated dc_ip_commit-shaped case with the root's
    most fractional binary fixed to ``value``, its standard form, and the
    root's terminal statuses and factor, from which the child starts."""
    gen = benchmark_module("gen")
    m = build_dc_welfare(gen.make_case(
        gen.CaseSpec(12, 4, blocks=4, condensers=False), 1, index))
    A, b, c, lb, ub, _ = solver.standard_form(m)
    bins = np.array(m.binary_indices())
    lb[bins], ub[bins] = np.maximum(lb[bins], 0.0), np.minimum(ub[bins], 1.0)
    _, x, _, _, statuses, factor, _ = solver.simplex(A, b, c, lb, ub)
    j = bins[np.abs(x[bins] - np.round(x[bins])).argmax()]
    lb[j] = ub[j] = value
    child = m.copy()
    for k in bins:
        child.variables[k].lb, child.variables[k].ub = lb[k], ub[k]
    return child, (A, b, c, lb, ub), {"basis_hint": statuses, "factor": factor}


def test_a_warm_cut_round_takes_the_dual_phase():
    # round 3: the previous optimal basis plus violated cut rows' slacks
    model, hint = _round_lps()[2]
    args, kw = _lp_of(model, basis_hint=hint)
    score, violation = _start_state(*args, **kw)
    assert score <= OPT_TOL and violation > FEAS_TOL
    sol = solver.solve_lp(model, basis_hint=hint)
    primal = _without_the_dual_phase(solver.solve_lp, model, basis_hint=hint)
    assert sol.status == primal.status == solver.OPTIMAL
    assert sol.iterations < primal.iterations
    assert sol.objective == pytest.approx(primal.objective, rel=1e-12)
    assert max(solver.kkt_report(model, sol).values()) <= 1e-9


def test_a_branch_and_bound_child_takes_the_dual_phase():
    model, args, kw = _bnb_child(0, 0.0)
    score, violation = _start_state(*args, **kw)
    assert score <= OPT_TOL and violation > FEAS_TOL
    got = solver.simplex(*args, **kw)
    primal = _without_the_dual_phase(solver.simplex, *args, **kw)
    assert got[0] == primal[0] == solver.OPTIMAL
    assert got[-1] < primal[-1]
    n = len(model.variables)
    sol = solver.LpSolution(got[0], got[1][:n], got[2], got[3][:n], float(args[2] @ got[1]))
    assert sol.objective == pytest.approx(args[2] @ primal[1], rel=1e-12)
    assert max(solver.kkt_report(model, sol).values()) <= 1e-9


def test_an_infeasible_child_ends_the_dual_phase_on_a_dual_ray():
    # max -x s.t. x >= 2, 0 <= x <= 1, from the slack basis: dual feasible,
    # the slack violated. One dual pivot brings x in at 2, above its bound,
    # and no column can move x's row down (a dual ray): the dual phase hands
    # over, and phase 1 returns Infeasible without a pivot, with x basic.
    # Without the dual phase, the primal loop instead flips x to its bound
    # and keeps the slack basic.
    m = ModelIR()
    x = m.add_var("x", 0.0, 1.0)
    m.add_objective(x, -1.0)
    m.add_row("need", {x: 1.0}, SENSE_GE, 2.0)
    args, kw = _lp_of(m)
    assert _start_state(*args, **kw) == (0.0, 2.0)
    status, _, _, _, statuses, _, it = solver.simplex(*args)
    primal = _without_the_dual_phase(solver.simplex, *args)
    assert (status, it, statuses[x]) == (INFEASIBLE, 2, BASIC)
    assert (primal[0], primal[-1], primal[4][x]) == (INFEASIBLE, 2, AT_UPPER)

    # a branch-and-bound child of a generated DC/IP case that the fixed
    # binary makes infeasible
    _, args, kw = _bnb_child(3, 1.0)
    assert _start_state(*args, **kw)[0] <= OPT_TOL
    assert solver.simplex(*args, **kw)[0] == INFEASIBLE


def test_degenerate_dual_pivots_hand_over_to_the_primal_loop(monkeypatch):
    # round 2 takes a degenerate dual pivot: with a stall limit of 1 the
    # dual phase stops there, and the primal loop reaches the same optimum
    model, hint = _round_lps()[1]
    dual = solver.solve_lp(model, basis_hint=hint)
    monkeypatch.setattr(solver, "STALL_LIMIT", 1)
    sol = solver.solve_lp(model, basis_hint=hint)
    assert sol.status == dual.status == solver.OPTIMAL
    assert sol.iterations != dual.iterations
    assert sol.objective == pytest.approx(dual.objective, rel=1e-12)
    assert max(solver.kkt_report(model, sol).values()) <= 1e-9


def test_a_deadline_inside_the_dual_phase_stops_it(monkeypatch):
    # with a refactorization due every 2 updates, the check after the
    # second dual pivot finds the deadline passed, basic values still out
    # of their bounds
    model, hint = _round_lps()[1]
    assert solver.solve_lp(model, basis_hint=hint).iterations > 3
    monkeypatch.setattr(solver, "REFACTOR_INTERVAL", 2)
    sol = solver.solve_lp(model, basis_hint=hint, deadline=time.perf_counter() - 1.0)
    assert sol.status == solver.TIME_LIMIT
    assert sol.iterations == 3
    assert solver.kkt_report(model, dataclasses.replace(sol, objective=0.0))["primal"] > FEAS_TOL


def test_a_due_refactorization_past_the_deadline_returns_time_limit():
    # a start factor already at the refactorization interval: the deadline
    # check comes before any pricing of the loops
    m, hint = _twin_columns_lp()
    A, b, c, lb, ub, n = solver.standard_form(m)
    factor = (np.array([0, 1]), np.eye(2), solver.REFACTOR_INTERVAL)
    status, x, y, d, _, _, it = solver.simplex(A, b, c, lb, ub, basis_hint=hint,
                                               factor=factor,
                                               deadline=time.perf_counter() - 1.0)
    assert (status, it) == (solver.TIME_LIMIT, 1)
    assert y.shape == (2,) and d.shape == (4,)


# --- the cold start, the kernel inverse and the dual updates ---------------

def _run_solves(run, seed, monkeypatch, wrap):
    """Run the generated run ``run`` of ``seed`` with solver.simplex wrapped
    by ``wrap(simplex)``."""
    gen = benchmark_module("gen")
    shape, config = GENERATED_RUNS[run]
    monkeypatch.setattr(solver, "simplex", wrap(solver.simplex))
    assert run_cppa(gen.make_case(gen.CaseSpec(**shape), seed, 0), config).status == OPTIMAL
    monkeypatch.undo()


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("run", GENERATED_RUNS)
def test_every_cold_lp_starts_dual_feasible(run, seed, monkeypatch):
    # a cold start, from the crash basis, places each boxed column at the
    # bound its reduced cost prefers; the crash takes the free columns in
    cold = []

    def wrap(simplex):
        def recording(A, b, c, lb, ub, basis_hint=None, factor=None, **kw):
            if factor is None and (basis_hint is None or len(basis_hint) != A.shape[1]):
                cold.append((A.copy(), b.copy(), c.copy(), lb.copy(), ub.copy()))
            return simplex(A, b, c, lb, ub, basis_hint=basis_hint, factor=factor, **kw)
        return recording

    _run_solves(run, seed, monkeypatch, wrap)
    assert cold
    for args in cold:
        assert _start_state(*args)[0] <= OPT_TOL


def _relative_gap(got, want):
    return np.abs(got - want).max(initial=0.0) / max(1.0, np.abs(want).max(initial=0.0))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("run", GENERATED_RUNS)
def test_the_dual_phase_hands_over_the_state_of_a_fresh_pricing(run, seed, monkeypatch):
    # the dual phase moves y, d and x_B along each pivot instead of pricing
    # them afresh; at the hand-over, the primal loop's first pricing, read
    # off the simplex's frame, they equal a fresh pricing of that basis
    gaps, first = [], []
    row_times = solver._row_times

    def pricing(r, As):
        frame = sys._getframe(1)
        if first and frame.f_code.co_name == "price" and "bland" in frame.f_back.f_locals:
            first.clear()
            at = frame.f_back.f_locals
            if at["it"] > 1:  # the dual phase pivoted
                A, b, c, basis, Binv, xN = (at[k] for k in ("A", "b", "c", "basis", "Binv", "xN"))
                y = c[basis] @ Binv
                gaps.append((_relative_gap(at["y"], y), _relative_gap(at["d"], c - y @ A),
                             _relative_gap(at["xB"], Binv @ (b - A @ xN))))
        return row_times(r, As)

    def wrap(simplex):
        def solving(*args, **kw):
            first[:] = [True]
            return simplex(*args, **kw)
        return solving

    monkeypatch.setattr(solver, "_row_times", pricing)
    _run_solves(run, seed, monkeypatch, wrap)
    assert gaps
    assert max(max(g) for g in gaps) <= 1e-9


@functools.cache
def _kernel_forms():
    """(A, basis) pairs: a random form's slack basis, a basis of its
    structural columns alone and a mixed one, each in a shuffled order, and
    the terminal basis of a generated DC/IP case's LP."""
    rng = np.random.default_rng(7)
    m, n = 9, 14
    A = np.hstack([rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.6), np.eye(m)])
    mixed = np.concatenate([rng.choice(n, size=4, replace=False),
                            n + rng.choice(m, size=m - 4, replace=False)])
    forms = [(A, rng.permutation(n + np.arange(m))),
             (A, rng.permutation(rng.choice(n, size=m, replace=False))),
             (A, rng.permutation(mixed))]
    gen = benchmark_module("gen")
    A, b, c, lb, ub, _ = solver.standard_form(build_dc_welfare(gen.make_case(
        gen.CaseSpec(12, 4, blocks=4, condensers=False), 1, 0)))
    forms.append((A, solver.simplex(A, b, c, lb, ub)[5][0]))
    return forms


@pytest.mark.parametrize("form", range(4), ids=["slacks", "structural", "mixed", "dc-ip"])
def test_the_kernel_inverse_equals_the_basis_inverse(form):
    A, basis = _kernel_forms()[form]
    structural = np.count_nonzero(basis < A.shape[1] - A.shape[0])
    assert structural == [0, basis.size][form] if form < 2 else 0 < structural < basis.size
    np.testing.assert_allclose(solver.basis_inverse(A, basis), np.linalg.inv(A[:, basis]),
                               rtol=0.0, atol=1e-10)


def test_a_singular_kernel_raises():
    # the twin columns x and y make the kernel of the basis {x, y}
    # singular; a slack taken twice leaves a kernel of one row and no
    # column, which is not square
    m, _ = _twin_columns_lp()
    A = solver.standard_form(m)[0]
    for basis in ([0, 1], [2, 2]):
        with pytest.raises(solver.SingularBasisError):
            solver.basis_inverse(A, np.array(basis))
