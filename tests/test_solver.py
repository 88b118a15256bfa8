import itertools
import math
import time

import numpy as np
import pytest

from cppa import cuts, solver
from cppa.algorithm import CppaConfig, run_cppa
from cppa.model import INF, SENSE_EQ, SENSE_GE, SENSE_LE, ModelIR
from cppa.model import build_cp_welfare, build_dc_welfare
from cppa.netio import Bus, make_case

from conftest import benchmark_module, condenser, mk_branch, mk_gen, mk_load
from conftest import record_simplex
from conftest import clock_jumps_at_simplex


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


def test_infeasible_detected():
    m = ModelIR()
    x = m.add_var("x", 0.0, 1.0)
    m.add_objective(x, 1.0)
    m.add_row("force", {x: 1.0}, SENSE_EQ, 2.0)
    sol = solver.solve_lp(m)
    assert sol.status == solver.INFEASIBLE


def test_unbounded_detected():
    m = ModelIR()
    x = m.add_var("x", 0.0, INF)
    y = m.add_var("y", -INF, INF)
    m.add_objective(x, 1.0)
    m.add_row("tie", {x: 1.0, y: -1.0}, SENSE_EQ, 0.0)
    sol = solver.solve_lp(m)
    assert sol.status == solver.UNBOUNDED


def test_beale_cycling_example_terminates():
    # classic degenerate LP that cycles under textbook most-negative
    # pricing; the stall-triggered Bland rule must reach the optimum 0.05
    m = ModelIR()
    x = [m.add_var(f"x{i}", 0.0, INF) for i in range(4)]
    for j, cj in zip(x, (0.75, -150.0, 0.02, -6.0)):
        m.add_objective(j, cj)
    m.add_row("r1", {x[0]: 0.25, x[1]: -60.0, x[2]: -1.0 / 25.0, x[3]: 9.0},
              SENSE_LE, 0.0)
    m.add_row("r2", {x[0]: 0.5, x[1]: -90.0, x[2]: -1.0 / 50.0, x[3]: 3.0},
              SENSE_LE, 0.0)
    m.add_row("r3", {x[2]: 1.0}, SENSE_LE, 1.0)
    sol = solver.solve_lp(m)
    assert sol.status == solver.OPTIMAL
    assert sol.objective == pytest.approx(0.05, abs=1e-10)


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


def test_wrong_basic_count_hint_falls_back_to_cold(three_bus):
    m = build_cp_welfare(three_bus).relax_binaries()
    cold = solver.solve_lp(m)
    hint = cold.basis_status.copy()
    hint[np.flatnonzero(hint == solver.BASIC)[0]] = solver.AT_LOWER
    warm = solver.solve_lp(m, basis_hint=hint)
    assert warm.iterations == cold.iterations
    np.testing.assert_array_equal(warm.primal, cold.primal)
    np.testing.assert_array_equal(warm.duals, cold.duals)


def _ring_case(n_bus):
    """Lossy ring with gens at odd buses, loads and reactive slack at even
    ones; its CP relaxation takes about 11 pivots per bus from cold."""
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
    m = build_cp_welfare(_ring_case(8)).relax_binaries()
    sol = solver.solve_lp(m)
    assert sol.status == solver.OPTIMAL
    assert sol.iterations > solver.REFACTOR_INTERVAL
    assert max(solver.kkt_report(m, sol).values()) <= 1e-9


def test_hint_at_an_infinite_bound_falls_back_to_cold(three_bus):
    m = build_cp_welfare(three_bus)
    cold = solver.solve_lp(m)
    # the cold start's own statuses, but a free flow variable at its lower
    # bound of -inf: one basic column per row, yet no finite starting point
    hint = np.array([solver.AT_LOWER if v.lb > -INF else
                     solver.AT_UPPER if v.ub < INF else solver.FREE
                     for v in m.variables] + [solver.BASIC] * len(m.rows),
                    dtype=np.int8)
    free = next(j for j, v in enumerate(m.variables)
                if v.lb == -INF and v.ub == INF)
    hint[free] = solver.AT_LOWER
    warm = solver.solve_lp(m, basis_hint=hint)
    assert warm.status == cold.status == solver.OPTIMAL
    assert warm.iterations == cold.iterations
    np.testing.assert_array_equal(warm.primal, cold.primal)
    np.testing.assert_array_equal(warm.duals, cold.duals)


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
    warm = solver.solve_milp(m, basis_hint=root.basis_status)
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
    cold = solver.solve_milp(m)
    warm = solver.solve_milp(m, basis_hint=hint)
    assert (warm.status, warm.nodes, warm.lp_iterations) == (
        cold.status, cold.nodes, cold.lp_iterations)
    np.testing.assert_array_equal(warm.primal, cold.primal)
    np.testing.assert_array_equal(warm.basis_status, cold.basis_status)


@pytest.mark.parametrize("fixture, build", WARM_CASES, ids=WARM_IDS)
def test_milp_basis_status_is_a_basis_of_the_fixed_lp(fixture, build, request):
    m = build(request.getfixturevalue(fixture))
    milp = solver.solve_milp(m)
    assert milp.basis_status.size == len(m.variables) + len(m.rows)
    assert np.count_nonzero(milp.basis_status == solver.BASIC) == len(m.rows)
    fixed = solver.fix_binaries(m, {j: milp.primal[j] for j in m.binary_indices()})
    cold = solver.solve_lp(fixed)
    warm = solver.solve_lp(fixed, basis_hint=milp.basis_status)
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


def test_singular_hint_falls_back_to_cold():
    # x and y have the same column, so a basis holding both is singular,
    # though it has one basic column per row and no infinite bound
    m = ModelIR()
    x = m.add_var("x", 0.0, 3.0)
    y = m.add_var("y", 0.0, 3.0)
    m.add_objective(x, 3.0)
    m.add_objective(y, 2.0)
    m.add_row("cap", {x: 1.0, y: 1.0}, SENSE_LE, 4.0)
    m.add_row("cap2", {x: 1.0, y: 1.0}, SENSE_LE, 5.0)
    hint = np.array([solver.BASIC, solver.BASIC, solver.AT_LOWER, solver.AT_LOWER],
                    dtype=np.int8)
    cold = solver.solve_lp(m)
    warm = solver.solve_lp(m, basis_hint=hint)
    assert warm.status == cold.status == solver.OPTIMAL
    assert warm.iterations == cold.iterations
    np.testing.assert_array_equal(warm.primal, cold.primal)
    np.testing.assert_array_equal(warm.duals, cold.duals)


def test_lp_deadline_stops_the_simplex_at_a_refactorization(monkeypatch):
    m = build_cp_welfare(_ring_case(8))
    cold = solver.solve_lp(m)
    clock_jumps_at_simplex(monkeypatch)
    sol = solver.solve_lp(m, deadline=time.perf_counter() + 60.0)
    assert sol.status == solver.TIME_LIMIT
    # bound flips are iterations without an update of the inverse
    assert solver.REFACTOR_INTERVAL < sol.iterations < cold.iterations
    assert math.isnan(sol.objective)


def test_milp_deadline_reaches_the_node_lps(monkeypatch):
    # the clock jumps inside the root LP, which takes more pivots than
    # REFACTOR_INTERVAL: the search stops there, not after the root
    m = build_cp_welfare(_ring_case(8))
    root = solver.solve_lp(m)
    clock_jumps_at_simplex(monkeypatch)
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
    # this cut-loop MILP stops on the gap with an incumbent 9e-7 (relative)
    # below the optimum; the bound still covers the optimum
    gen = benchmark_module("gen")
    case = gen.make_case(gen.CaseSpec(6, 2, blocks=2), 1, 2)
    calls = []
    solve_milp = solver.solve_milp

    def recording(model, **kw):
        calls.append((model, solve_milp(model, **kw)))
        return calls[-1][1]

    monkeypatch.setattr(solver, "solve_milp", recording)
    run_cppa(case, CppaConfig(pricing_rule="ip"))
    (m, milp), = calls
    assert milp.status == solver.OPTIMAL
    assert len(m.binary_indices()) == 3 * len(case.generators) == 24

    best = -INF
    for fixes in _commitments(case, m):
        sol = solver.solve_lp(solver.fix_binaries(m, fixes), basis_hint=milp.basis_status)
        if sol.status == solver.OPTIMAL:
            best = max(best, sol.objective)
    assert milp.objective <= best
    assert milp.bound >= best - 1e-6
