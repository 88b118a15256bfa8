import math
from dataclasses import replace

import pytest

from cppa import algorithm, netio, solver
from cppa.algorithm import (MODEL_CP, MODEL_DC, RULE_CH, RULE_IP,
                            STATUS_INFEASIBLE, STATUS_OPTIMAL,
                            STATUS_TIME_LIMIT, CppaConfig, run_cppa)
from cppa.netio import Bus, make_case

from conftest import (clock_jumps_at, mk_branch, mk_gen, mk_load,
                      record_simplex, record_solve_lp)


def _cfg(**kw):
    return CppaConfig(**kw)


def test_config_validation():
    with pytest.raises(ValueError):
        CppaConfig(pricing_rule="nodal")
    with pytest.raises(ValueError):
        CppaConfig(network_model="ac")
    with pytest.raises(ValueError):
        CppaConfig(ftol=-1.0)
    with pytest.raises(ValueError):
        CppaConfig(ftol_rounds=0)


@pytest.mark.parametrize("setting", ["time_limit_s", "ftol", "rho", "t_age", "eps_viol",
                                     "eps_par"])
def test_config_rejects_nan(setting):
    with pytest.raises(ValueError):
        CppaConfig(**{setting: math.nan})


@pytest.mark.parametrize("setting, value", [("rho", 0.0), ("rho", 1.5), ("t_age", 0),
                                            ("max_rounds", 0), ("eps_viol", -1e-5),
                                            ("eps_viol", math.inf), ("eps_par", -1e-5)])
def test_config_rejects_out_of_range_settings(setting, value):
    with pytest.raises(ValueError):
        CppaConfig(**{setting: value})


def test_config_accepts_the_range_ends():
    CppaConfig(rho=1.0, t_age=1, max_rounds=1)
    CppaConfig(t_age=math.inf)


def test_config_accepts_zero_thresholds():
    CppaConfig(eps_viol=0.0, eps_par=0.0)
    CppaConfig(eps_par=math.inf)


def test_dc_converges_in_one_round(two_bus_lossless):
    res = run_cppa(two_bus_lossless, _cfg(network_model=MODEL_DC))
    assert res.status == STATUS_OPTIMAL
    assert res.termination == "converged"
    assert res.rounds == 1  # no cones, nothing to separate
    assert res.objective == pytest.approx(2000.0, abs=1e-6)
    assert res.prices_q is None
    assert res.prices_p[1] == pytest.approx(10.0, abs=1e-7)
    assert res.prices_p[2] == pytest.approx(10.0, abs=1e-7)


def test_lossless_cp_matches_dc(two_bus_lossless):
    dc = run_cppa(two_bus_lossless, _cfg(network_model=MODEL_DC))
    cp = run_cppa(two_bus_lossless, _cfg(network_model=MODEL_CP))
    assert cp.status == STATUS_OPTIMAL
    assert cp.objective == pytest.approx(dc.objective, abs=1e-6)
    for bus_id in (1, 2):
        assert cp.prices_p[bus_id] == pytest.approx(dc.prices_p[bus_id],
                                                    abs=1e-6)
    assert cp.prices_q is not None


def test_objective_trace_is_nonincreasing(three_bus):
    res = run_cppa(three_bus, _cfg(network_model=MODEL_CP))
    assert res.status == STATUS_OPTIMAL
    assert res.rounds > 1
    trace = res.objective_trace
    for earlier, later in zip(trace, trace[1:]):
        assert later <= earlier + 1e-7  # cuts only shrink the relaxation
    assert len(res.price_trace) == res.rounds
    assert len(res.cuts_added) in (res.rounds, res.rounds - 1)


def test_cut_pool_activity(three_bus):
    res = run_cppa(three_bus, _cfg(network_model=MODEL_CP))
    assert res.pool.added >= 1
    assert sum(res.cuts_added) == res.pool.added
    assert sum(res.cuts_dropped) == res.pool.dropped_aged


def test_ip_equals_ch_on_integral_market(one_bus_market):
    ip = run_cppa(one_bus_market, _cfg(pricing_rule=RULE_IP))
    ch = run_cppa(one_bus_market, _cfg(pricing_rule=RULE_CH))
    assert ip.status == ch.status == STATUS_OPTIMAL
    assert ip.objective == pytest.approx(ch.objective, abs=1e-9)
    assert ip.prices_p[1] == pytest.approx(ch.prices_p[1], abs=1e-9)
    # the generator is at capacity, so the elastic load sets the price
    assert ip.prices_p[1] == pytest.approx(50.0, abs=1e-9)


def test_ip_and_ch_differ_on_block_unit(block_unit_market):
    ch = run_cppa(block_unit_market, _cfg(pricing_rule=RULE_CH))
    ip = run_cppa(block_unit_market, _cfg(pricing_rule=RULE_IP))
    assert ch.status == ip.status == STATUS_OPTIMAL
    # relaxation carries the block at a fractional commitment
    assert ch.objective == pytest.approx(48.0, abs=1e-7)
    assert 0.0 + 1e-6 < ch.commitments[2]["on"] < 1.0 - 1e-6
    # IP settles on the true optimal commitment and integral binaries
    assert ip.objective == pytest.approx(46.0, abs=1e-7)
    assert ip.commitments[2]["on"] == pytest.approx(1.0, abs=1e-9)
    assert ip.objective < ch.objective


def test_ip_dispatch_is_feasible_for_commitment(block_unit_market):
    res = run_cppa(block_unit_market, _cfg(pricing_rule=RULE_IP))
    p2 = res.allocation["g2_p"]
    assert p2 == pytest.approx(0.4, abs=1e-9)  # block runs at its size
    assert res.allocation["g2_su"] == pytest.approx(1.0, abs=1e-9)


def test_stall_exit_with_infinite_ftol(three_bus):
    res = run_cppa(three_bus, _cfg(ftol=math.inf, ftol_rounds=3))
    assert res.status == STATUS_OPTIMAL
    assert res.termination in ("stalled", "converged")
    # every round counts as a stall, so at most ftol_rounds + 1 LP solves
    assert res.rounds <= 4


def test_max_rounds_exit(three_bus):
    res = run_cppa(three_bus, _cfg(max_rounds=2))
    assert res.status == STATUS_OPTIMAL
    assert res.rounds == 2
    assert res.termination == "max_rounds"


def test_time_limit_exit(three_bus):
    res = run_cppa(three_bus, _cfg(time_limit_s=1e-9))
    assert res.status == STATUS_TIME_LIMIT
    assert res.termination == "time_limit"
    assert res.prices_p is None


def test_islanded_case_is_infeasible(two_bus_lossless):
    islanded = netio.apply_contingency(two_bus_lossless, [1])
    res = run_cppa(islanded, _cfg())
    assert res.status == STATUS_INFEASIBLE
    assert res.termination == "islanded"


def test_warm_start_reproduces_terminal_objective(three_bus):
    cold = run_cppa(three_bus, _cfg(network_model=MODEL_CP))
    assert cold.status == STATUS_OPTIMAL
    warm = run_cppa(three_bus, _cfg(network_model=MODEL_CP, max_rounds=1),
                    warm_cuts=cold.pool)
    assert warm.status == STATUS_OPTIMAL
    # surviving cuts are exactly the binding ones, so one LP suffices
    assert warm.objective_trace[0] == pytest.approx(cold.objective_trace[-1],
                                                    abs=1e-6)


def test_prices_invariant_to_base_rescaling(two_bus_lossless):
    case = two_bus_lossless
    rescaled = replace(case, base_mva=case.base_mva * 2.0)
    a = run_cppa(case, _cfg())
    b = run_cppa(rescaled, _cfg())
    for bus_id in (1, 2):
        assert a.prices_p[bus_id] == pytest.approx(b.prices_p[bus_id],
                                                   abs=1e-6)
    assert b.objective == pytest.approx(2.0 * a.objective, rel=1e-6)


def test_congested_dc_price_separation():
    # 0.3 p.u. line cap forces the expensive local unit to serve the rest:
    # prices split exactly to the two marginal costs
    case = make_case(
        100.0,
        buses=[Bus(1, 0.95, 1.05), Bus(2, 0.95, 1.05)],
        branches=[mk_branch(1, 1, 2, 0.0, 0.1,
                            current_limit_sq=0.09, max_angle_diff=0.6)],
        generators=[mk_gen(1, 1, 0.0, 1.0, -1.0, 1.0, [(1.0, 10.0)]),
                    mk_gen(2, 2, 0.0, 1.0, -1.0, 1.0, [(1.0, 30.0)])],
        loads=[mk_load(1, 2, 0.5, [(0.5, 50.0)])],
    )
    res = run_cppa(case, _cfg(network_model=MODEL_DC))
    assert res.status == STATUS_OPTIMAL
    assert res.prices_p[1] == pytest.approx(10.0, abs=1e-9)
    assert res.prices_p[2] == pytest.approx(30.0, abs=1e-9)
    assert res.allocation["e1_P"] == pytest.approx(0.3, abs=1e-9)


def test_commitments_reported(one_bus_market):
    res = run_cppa(one_bus_market, _cfg(pricing_rule=RULE_IP))
    assert res.commitments[1]["on"] == pytest.approx(1.0)
    assert res.commitments[1]["su"] == pytest.approx(0.0)
    assert res.commitments[1]["sd"] == pytest.approx(0.0)


def test_warm_started_rounds_match_a_cold_solve(three_bus, monkeypatch):
    solve_lp = solver.solve_lp
    calls = record_solve_lp(monkeypatch)
    res = run_cppa(three_bus, _cfg(network_model=MODEL_CP))
    assert res.status == STATUS_OPTIMAL
    assert res.lp_iterations == [sol.iterations for _, _, sol in calls]
    # round 1 starts cold; later rounds carry exactly one basic column per row
    assert calls[0][1] is None
    assert all(int((h == solver.BASIC).sum()) == len(model.rows)
               for model, h, _ in calls[1:])

    final_model = calls[-1][0]
    cold = solve_lp(final_model)
    assert res.objective == pytest.approx(cold.objective, abs=1e-9)
    cold_p, cold_q = algorithm.extract_prices(cold, final_model,
                                              three_bus.base_mva)
    for bus_id, price in cold_p.items():
        assert res.prices_p[bus_id] == pytest.approx(price, abs=1e-9)
    for bus_id, price in cold_q.items():
        assert res.prices_q[bus_id] == pytest.approx(price, abs=1e-9)


@pytest.mark.parametrize("fixture", ["block_unit_market", "three_bus"])
@pytest.mark.parametrize("network_model", [MODEL_DC, MODEL_CP])
@pytest.mark.parametrize("max_rounds", [None, 1])
def test_warm_ip_prices_match_a_cold_fixed_lp(fixture, network_model, max_rounds,
                                              request, monkeypatch):
    # max_rounds=1 on a CP case admits cuts after the last solve, so the
    # MILP root starts from a carried basis with their slacks basic
    case = request.getfixturevalue(fixture)
    solve_lp = solver.solve_lp
    calls = record_solve_lp(monkeypatch)
    res = run_cppa(case, _cfg(network_model=network_model,
                              pricing_rule=RULE_IP, max_rounds=max_rounds))
    assert res.status == STATUS_OPTIMAL
    fixed, hint, warm = calls[-1]
    assert hint is not None
    assert res.pricing_lp_iterations == warm.iterations
    cold = solve_lp(fixed)
    assert res.objective == pytest.approx(cold.objective, abs=1e-9)
    cold_p, cold_q = algorithm.extract_prices(cold, fixed, case.base_mva)
    for bus_id, price in cold_p.items():
        assert res.prices_p[bus_id] == pytest.approx(price, abs=1e-9)
    for bus_id, price in (cold_q or {}).items():
        assert res.prices_q[bus_id] == pytest.approx(price, abs=1e-9)


def test_ip_run_starts_cold_only_once(block_unit_market, monkeypatch):
    # the warm chain on DC: round 1 cold, then the MILP root from round 1,
    # each node from its parent, the pricing LP from the incumbent node
    calls = record_simplex(monkeypatch)
    res = run_cppa(block_unit_market, _cfg(network_model=MODEL_DC,
                                           pricing_rule=RULE_IP))
    assert res.status == STATUS_OPTIMAL
    assert res.rounds == 1
    assert [i for i, (hint, _) in enumerate(calls) if hint is None] == [0]
    assert calls[-1][1] == res.pricing_lp_iterations <= 2
    # the root re-solves round 1's optimal LP: one pricing pass
    assert calls[1][1] == 1
    assert len(calls) == 1 + res.milp_nodes + 1
    assert sum(it for _, it in calls[1:-1]) == res.milp_lp_iterations


def test_milp_deadline_is_the_time_limit(block_unit_market, monkeypatch):
    # the clock jumps past the limit once the MILP starts, after a cut loop
    # that stayed inside it
    clock_jumps_at(monkeypatch, "solve_milp")
    res = run_cppa(block_unit_market, _cfg(pricing_rule=RULE_IP,
                                           time_limit_s=10.0))
    assert res.status == STATUS_TIME_LIMIT
    assert res.termination == "time_limit"
    assert res.rounds >= 1 and res.milp_nodes == 0
    assert res.prices_p is None
