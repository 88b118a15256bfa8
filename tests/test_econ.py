import math

import numpy as np
import pytest

from cppa import econ
from cppa.econ import (Allocation, GenAlloc, LoadAlloc, ac_residual,
                       allocation_from_dict, allocation_to_dict, branch_flows,
                       direct_utility, efficiency_metrics, gen_best_response,
                       generator_cost, load_benefit, load_best_response,
                       price_distance, welfare)
from cppa.netio import Bus, make_case

from conftest import mk_branch, mk_gen, mk_load


def test_generator_cost_pwl_oracle():
    # 0.5 p.u. on the 10 $/MWh segment plus 0.3 on the 20 $/MWh segment,
    # scaled to MWh at base 100: (5 + 6) * 100 = 1100 $
    gen = mk_gen(1, 1, 0.0, 1.0, 0.0, 0.0, [(0.5, 10.0), (1.0, 20.0)],
                 no_load=7.0, startup=3.0, shutdown=2.0)
    assert generator_cost(gen, 0.8, 0.0, 0.0, 0.0, 100.0) == pytest.approx(1100.0)
    assert generator_cost(gen, 0.8, 1.0, 1.0, 0.0, 100.0) == pytest.approx(1110.0)
    assert generator_cost(gen, 0.0, 0.0, 0.0, 1.0, 100.0) == pytest.approx(2.0)


def test_load_benefit_pwl_oracle():
    load = mk_load(1, 1, 1.0, [(0.5, 120.0), (1.0, 24.0)])
    assert load_benefit(load, 1.0, 1.0) == pytest.approx(72.0)
    assert load_benefit(load, 0.25, 100.0) == pytest.approx(3000.0)


def _one_bus_case(gen, load):
    return make_case(100.0, buses=[Bus(1, 0.95, 1.05)], branches=[],
                     generators=[gen], loads=[load])


def test_direct_utility_signs():
    gen = mk_gen(1, 1, 0.0, 1.0, 0.0, 0.0, [(1.0, 10.0)])
    load = mk_load(1, 1, 1.0, [(1.0, 50.0)])
    alloc = Allocation(gens={1: GenAlloc(p=0.5)}, loads={1: LoadAlloc(p=0.5)})
    prices = {1: 50.0}
    # gen: 0.5 * 100 * 50 - 500 = 2000; load: 2500 - 2500 = 0
    assert direct_utility(gen, alloc, prices, 100.0) == pytest.approx(2000.0)
    assert direct_utility(load, alloc, prices, 100.0) == pytest.approx(0.0)


def test_make_whole_payment_oracle():
    # committed unit earning nothing but paying 100 no-load: MWP covers it
    gen = mk_gen(1, 1, 0.0, 1.0, 0.0, 0.0, [(1.0, 10.0)], no_load=100.0)
    load = mk_load(1, 1, 1.0, [(1.0, 50.0)])
    case = _one_bus_case(gen, load)
    z = Allocation(gens={1: GenAlloc(p=0.0, on=1.0)},
                   loads={1: LoadAlloc(p=0.0)})
    rep = efficiency_metrics(case, z, z, {1: 0.0})
    assert rep.mwp == pytest.approx(100.0)
    # load: free power worth 5000 went unserved. gen: turning off would
    # have saved the 100 no-load, but with the commitment held fixed that
    # cost is sunk, so only the global variant sees it
    assert rep.gloc == pytest.approx(5100.0)
    assert rep.lloc == pytest.approx(5000.0)
    assert rep.rdc == 0.0


def test_identical_phi_means_zero_redispatch(three_bus):
    alloc = Allocation(
        gens={g.id: GenAlloc(p=g.pmax / 2, on=1.0) for g in three_bus.generators},
        loads={l.id: LoadAlloc(p=l.pmax / 2) for l in three_bus.loads})
    rep = efficiency_metrics(three_bus, alloc, alloc, {1: 20.0, 2: 20.0, 3: 20.0})
    assert rep.rdc == 0.0


def test_competitive_equilibrium_has_zero_metrics(one_bus_market):
    # at the marginal price 10 the cleared allocation is every agent's
    # best response, so all four metrics vanish
    case = one_bus_market
    z = Allocation(gens={1: GenAlloc(p=0.5, on=1.0)},
                   loads={1: LoadAlloc(p=1.0)})
    rep = efficiency_metrics(case, z, z, {1: 10.0})
    assert rep.mwp == pytest.approx(0.0, abs=1e-12)
    assert rep.gloc == pytest.approx(0.0, abs=1e-12)
    assert rep.lloc == pytest.approx(0.0, abs=1e-12)
    assert rep.rdc == pytest.approx(0.0, abs=1e-12)
    assert rep.welfare == pytest.approx(45.0)  # 50 - 5 at base 1


def test_gloc_dominates_lloc_randomized():
    # the free-commitment best response includes the fixed-commitment one,
    # so GLOC >= LLOC >= 0 for any feasible allocation and any prices
    rng = np.random.RandomState(42)
    for _ in range(100):
        mc1 = rng.uniform(5.0, 40.0)
        mc2 = mc1 + rng.uniform(0.0, 30.0)
        bp1 = rng.uniform(0.2, 0.6)
        pmax = bp1 + rng.uniform(0.2, 0.6)
        gen = mk_gen(1, 1, rng.uniform(0.0, 0.15), pmax, 0.0, 0.0,
                     [(bp1, mc1), (pmax, mc2)],
                     no_load=rng.uniform(0.0, 50.0),
                     startup=rng.uniform(0.0, 20.0),
                     initial_on=bool(rng.randint(2)))
        load = mk_load(1, 1, 1.0, [(1.0, rng.uniform(10.0, 90.0))])
        case = _one_bus_case(gen, load)
        on = float(rng.randint(2))
        su, sd = econ._linked_su_sd(on, gen.initial_on)
        p = on * rng.uniform(gen.pmin, gen.pmax)
        z = Allocation(gens={1: GenAlloc(p=p, on=on, su=su, sd=sd)},
                       loads={1: LoadAlloc(p=rng.uniform(0.0, 1.0))})
        rep = efficiency_metrics(case, z, z, {1: rng.uniform(-10.0, 80.0)})
        assert rep.lloc >= -1e-9
        assert rep.gloc >= rep.lloc - 1e-9
        assert rep.mwp >= 0.0
        assert rep.rdc == 0.0


def test_best_response_candidates():
    gen = mk_gen(1, 1, 0.0, 1.0, 0.0, 0.0, [(0.5, 10.0), (1.0, 30.0)])
    # at 20 $/MWh only the first segment is profitable: 0.5 * 100 * 10 = 500
    assert gen_best_response(gen, 20.0, 100.0) == pytest.approx(500.0)
    # below marginal cost the unit backs down to zero
    assert gen_best_response(gen, 5.0, 100.0) == pytest.approx(0.0)
    load = mk_load(1, 1, 1.0, [(0.5, 120.0), (1.0, 24.0)])
    # at 50 only the high-value block clears: 0.5 * 100 * (120 - 50)
    assert load_best_response(load, 50.0, 100.0) == pytest.approx(3500.0)


def test_price_distance_axioms():
    assert price_distance([10.0, 20.0], [10.0, 20.0]) == 0.0
    assert price_distance([10.0, 20.0], [12.0, 16.0]) == pytest.approx(3.0)
    assert (price_distance([1.0, 2.0], [4.0, 0.0])
            == price_distance([4.0, 0.0], [1.0, 2.0]))
    with pytest.raises(econ.EconError):
        price_distance([1.0], [1.0, 2.0])


def test_welfare_matches_components(two_bus_lossless):
    alloc = Allocation(gens={1: GenAlloc(p=0.5, on=1.0)},
                       loads={1: LoadAlloc(p=0.5)})
    assert welfare(two_bus_lossless, alloc) == pytest.approx(2000.0)


def test_allocation_round_trip(tmp_path):
    alloc = Allocation(
        gens={1: GenAlloc(p=0.5, q=-0.1, on=1.0, su=1.0, sd=0.0)},
        loads={1: LoadAlloc(p=0.4, q=0.08)})
    back = allocation_from_dict(allocation_to_dict(alloc))
    assert back.gens[1] == alloc.gens[1]
    assert back.loads[1] == alloc.loads[1]
    path = tmp_path / "alloc.json"
    econ.save_allocation(alloc, path)
    again = econ.load_allocation(path)
    assert again.gens[1] == alloc.gens[1]


def test_flat_start_branch_flows(two_bus_lossy):
    br = two_bus_lossy.branches[0]
    y = br.admittance
    p_f, q_f, p_t, q_t = branch_flows(br, 1.0, 1.0, 0.0)
    assert p_f == pytest.approx(y.g_ff + y.g_ft, abs=1e-15)
    assert q_f == pytest.approx(-y.b_ff - y.b_ft, abs=1e-15)
    assert p_t == pytest.approx(y.g_tt + y.g_tf, abs=1e-15)
    assert q_t == pytest.approx(-y.b_tt - y.b_tf, abs=1e-15)


def test_lossless_line_is_antisymmetric():
    br = mk_branch(1, 1, 2, 0.0, 0.1)
    for theta in (-0.2, -0.05, 0.1, 0.3):
        p_f, _, p_t, _ = branch_flows(br, 1.0, 1.0, theta)
        assert p_f == pytest.approx(-p_t, abs=1e-14)
        assert p_f == pytest.approx(math.sin(theta) / 0.1, rel=1e-12)


def test_lossy_line_dissipates():
    br = mk_branch(1, 1, 2, 0.02, 0.1)
    p_f, _, p_t, _ = branch_flows(br, 1.02, 0.98, 0.1)
    assert p_f + p_t > 0.0  # active losses are nonnegative


def test_ac_residual_self_consistent(three_bus):
    vm = {1: 1.02, 2: 0.99, 3: 1.0}
    va = {1: 0.0, 2: -0.04, 3: -0.06}
    zeros = {k: 0.0 for k in vm}
    probe = ac_residual(three_bus, vm, va, zeros, zeros)
    # feeding the probed flow sums back as injections zeroes the balance
    p_inj = {b.id: float(probe.balance_p[i])
             for i, b in enumerate(three_bus.buses)}
    q_inj = {b.id: float(probe.balance_q[i])
             for i, b in enumerate(three_bus.buses)}
    rep = ac_residual(three_bus, vm, va, p_inj, q_inj)
    assert rep.max_balance <= 1e-12
    assert rep.max_limit_violation == 0.0
    for bid, (sl_f, sl_t) in rep.current_slack.items():
        assert sl_f > 0.0 and sl_t > 0.0


def test_ac_residual_flags_violations(two_bus_lossless):
    vm = {1: 1.0, 2: 1.0}
    va = {1: 0.8, 2: 0.0}  # exceeds the 0.6 rad angle limit
    zeros = {1: 0.0, 2: 0.0}
    rep = ac_residual(two_bus_lossless, vm, va, zeros, zeros)
    assert rep.angle_slack[1] < 0.0
    assert rep.max_limit_violation > 0.0


def test_ac_residual_skips_outaged_branches(three_bus):
    from cppa import netio
    reduced = netio.apply_contingency(three_bus, [2])
    vm = {1: 1.0, 2: 1.0, 3: 1.0}
    va = {1: 0.0, 2: 0.0, 3: 0.0}
    zeros = {k: 0.0 for k in vm}
    rep = ac_residual(reduced, vm, va, zeros, zeros)
    assert set(rep.flows) == {1, 3}


def test_allocation_save_load_save_is_byte_identical(tmp_path):
    alloc = Allocation(
        gens={2: GenAlloc(p=0.25, q=0.1, on=0.0, su=0.0, sd=1.0),
              1: GenAlloc(p=0.5, q=-0.1, on=1.0, su=1.0, sd=0.0)},
        loads={1: LoadAlloc(p=0.4, q=0.08)})
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    econ.save_allocation(alloc, first)
    econ.save_allocation(econ.load_allocation(first), second)
    assert first.read_bytes() == second.read_bytes()
