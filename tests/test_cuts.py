import json
import math

import numpy as np
import pytest

from cppa import cuts as cutmod
from cppa import netio
from cppa.cuts import (Cut, CutError, CutPool, DegenerateCutError,
                       cone_violation, load_cuts, max_distance_cut, save_cuts,
                       select_cuts, soc_point)
from cppa.model import CURRENT_FROM, JABR, ConeDescriptor, build_cp_welfare


def _jabr_cone(branch_id=1):
    return ConeDescriptor(JABR, branch_id,
                          {"c": 0, "s": 1, "v2_from": 2, "v2_to": 3})


def _current_cone(mu=25.0, branch_id=1):
    return ConeDescriptor(CURRENT_FROM, branch_id, {"P": 0, "Q": 1, "v2": 2},
                          multiplier=mu)


def test_cone_violation_boundary_and_interior():
    cone = _jabr_cone()
    assert cone_violation(np.array([1.0, 0.0, 1.0, 1.0]), cone) == 0.0
    assert cone_violation(np.array([0.5, 0.5, 1.0, 1.0]), cone) == pytest.approx(-0.5)
    assert cone_violation(np.array([1.0, 1.0, 1.0, 1.0]), cone) == pytest.approx(1.0)


def test_current_cone_violation():
    cone = _current_cone(mu=4.0)
    assert cone_violation(np.array([2.0, 0.0, 1.0]), cone) == 0.0
    assert cone_violation(np.array([3.0, 0.0, 1.0]), cone) == pytest.approx(5.0)


def test_soc_rewrite_is_equivalent():
    rng = np.random.RandomState(7)
    cone = _jabr_cone()
    for _ in range(200):
        pt = rng.uniform([-1, -1, 0.5, 0.5], [1, 1, 1.5, 1.5])
        xv, s = soc_point(pt, cone)
        # ||(2c, 2s, w-z)|| <= w+z  <=>  c^2 + s^2 <= w z (for w+z >= 0)
        lhs = float(np.linalg.norm(xv)) - s
        assert (lhs > 1e-12) == (cone_violation(pt, cone) > 1e-12)


def test_max_distance_cut_coefficients():
    # generating point (c, s, w, z) = (1, 1, 1, 1): the normalized cut is
    # c + s <= (sqrt(2)/2) (w + z)
    cone = _jabr_cone()
    cut = max_distance_cut(np.array([1.0, 1.0, 1.0, 1.0]), cone)
    norm = math.sqrt(8.0)
    assert cut.coefficients["c"] == pytest.approx(4.0)
    assert cut.coefficients["s"] == pytest.approx(4.0)
    assert cut.coefficients["v2_from"] == pytest.approx(-norm)
    assert cut.coefficients["v2_to"] == pytest.approx(-norm)
    assert cut.rhs == 0.0
    # cone boundary point (0.6, 0.8, 1, 1): 4*1.4 = 5.6 <= 2*norm = 5.657
    lhs = 4.0 * 0.6 + 4.0 * 0.8 - norm - norm
    assert lhs < 0.0


def test_cut_separates_its_generating_point():
    rng = np.random.RandomState(11)
    cone = _jabr_cone()
    for _ in range(100):
        pt = rng.uniform([-1.5, -1.5, 0.8, 0.8], [1.5, 1.5, 1.3, 1.3])
        viol = cone_violation(pt, cone)
        if viol <= cutmod.EPS_VIOL:
            continue
        cut = max_distance_cut(pt, cone)
        vec = np.array([cut.coefficients.get(r, 0.0)
                        for r in cutmod.ROLE_ORDER[JABR]])
        value = float(vec @ pt) - cut.rhs
        xv, s = soc_point(pt, cone)
        norm = float(np.linalg.norm(xv))
        # lhs at the violated point equals ||x'|| (||x'|| - s')
        assert value == pytest.approx(norm * (norm - s), rel=1e-10)
        assert value > 0.0


def test_jabr_cut_valid_on_the_cone():
    rng = np.random.RandomState(3)
    cone = _jabr_cone()
    cut = max_distance_cut(np.array([0.9, 0.9, 1.0, 1.0]), cone)
    vec = np.array([cut.coefficients.get(r, 0.0)
                    for r in cutmod.ROLE_ORDER[JABR]])
    for _ in range(1000):
        w, z = rng.uniform(0.5, 1.5, size=2)
        radius = math.sqrt(w * z) * math.sqrt(rng.uniform(0.0, 1.0))
        ang = rng.uniform(0.0, 2.0 * math.pi)
        pt = np.array([radius * math.cos(ang), radius * math.sin(ang), w, z])
        assert cone_violation(pt, cone) <= 1e-12
        assert float(vec @ pt) <= cut.rhs + 1e-9


def test_current_cut_valid_on_the_cone():
    rng = np.random.RandomState(5)
    mu = 9.0
    cone = _current_cone(mu=mu)
    cut = max_distance_cut(np.array([3.5, 1.0, 1.0]), cone)
    vec = np.array([cut.coefficients.get(r, 0.0)
                    for r in ("P_from", "Q_from", "v2_from")])
    for _ in range(1000):
        v2 = rng.uniform(0.8, 1.3)
        radius = math.sqrt(mu * v2) * math.sqrt(rng.uniform(0.0, 1.0))
        ang = rng.uniform(0.0, 2.0 * math.pi)
        pt = np.array([radius * math.cos(ang), radius * math.sin(ang), v2])
        assert float(vec @ pt) <= cut.rhs + 1e-9


def test_no_cut_for_satisfied_cone():
    cone = _jabr_cone()
    with pytest.raises(CutError):
        max_distance_cut(np.array([0.5, 0.5, 1.0, 1.0]), cone)


def test_apex_is_degenerate():
    # P = Q = 0 with mu*v2 = 1 puts the SOC rewrite at the cone apex; the
    # point is interior, so separation only reaches it when the violation
    # threshold is forced below the actual violation
    cone = _current_cone(mu=4.0)
    pt = np.array([0.0, 0.0, 1.0 / 4.0])
    assert cone_violation(pt, cone) == pytest.approx(-1.0)
    with pytest.raises(CutError):
        max_distance_cut(pt, cone)
    with pytest.raises(DegenerateCutError):
        max_distance_cut(pt, cone, eps_viol=-2.0)


def test_select_cuts_ordering_and_rho():
    a, b, c = _jabr_cone(1), _jabr_cone(2), _jabr_cone(3)
    viols = [(0, a, 0.3), (1, b, 0.5), (2, c, 1e-7)]
    out = select_cuts(viols, rho=1.0)
    assert [t[0] for t in out] == [1, 0]  # below eps_viol filtered out
    out = select_cuts(viols, rho=0.5)
    assert [t[0] for t in out] == [1]     # ceil(0.5 * 2) = 1
    out = select_cuts(viols, rho=1.0, k_max=1)
    assert [t[0] for t in out] == [1]
    # tie on violation: cone index breaks it
    out = select_cuts([(4, a, 0.5), (2, b, 0.5)], rho=1.0)
    assert [t[0] for t in out] == [2, 4]


def test_pool_rejects_parallel_same_cone_only():
    cone = _jabr_cone(1)
    pool = CutPool()
    cut = max_distance_cut(np.array([1.0, 1.0, 1.0, 1.0]), cone)
    assert pool.admit(cut, 1)
    # scaled copy: identical unit normal, same cone -> rejected
    dup = Cut({k: 2.0 * v for k, v in cut.coefficients.items()}, 0.0, 1, JABR)
    assert not pool.admit(dup, 2)
    assert pool.dropped_parallel == 1
    # same geometry on another branch is a different cone -> admitted
    other = Cut(dict(cut.coefficients), 0.0, 2, JABR)
    assert pool.admit(other, 2)
    # non-parallel cut on the same cone -> admitted
    tilted = max_distance_cut(np.array([1.2, -0.8, 1.0, 1.0]), cone)
    assert pool.admit(tilted, 2)
    assert len(pool.cuts) == 3


def _row_slacks(pool, model, primal):
    """Each pool cut's slack in its bound row at a point: rhs minus lhs."""
    return np.array([row.rhs - sum(coeff * primal[j] for j, coeff in row.coeffs.items())
                     for row in (cut.to_row(model) for cut in pool.cuts)])


def test_pool_prunes_aged_cuts(two_bus_lossy):
    model = build_cp_welfare(two_bus_lossy)
    roles = model.branch_vars[1]
    primal = np.zeros(len(model.variables))
    primal[roles["v2_from"]] = primal[roles["v2_to"]] = 1.0
    primal[roles["c"]] = primal[roles["s"]] = 1.0  # violates the cut below
    cone = model.cones[0]
    cut = max_distance_cut(primal, cone, round_no=1)
    pool = CutPool()
    pool.admit(cut, 1)

    # tight/violated at this point: stamp refreshes, nothing dropped
    assert pool.prune_aged(_row_slacks(pool, model, primal), 4, t_age=3) == 0
    # move to a slack interior point and age out
    primal[roles["c"]] = primal[roles["s"]] = 0.1
    assert pool.prune_aged(_row_slacks(pool, model, primal), 5, t_age=3) == 0
    assert pool.prune_aged(_row_slacks(pool, model, primal), 7, t_age=3) == 1
    assert pool.cuts == []
    assert pool.dropped_aged == 1


def test_pool_ages_only_the_cuts_the_solved_lp_held(two_bus_lossy):
    # a cut admitted after the solve has no slack yet: its admission stamp
    # keeps it, while a held cut slack since round 1 ages out
    model = build_cp_welfare(two_bus_lossy)
    roles = model.branch_vars[1]
    primal = np.zeros(len(model.variables))
    primal[roles["v2_from"]] = primal[roles["v2_to"]] = 1.0
    primal[roles["c"]] = primal[roles["s"]] = 1.0
    pool = CutPool()
    pool.admit(max_distance_cut(primal, model.cones[0], round_no=1), 1)
    primal[roles["c"]] = primal[roles["s"]] = 0.1
    slacks = _row_slacks(pool, model, primal)
    assert slacks[0] > cutmod.TIGHT_TOL
    tilted = primal.copy()
    tilted[roles["c"]], tilted[roles["s"]] = 1.2, -0.8
    late = max_distance_cut(tilted, model.cones[0], round_no=4)
    assert pool.admit(late, 4)
    assert pool.prune_aged(slacks, 4, t_age=3) == 1
    assert pool.cuts == [late]


def test_pool_infinite_age_keeps_everything(two_bus_lossy):
    model = build_cp_welfare(two_bus_lossy)
    roles = model.branch_vars[1]
    primal = np.zeros(len(model.variables))
    primal[roles["v2_from"]] = primal[roles["v2_to"]] = 1.0
    primal[roles["c"]] = primal[roles["s"]] = 1.0
    pool = CutPool()
    pool.admit(max_distance_cut(primal, model.cones[0], round_no=1), 1)
    primal[roles["c"]] = primal[roles["s"]] = 0.0
    assert pool.prune_aged(_row_slacks(pool, model, primal), 1000,
                           t_age=float("inf")) == 0
    assert len(pool.cuts) == 1


def test_cut_round_trip_through_store(three_bus, tmp_path):
    model = build_cp_welfare(three_bus)
    pool = CutPool()
    for cone in model.cones[:3]:
        primal = np.ones(len(model.variables))
        if cone_violation(primal, cone) > cutmod.EPS_VIOL:
            pool.admit(max_distance_cut(primal, cone, round_no=2), 2)
    assert pool.cuts
    path = tmp_path / "cuts.json"
    save_cuts(pool, path, three_bus)
    loaded, n, dropped = load_cuts(path, three_bus)
    assert n == len(pool.cuts)
    assert dropped == 0
    for a, b in zip(pool.cuts, loaded.cuts):
        assert a.coefficients == pytest.approx(b.coefficients)
        assert a.rhs == pytest.approx(b.rhs)
        assert b.birth_round == 0  # ages reset on load


def test_load_drops_outaged_branch_cuts(three_bus, tmp_path):
    pool = CutPool()
    for bid in (1, 2, 3):
        pool.cuts.append(Cut({"c": 4.0, "s": 4.0, "v2_from": -2.8,
                              "v2_to": -2.8}, 0.0, bid, JABR))
    path = tmp_path / "cuts.json"
    save_cuts(pool, path, three_bus)
    reduced = netio.apply_contingency(three_bus, [2])
    loaded, n, dropped = load_cuts(path, reduced)
    assert n == 2
    assert dropped == 1
    assert {c.branch_id for c in loaded.cuts} == {1, 3}


def test_load_rejects_wrong_topology(three_bus, two_bus_lossy, tmp_path):
    pool = CutPool()
    pool.cuts.append(Cut({"c": 4.0, "s": 4.0, "v2_from": -2.8,
                          "v2_to": -2.8}, 0.0, 1, JABR))
    path = tmp_path / "cuts.json"
    save_cuts(pool, path, three_bus)
    with pytest.raises(CutError, match="3-bus"):
        load_cuts(path, two_bus_lossy)


def test_load_rejects_unknown_version(three_bus, tmp_path):
    path = tmp_path / "cuts.json"
    path.write_text(json.dumps({"version": "cppa-cuts-v0", "bus_count": 3,
                                "cuts": []}))
    with pytest.raises(CutError, match="version"):
        load_cuts(path, three_bus)


def test_cut_binds_to_model_rows(two_bus_lossy):
    model = build_cp_welfare(two_bus_lossy)
    cone = model.cones[0]
    primal = np.zeros(len(model.variables))
    v = cone.vars
    primal[v["v2_from"]] = primal[v["v2_to"]] = 1.0
    primal[v["c"]] = primal[v["s"]] = 1.0
    cut = max_distance_cut(primal, cone, round_no=3)
    row = cut.to_row(model)
    assert row.sense == "<="
    assert set(row.coeffs) == {v["c"], v["s"], v["v2_from"], v["v2_to"]}
    assert sum(coeff * primal[j] for j, coeff in row.coeffs.items()) > row.rhs


def test_store_save_load_save_is_byte_identical(three_bus, tmp_path):
    pool = CutPool()
    for bid in (3, 1):
        pool.cuts.append(Cut({"c": 4.0, "s": 1.5, "v2_from": -2.8, "v2_to": -2.25},
                             0.125, bid, JABR))
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_cuts(pool, first, three_bus)
    save_cuts(load_cuts(first, three_bus)[0], second, three_bus)
    assert first.read_bytes() == second.read_bytes()
