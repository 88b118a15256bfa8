"""The cone table and the pool's batch admission, judged by geometry and
against the pool's single-cut path, on seeded random points of a generated
6-bus CP model (all three cone kinds, satisfied and violated cones).

Each cone's violation is a quarter of its SOC rewrite's ||x'||^2 - s'^2.
The selection is the violated cones, ranked by violation. The deepest cut
of a cone is violated at its point by ||x'|| (||x'|| - s'), and holds at
points sampled on the cone. Unit normals have norm 1 and point along
their cut. A round's batch admission (``CutPool.admit_cones``) leaves the
pool that ``max_distance_cut`` and ``CutPool.admit`` leave, one cut at a
time, and a parallel verdict is the cosine of two unit normals."""

import math

import numpy as np
import pytest

from cppa import cuts as cutmod
from cppa.cuts import EPS_PAR, EPS_VIOL, WIDTH, CutError, DegenerateCutError
from cppa.model import CURRENT_FROM, CURRENT_TO, JABR, ConeDescriptor, build_cp_welfare

from conftest import benchmark_module

# --- cones and points -----------------------------------------------------


def _cones():
    """The cones of a generated 6-bus CP model, all three kinds, and its
    variable count."""
    gen = benchmark_module("gen")
    model = build_cp_welfare(gen.make_case(gen.CaseSpec(6, 2), 1, 0))
    assert {c.kind for c in model.cones} == {JABR, CURRENT_FROM, CURRENT_TO}
    return model.cones, len(model.variables)


def _point(rng, cones, n):
    """A random point at which about half the cones are violated."""
    p = np.zeros(n)
    for cone in cones:
        v = cone.vars
        if cone.kind == JABR:
            p[v["v2_from"]], p[v["v2_to"]] = rng.uniform(0.8, 1.2, size=2)
    for cone in cones:
        v = cone.vars
        if cone.kind == JABR:
            x, y, radius = "c", "s", math.sqrt(p[v["v2_from"]] * p[v["v2_to"]])
            ang = rng.uniform(0.0, 0.6)
        else:
            x, y, radius = "P", "Q", math.sqrt(cone.multiplier * p[v["v2"]])
            ang = rng.uniform(-3.0, 3.0)
        radius *= rng.uniform(0.7, 1.3)
        p[v[x]], p[v[y]] = radius * math.cos(ang), radius * math.sin(ang)
    return p


def _apex(p, cone):
    """The point with the current cone moved to its apex, P = Q = 0 and
    mu v2 = 1, where the SOC vector is zero."""
    p = p.copy()
    v = cone.vars
    p[v["P"]] = p[v["Q"]] = 0.0
    p[v["v2"]] = 1.0 / cone.multiplier
    return p


def _on_the_cone(rng, cone, size):
    """``size`` points of the cone, inside and on its boundary, as rows of
    the cone's role values in its table row's order: (c, s, w, z) with
    c^2 + s^2 <= wz, or (P, Q, v2, v2) with P^2 + Q^2 <= mu v2."""
    w, z = rng.uniform(0.5, 1.5, size=(2, size))
    if cone.kind != JABR:
        z = w
    square = w * z if cone.kind == JABR else cone.multiplier * w
    radius = np.sqrt(square * np.minimum(rng.uniform(0.0, 1.5, size), 1.0))
    ang = rng.uniform(0.0, 2.0 * math.pi, size)
    return np.column_stack([radius * np.cos(ang), radius * np.sin(ang), w, z])


# --- tests ------------------------------------------------------------------

def test_each_violation_is_a_quarter_of_the_soc_gap():
    # ||(2x, 2y, w - z)||^2 - (w + z)^2 = 4 (x^2 + y^2 - wz), with w z = mu v2
    # and w + z = mu v2 + 1 for a current cone
    cones, n = _cones()
    table = cutmod.ConeTable(cones)
    rng = np.random.default_rng(7)
    for _ in range(100):
        p = _point(rng, cones, n)
        viol = table.violations(p)
        assert (viol > 0).any() and (viol <= 0).any()
        for i, cone in enumerate(cones):
            xv, s = cutmod.soc_point(p, cone)
            gap = xv @ xv - s * s
            assert 4.0 * viol[i] == pytest.approx(gap, rel=0.0, abs=1e-12 * s * s)
            assert cutmod.cone_violation(p, cone) == pytest.approx(viol[i], rel=1e-15, abs=0.0)


@pytest.mark.parametrize("rho", [1.0, 0.5, 0.1])
def test_the_selection_ranks_the_violated_cones(rho):
    # the cones violated above eps_viol, by violation descending, ties to
    # the lower index, cut to the first ceil(rho * count)
    cones, n = _cones()
    table = cutmod.ConeTable(cones)
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = _point(rng, cones, n)
        viol = table.violations(p)
        ranked = sorted(np.flatnonzero(viol > EPS_VIOL).tolist(), key=lambda i: (-viol[i], i))
        want = ranked[:math.ceil(rho * len(ranked))]
        assert want and table.select(p, EPS_VIOL, rho).tolist() == want
        viols = [(i, c, viol[i]) for i, c in enumerate(cones)]
        assert [t[0] for t in cutmod.select_cuts(viols, rho=rho)] == want
        assert [t[0] for t in cutmod.select_cuts(viols, rho=rho, k_max=2)] == want[:2]
    # ties: by cone index
    tied = [(4, cones[0], 0.5), (2, cones[1], 0.5), (3, cones[2], 1e-7)]
    assert [t[0] for t in cutmod.select_cuts(tied)] == [2, 4]


def test_the_deepest_cut_is_violated_at_its_point_and_holds_on_the_cone():
    # every cone, satisfied ones too (a negative threshold cuts them): the
    # cut's excess at the point is ||x'|| (||x'|| - s'), positive iff the
    # cone is violated there, and at most rounding anywhere on the cone
    cones, n = _cones()
    table = cutmod.ConeTable(cones)
    rng = np.random.default_rng(13)
    everything = np.arange(len(cones))
    for _ in range(50):
        p = _point(rng, cones, n)
        V, rhs, apex = table.deepest_cuts(p, everything)
        assert not apex.any()
        excess = np.einsum("ij,ij->i", V, p[table.cols]) - rhs
        viol = table.violations(p)
        for i, cone in enumerate(cones):
            xv, s = cutmod.soc_point(p, cone)
            norm = math.sqrt(xv @ xv)
            assert excess[i] == pytest.approx(norm * (norm - s), rel=1e-10, abs=1e-12)
            assert (excess[i] > 0.0) == (viol[i] > 0.0)
            X = _on_the_cone(rng, cone, 200)
            scale = 1.0 + abs(rhs[i]) + np.abs(V[i]).sum() * np.abs(X).max()
            assert (X @ V[i] - rhs[i]).max() <= 1e-12 * scale
            one = cutmod.max_distance_cut(p, cone, round_no=3, eps_viol=-math.inf)
            assert one.birth_round == 3 and one.rhs == pytest.approx(rhs[i], rel=1e-15, abs=0.0)
            assert list(one.coefficients.values()) == pytest.approx(
                V[i, :len(one.coefficients)].tolist(), rel=1e-15, abs=0.0)


def test_unit_normals_have_norm_one_and_point_along_their_cut():
    cones, n = _cones()
    table = cutmod.ConeTable(cones)
    rng = np.random.default_rng(17)
    everything = np.arange(len(cones))
    for _ in range(50):
        V, rhs, _ = table.deepest_cuts(_point(rng, cones, n), everything)
        normals = cutmod.unit_normals(V)
        np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(normals * np.linalg.norm(V, axis=1)[:, None], V,
                                   rtol=1e-14, atol=0.0)
        assert not normals[~table.jabr, 3].any()  # a current cut's padding
        # a pool takes its cuts' normals from their coefficient rows
        pool = cutmod.CutPool([table.cut(i, V[i].tolist(), rhs[i], 1) for i in everything])
        np.testing.assert_allclose(pool._arrays()[1], normals, rtol=0.0, atol=1e-15)
    with pytest.raises(CutError):
        cutmod.unit_normals(np.zeros((1, WIDTH)))


def test_a_cone_at_its_apex_gives_no_cut():
    cones, n = _cones()
    current = next(c for c in cones if c.kind == CURRENT_TO)
    p = _apex(_point(np.random.default_rng(17), cones, n), current)
    with pytest.raises(DegenerateCutError):
        cutmod.max_distance_cut(p, current, eps_viol=-2.0)
    table = cutmod.ConeTable(cones)
    assert table.deepest_cuts(p, np.arange(len(cones)))[2].tolist() == [
        c is current for c in cones]


def _assert_same_pool(pool, want):
    assert (pool.added, pool.dropped_parallel) == (want.added, want.dropped_parallel)
    assert [(c.branch_id, c.cone_kind, c.birth_round, c.last_tight_round) for c in pool.cuts] == [
        (c.branch_id, c.cone_kind, c.birth_round, c.last_tight_round) for c in want.cuts]
    for cut, other in zip(pool.cuts, want.cuts):
        assert list(cut.coefficients) == list(other.coefficients)
        assert list(cut.coefficients.values()) == pytest.approx(
            list(other.coefficients.values()), rel=1e-15, abs=0.0)
        assert cut.rhs == pytest.approx(other.rhs, rel=1e-15, abs=0.0)
    (keys, normals), (want_keys, want_normals) = pool._arrays(), want._arrays()
    assert keys.tolist() == want_keys.tolist()
    np.testing.assert_allclose(normals, want_normals, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("eps_par", [EPS_PAR, 1e-3])
def test_batch_admission_equals_one_cut_at_a_time(eps_par):
    # rounds at fresh points, at nudged copies of the last one (cuts nearly
    # parallel to pooled ones, some rejected, some not), and with one cone
    # at its apex cut below a negative threshold, on a pool that holds
    # several cuts per cone. One cut at a time: max_distance_cut for each
    # selected cone in order, a cone at its apex skipped, then admit
    cones, n = _cones()
    table = cutmod.ConeTable(cones)
    rng = np.random.default_rng(19)
    pool, single = cutmod.CutPool(), cutmod.CutPool()
    p = _point(rng, cones, n)
    rejected = apexes = 0
    for round_no in range(1, 25):
        eps_viol = EPS_VIOL
        if round_no % 3 == 0:
            p = _point(rng, cones, n)
        elif round_no % 3 == 1:
            p = p + rng.normal(scale=10.0 ** rng.uniform(-6, -2), size=n)
        else:
            p, eps_viol = _apex(p, cones[1 + 3 * (round_no % 4)]), -2.0
        sel = table.select(p, eps_viol)
        before = single.dropped_parallel
        for i in sel.tolist():
            try:
                cut = cutmod.max_distance_cut(p, cones[i], round_no, eps_viol)
            except DegenerateCutError:
                apexes += 1
                continue
            single.admit(cut, round_no, eps_par=eps_par)
        added = pool.admit_cones(table, sel, p, round_no, eps_par=eps_par)
        assert added == sum(c.birth_round == round_no for c in single.cuts)
        _assert_same_pool(pool, single)
        rejected += single.dropped_parallel - before
    per_cone = np.bincount(pool._arrays()[0] - pool._arrays()[0].min())
    assert per_cone.max() >= 3 and rejected >= 10 and apexes


def test_a_saved_and_reloaded_pool_has_the_normals_it_stored(tmp_path):
    # the store holds coefficients only; the loaded pool's normals, made
    # from them, are those admit_cones computed from the batch
    gen = benchmark_module("gen")
    case = gen.make_case(gen.CaseSpec(6, 2), 1, 0)
    model = build_cp_welfare(case)
    table = cutmod.ConeTable(model.cones)
    rng = np.random.default_rng(31)
    pool = cutmod.CutPool()
    for round_no in range(1, 7):
        p = _point(rng, model.cones, len(model.variables))
        pool.admit_cones(table, table.select(p), p, round_no)
    assert {c.cone_kind for c in pool.cuts} == {JABR, CURRENT_FROM, CURRENT_TO}
    cutmod.save_cuts(pool, tmp_path / "cuts.json", case)
    loaded, count, dropped = cutmod.load_cuts(tmp_path / "cuts.json", case)
    assert (count, dropped) == (len(pool.cuts), 0)
    assert [c.coefficients for c in loaded.cuts] == [c.coefficients for c in pool.cuts]
    keys, normals = pool._arrays()
    assert loaded._arrays()[0].tolist() == keys.tolist()
    np.testing.assert_allclose(loaded._arrays()[1], normals, rtol=0.0, atol=1e-15)


def test_parallel_verdicts_are_the_cosines_of_unit_normals():
    # every candidate against a warm pool, singly through admit and as one
    # batch: it is parallel iff a pooled cut of its cone has a unit normal
    # at a cosine of at least 1 - eps_par to its own
    cones, n = _cones()
    table = cutmod.ConeTable(cones)
    rng = np.random.default_rng(23)
    everything = np.arange(len(cones))
    pooled = []
    for _ in range(6):
        V, rhs, _ = table.deepest_cuts(_point(rng, cones, n), everything)
        pooled += [table.cut(i, V[i].tolist(), rhs[i], 0) for i in everything]
    warm = cutmod.CutPool(pooled)
    keys, normals = warm._arrays()
    verdicts = []
    for _ in range(20):
        p = _point(rng, cones, n) + rng.normal(scale=1e-3, size=n)
        V, rhs, _ = table.deepest_cuts(p, everything)
        mine = cutmod.unit_normals(V)
        want = ((mine @ normals.T >= 1.0 - 1e-3) & (table.keys[:, None] == keys)).any(axis=1)
        got = cutmod._parallel(table.keys, mine, keys, normals, 1e-3)
        assert got.tolist() == want.tolist()
        for i in everything.tolist():
            cut = table.cut(i, V[i].tolist(), rhs[i], 1)
            assert cutmod.CutPool(list(warm.cuts)).admit(cut, 1, eps_par=1e-3) is not want[i]
        verdicts += want.tolist()
    assert any(verdicts) and not all(verdicts)


def test_the_pool_arrays_follow_cuts_changed_from_outside():
    cones, n = _cones()
    p = _point(np.random.default_rng(29), cones, n)
    cut = cutmod.max_distance_cut(p, cones[0], eps_viol=-math.inf)
    pool = cutmod.CutPool()
    assert pool.admit(cut, 1)
    twin = cutmod.Cut(dict(cut.coefficients), cut.rhs, cut.branch_id, cut.cone_kind)
    pool.cuts = []  # replaced: the pooled normal goes with it
    assert pool.admit(twin, 2)
    pool.cuts.append(cutmod.Cut(dict(cut.coefficients), cut.rhs, 99, JABR))  # grown
    assert pool._arrays()[0].tolist() == [cut.key, cutmod.cone_key(99, JABR)]
    assert not pool.admit(cutmod.Cut(dict(cut.coefficients), cut.rhs, 99, JABR), 3)


def test_a_table_of_no_cones_selects_none():
    table = cutmod.ConeTable([])
    assert table.select(np.ones(3)).size == 0
    cone = ConeDescriptor(CURRENT_FROM, 1, {"P": 0, "Q": 1, "v2": 2}, multiplier=4.0)
    assert cutmod.ConeTable([cone]).select(np.array([3.0, 0.0, 1.0])).tolist() == [0]
