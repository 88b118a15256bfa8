"""The cone table and the pool's batch admission against the per-cone and
per-cut code they replaced, kept below verbatim (but for names and
docstrings): every batch violation, selection, cut, right-hand side, unit
normal and parallel verdict must equal the reference's bit for bit.

One difference is allowed, in the violations only. The reference squares
a role value with ``**`` on a numpy scalar, which goes through libm's
``pow``; that is off by one ulp from the correctly rounded ``x * x`` on
about 0.08% of inputs. The batch multiplies. A violation whose reference
squares are exact must match bit for bit, the others within a few ulps."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from cppa import cuts as cutmod
from cppa import solver
from cppa.cuts import EPS_PAR, EPS_VIOL, ROLE_ORDER, WIDTH, CutError, DegenerateCutError
from cppa.model import CURRENT_FROM, CURRENT_TO, JABR, ConeDescriptor, build_cp_welfare

from conftest import benchmark_module

# --- the reference: cuts.py's per-cone and per-cut code, verbatim ---------


@dataclass
class _RefCut:
    coefficients: dict          # role -> coefficient
    rhs: float
    branch_id: int
    cone_kind: str
    birth_round: int = 0
    last_tight_round: int = 0
    unit_normal: np.ndarray = None
    status: int = solver.BASIC  # its slack's status when the pool's loop ended

    def __post_init__(self):
        if self.unit_normal is None:
            vec = np.array([self.coefficients.get(r, 0.0)
                            for r in ROLE_ORDER[self.cone_kind]])
            norm = np.linalg.norm(vec)
            if norm == 0.0:
                raise CutError("cut with zero coefficient vector")
            self.unit_normal = vec / norm


def _ref_cone_violation(primal, cone):
    """Quadratic-form violation of one registered cone; positive = violated."""
    v = cone.vars
    if cone.kind == JABR:
        return (primal[v["c"]] ** 2 + primal[v["s"]] ** 2
                - primal[v["v2_from"]] * primal[v["v2_to"]])
    return (primal[v["P"]] ** 2 + primal[v["Q"]] ** 2
            - cone.multiplier * primal[v["v2"]])


def _ref_soc_point(primal, cone):
    """(x', s') of the SOC rewrite at the given point."""
    v = cone.vars
    if cone.kind == JABR:
        w, z = primal[v["v2_from"]], primal[v["v2_to"]]
        xv = np.array([2.0 * primal[v["c"]], 2.0 * primal[v["s"]], w - z])
        return xv, w + z
    mu = cone.multiplier
    wz = mu * primal[v["v2"]]
    xv = np.array([2.0 * primal[v["P"]], 2.0 * primal[v["Q"]], wz - 1.0])
    return xv, wz + 1.0


def _ref_max_distance_cut(primal, cone, round_no=0, eps_viol=EPS_VIOL):
    """Deepest separating hyperplane for a point violating the cone."""
    if _ref_cone_violation(primal, cone) <= eps_viol:
        raise CutError("no cut for a satisfied cone")
    xv, _ = _ref_soc_point(primal, cone)
    norm = float(np.linalg.norm(xv))
    if norm < 1e-12:
        raise DegenerateCutError("separation at the cone apex")
    v = cone.vars
    if cone.kind == JABR:
        w_minus_z = xv[2]
        values = (4.0 * primal[v["c"]], 4.0 * primal[v["s"]],
                  w_minus_z - norm, -w_minus_z - norm)
        rhs = 0.0
    else:
        wz1 = xv[2]  # mu*v2' - 1
        values = (4.0 * primal[v["P"]], 4.0 * primal[v["Q"]],
                  cone.multiplier * (wz1 - norm))
        rhs = wz1 + norm
    coeffs = dict(zip(ROLE_ORDER[cone.kind], values))
    return _RefCut(coefficients=coeffs, rhs=rhs, branch_id=cone.branch_id,
                   cone_kind=cone.kind, birth_round=round_no,
                   last_tight_round=round_no)


def _ref_select_cuts(violations, eps_viol=EPS_VIOL, rho=1.0, k_max=None):
    eligible = [t for t in violations if t[2] > eps_viol]
    eligible.sort(key=lambda t: (-t[2], t[0]))
    keep = math.ceil(rho * len(eligible))
    if k_max is not None:
        keep = min(keep, k_max)
    return eligible[:keep]


class _RefPool:
    def __init__(self):
        self.cuts = []
        self.added = 0
        self.dropped_parallel = 0

    def admit(self, cut, round_no, eps_par=EPS_PAR):
        """Reject iff an active cut from the same cone is nearly parallel
        (cosine similarity of unit normals >= 1 - eps_par)."""
        for other in self.cuts:
            if (other.branch_id == cut.branch_id
                    and other.cone_kind == cut.cone_kind
                    and float(other.unit_normal @ cut.unit_normal) >= 1.0 - eps_par):
                self.dropped_parallel += 1
                return False
        cut.birth_round = round_no
        cut.last_tight_round = round_no
        self.cuts.append(cut)
        self.added += 1
        return True


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


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _padded(unit_normal):
    return np.concatenate([unit_normal, np.zeros(WIDTH - unit_normal.size)])


# --- tests ------------------------------------------------------------------

def test_batch_violations_equal_the_reference():
    cones, n = _cones()
    table = cutmod.ConeTable(cones)
    rng = np.random.default_rng(7)
    inexact = total = 0
    for _ in range(300):
        p = _point(rng, cones, n)
        got = table.violations(p)
        want = np.array([_ref_cone_violation(p, c) for c in cones])
        assert (got > 0).any() and (got <= 0).any()
        for i, cone in enumerate(cones):
            a, b = (p[cone.vars[r]] for r in (("c", "s") if cone.kind == JABR else ("P", "Q")))
            total += 1
            if a ** 2 == a * a and b ** 2 == b * b:
                assert _bits(got[i]) == _bits(want[i])
                assert _bits(cutmod.cone_violation(p, cone)) == _bits(want[i])
            else:
                inexact += 1
                # an ulp in a square, one in their sum, one in the difference
                assert abs(got[i] - want[i]) <= 4 * np.spacing(a * a + b * b + abs(want[i]))
    assert total == 300 * len(cones) and inexact <= 0.005 * total


@pytest.mark.parametrize("rho", [1.0, 0.5, 0.1])
def test_batch_selection_equals_the_reference(rho):
    cones, n = _cones()
    table = cutmod.ConeTable(cones)
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = _point(rng, cones, n)
        viols = [(i, c, _ref_cone_violation(p, c)) for i, c in enumerate(cones)]
        want = [t[0] for t in _ref_select_cuts(viols, rho=rho)]
        assert table.select(p, EPS_VIOL, rho).tolist() == want
        assert [t[0] for t in cutmod.select_cuts(viols, rho=rho)] == want
        assert [t[0] for t in cutmod.select_cuts(viols, rho=rho, k_max=2)] == want[:2]
    # ties: by cone index
    tied = [(4, cones[0], 0.5), (2, cones[1], 0.5), (3, cones[2], 1e-7)]
    assert [t[0] for t in cutmod.select_cuts(tied)] == [2, 4]


def test_batch_cuts_and_unit_normals_equal_the_reference():
    # every cone, satisfied ones too (a negative threshold cuts them)
    cones, n = _cones()
    table = cutmod.ConeTable(cones)
    rng = np.random.default_rng(13)
    everything = np.arange(len(cones))
    for _ in range(200):
        p = _point(rng, cones, n)
        V, rhs, apex = table.deepest_cuts(p, everything)
        assert not apex.any()
        normals = cutmod.unit_normals(V)
        for i, cone in enumerate(cones):
            ref = _ref_max_distance_cut(p, cone, round_no=3, eps_viol=-math.inf)
            width = len(ROLE_ORDER[cone.kind])
            want = [ref.coefficients[r] for r in ROLE_ORDER[cone.kind]]
            assert _bits(V[i, :width]) == _bits(want) and not V[i, width:].any()
            assert _bits(rhs[i]) == _bits(ref.rhs)
            assert _bits(normals[i]) == _bits(_padded(ref.unit_normal))
            one = cutmod.max_distance_cut(p, cone, round_no=3, eps_viol=-math.inf)
            assert one.coefficients == ref.coefficients and one.birth_round == 3
            assert _bits(list(one.coefficients.values())) == _bits(want)
            assert _bits(one.rhs) == _bits(ref.rhs)
            # a pool given the cut, or a Cut made from its coefficients,
            # computes the same normal from the coefficient row
            remade = cutmod.Cut(dict(one.coefficients), one.rhs, cone.branch_id, cone.kind)
            for cut in (one, remade):
                assert _bits(cutmod.CutPool([cut])._arrays()[1][0]) == _bits(
                    _padded(ref.unit_normal))
            xv, s = cutmod.soc_point(p, cone)
            ref_xv, ref_s = _ref_soc_point(p, cone)
            assert _bits(xv) == _bits(ref_xv) and _bits(s) == _bits(ref_s)


def test_a_cone_at_its_apex_gives_no_cut():
    cones, n = _cones()
    current = next(c for c in cones if c.kind == CURRENT_TO)
    p = _apex(_point(np.random.default_rng(17), cones, n), current)
    with pytest.raises(DegenerateCutError):
        _ref_max_distance_cut(p, current, eps_viol=-2.0)
    with pytest.raises(DegenerateCutError):
        cutmod.max_distance_cut(p, current, eps_viol=-2.0)
    table = cutmod.ConeTable(cones)
    assert table.deepest_cuts(p, np.arange(len(cones)))[2].tolist() == [
        c is current for c in cones]


def _ref_round(pool, cones, p, round_no, eps_viol, eps_par):
    """One round of the seed's loop: per-cone violations, selection, then
    per-cut separation and admission; a cone at its apex is skipped."""
    selected = _ref_select_cuts([(i, c, _ref_cone_violation(p, c)) for i, c in enumerate(cones)],
                                eps_viol=eps_viol)
    for _, cone, _ in selected:
        try:
            cut = _ref_max_distance_cut(p, cone, round_no=round_no, eps_viol=eps_viol)
        except DegenerateCutError:
            continue
        pool.admit(cut, round_no, eps_par=eps_par)
    return [i for i, _, _ in selected]


def _assert_same_pool(pool, ref):
    assert (pool.added, pool.dropped_parallel) == (ref.added, ref.dropped_parallel)
    assert len(pool.cuts) == len(ref.cuts)
    for cut, want in zip(pool.cuts, ref.cuts):
        assert (cut.branch_id, cut.cone_kind, cut.birth_round, cut.last_tight_round) == (
            want.branch_id, want.cone_kind, want.birth_round, want.last_tight_round)
        assert list(cut.coefficients) == list(want.coefficients)
        assert _bits(list(cut.coefficients.values())) == _bits(list(want.coefficients.values()))
        assert _bits(cut.rhs) == _bits(want.rhs)
        row = np.array([list(cut.coefficients.values())])
        assert _bits(cutmod.unit_normals(row)[0]) == _bits(want.unit_normal)
    keys, normals = pool._arrays()
    assert keys.tolist() == [cutmod.cone_key(c.branch_id, c.cone_kind) for c in ref.cuts]
    assert _bits(normals) == _bits([_padded(c.unit_normal) for c in ref.cuts])


@pytest.mark.parametrize("eps_par", [EPS_PAR, 1e-3])
def test_batch_admission_equals_one_cut_at_a_time(eps_par):
    # rounds at fresh points, at nudged copies of the last one (cuts nearly
    # parallel to pooled ones, some rejected, some not), and with one cone
    # at its apex cut below a negative threshold, on a pool that holds
    # several cuts per cone
    cones, n = _cones()
    table = cutmod.ConeTable(cones)
    rng = np.random.default_rng(19)
    pool, ref = cutmod.CutPool(), _RefPool()
    p = _point(rng, cones, n)
    seen = {"rejected": 0, "apex": 0, "selected": 0}
    for round_no in range(1, 25):
        eps_viol = EPS_VIOL
        if round_no % 3 == 0:
            p = _point(rng, cones, n)
        elif round_no % 3 == 1:
            p = p + rng.normal(scale=10.0 ** rng.uniform(-6, -2), size=n)
        else:
            p, eps_viol = _apex(p, cones[1 + 3 * (round_no % 4)]), -2.0
            seen["apex"] += 1
        before = ref.dropped_parallel
        want = _ref_round(ref, cones, p, round_no, eps_viol, eps_par)
        sel = table.select(p, eps_viol)
        assert sel.tolist() == want
        added = pool.admit_cones(table, sel, p, round_no, eps_par=eps_par)
        assert added == sum(c.birth_round == round_no for c in ref.cuts)
        _assert_same_pool(pool, ref)
        seen["rejected"] += ref.dropped_parallel - before
        seen["selected"] += len(want)
    per_cone = np.bincount(pool._arrays()[0] - pool._arrays()[0].min())
    assert per_cone.max() >= 3 and seen["rejected"] >= 10 and seen["apex"]


def test_a_saved_and_reloaded_pool_has_the_normals_it_stored(tmp_path):
    # the store holds coefficients only; the loaded pool's normals, made
    # from them, equal those admit_cones computed from the batch
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
    keys, normals = pool._arrays()
    assert loaded._arrays()[0].tolist() == keys.tolist()
    assert _bits(loaded._arrays()[1]) == _bits(normals)


def test_parallel_verdicts_equal_the_reference_loop():
    # every candidate against a warm pool, singly through admit and as one
    # batch, against the reference's pairwise loop
    cones, n = _cones()
    table = cutmod.ConeTable(cones)
    rng = np.random.default_rng(23)
    pooled = []
    for _ in range(6):
        p = _point(rng, cones, n)
        pooled += [_ref_max_distance_cut(p, c, eps_viol=-math.inf) for c in cones]
    warm = cutmod.CutPool([cutmod.Cut(dict(c.coefficients), c.rhs, c.branch_id, c.cone_kind)
                           for c in pooled])
    everything = np.arange(len(cones))
    verdicts = []
    for _ in range(20):
        p = _point(rng, cones, n) + rng.normal(scale=1e-3, size=n)
        want = []
        for cone in cones:
            cut = _ref_max_distance_cut(p, cone, eps_viol=-math.inf)
            want.append(any(o.branch_id == cut.branch_id and o.cone_kind == cut.cone_kind
                            and float(o.unit_normal @ cut.unit_normal) >= 1.0 - 1e-3
                            for o in pooled))
            single = cutmod.CutPool(list(warm.cuts))
            made = cutmod.Cut(dict(cut.coefficients), cut.rhs, cut.branch_id, cut.cone_kind)
            assert single.admit(made, 1, eps_par=1e-3) is not want[-1]
        V, _, _ = table.deepest_cuts(p, everything)
        got = cutmod._parallel(table.keys, cutmod.unit_normals(V), *warm._arrays(), 1e-3)
        assert got.tolist() == want
        verdicts += want
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
