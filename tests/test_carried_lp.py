"""The cut loop carries one LP from round to round: its standard form is
built once per run, each round deletes the rows of aged-out cuts and
appends the admitted ones' rows, and the last solve's factor is shrunk and
bordered to match. Only the first round starts cold, from the crash
basis, and under the IP rule the MILP and the fixed-binary pricing LP
solve the same carried LP, so a cold run inverts one start basis."""

import copy
import dataclasses
import json

import numpy as np
import pytest

from cppa import algorithm, cuts, netio, solver
from cppa.algorithm import run_cppa
from cppa.model import ModelIR

from conftest import benchmark_module, record_inverses, record_solve_lp, with_cut_rows
from test_solver import GENERATED_RUNS, _ring_case
from test_warm_basis import _base_store, _cli_outage


def _generated_run(rule="ch"):
    """The 4-bus generated CP case of GENERATED_RUNS["cp-ch"] and its
    config under the pricing rule."""
    gen = benchmark_module("gen")
    shape, config = GENERATED_RUNS["cp-ch"]
    return (gen.make_case(gen.CaseSpec(**shape), 1, 0),
            dataclasses.replace(config, pricing_rule=rule))


def _count_standard_forms(monkeypatch):
    """Wrap solver.standard_form; returns the list of models it was
    called on while the patch lasts."""
    calls = []
    standard_form = solver.standard_form

    def counting(model):
        calls.append(model)
        return standard_form(model)

    monkeypatch.setattr(solver, "standard_form", counting)
    return calls


def test_the_carried_lp_equals_a_rebuild_every_round(monkeypatch):
    case, config = _generated_run()
    base = algorithm.build_welfare(case, config.network_model)
    pool = cuts.CutPool()
    rounds = []
    solve_lp = solver.solve_lp

    def checking(model, carry=None, **kw):
        # each solve is handed the carry's own model, whose rows are the
        # base's, then the pool's cuts', and whose form the carry is
        assert model is carry.model
        assert model.rows == with_cut_rows(base, pool).rows
        carried = (carry.A, carry.b, carry.c, carry.lb, carry.ub, carry.n)
        for got, want in zip(carried, solver.standard_form(model), strict=True):
            np.testing.assert_array_equal(got, want)
        if rounds:  # every round after the first starts from the carried factor
            basis, Binv, _ = carry.factor
            np.testing.assert_array_equal(np.flatnonzero(carry.status == solver.BASIC), basis)
            assert basis.size == carry.A.shape[0]
            # the product-form updates carried since the last fresh inverse
            # drift it by up to 5e-10 on this run; the edits add none
            assert np.abs(Binv @ carry.A[:, basis] - np.eye(basis.size)).max() <= 1e-9
        rounds.append(len(pool.cuts))
        return solve_lp(model, carry=carry, **kw)

    monkeypatch.setattr(solver, "solve_lp", checking)
    res = run_cppa(case, config, warm_cuts=pool)
    assert res.status == algorithm.STATUS_OPTIMAL
    assert len(rounds) == res.rounds > 2
    assert sum(res.cuts_dropped) > 0  # rows were deleted as well as appended


def test_edit_rows_shrinks_and_borders_a_fresh_inverse_to_the_new_basis_inverse():
    # from a fresh inverse, deleting rows with basic slacks and appending
    # rows gives the inverse of the edited basis, to rounding
    case, config = _generated_run()
    base = algorithm.build_welfare(case, config.network_model)
    held = run_cppa(case, config).pool.cuts
    # all but the last two cuts leave three slacks basic at the optimum
    old, new = held[:-2], held[-2:]
    pool = cuts.CutPool(cuts=list(old))
    model = with_cut_rows(base, pool)
    rows = list(model.rows)
    carry = solver.CarriedLp(model)
    assert solver.solve_lp(model, carry=carry).status == solver.OPTIMAL
    basis = carry.factor[0]
    carry.factor = (basis, np.linalg.inv(carry.A[:, basis]), 0)
    m_base, n = len(base.rows), carry.n
    drop = [i for i in range(m_base, m_base + len(old))
            if carry.status[n + i] == solver.BASIC][:3]
    assert len(drop) == 3
    carry.edit_rows(np.array(drop), [cut.to_row(base) for cut in new])

    pool.cuts = [cut for i, cut in enumerate(old) if m_base + i not in drop] + new
    # the carry holds a new model with the rebuilt one's rows, and is its
    # form; the model it was solved on keeps its own rows
    assert carry.model is not model and model.rows == rows
    assert carry.model.rows == with_cut_rows(base, pool).rows
    rebuilt = solver.standard_form(carry.model)
    for got, want in zip((carry.A, carry.b, carry.c, carry.lb, carry.ub, carry.n), rebuilt,
                         strict=True):
        np.testing.assert_array_equal(got, want)
    basis, Binv, fresh = carry.factor
    assert fresh == 0
    np.testing.assert_array_equal(np.flatnonzero(carry.status == solver.BASIC), basis)
    want = np.linalg.inv(carry.A[:, basis])
    assert np.abs(Binv - want).max() <= 1e-12 * np.abs(want).max()


def test_edit_rows_refuses_a_row_whose_slack_is_nonbasic():
    # B^-1 shrinks exactly only by a basic slack's row; a tight cut's row
    # never ages out, so the loop never asks for this
    case, config = _generated_run()
    base = algorithm.build_welfare(case, config.network_model)
    pool = run_cppa(case, config).pool
    model = with_cut_rows(base, pool)
    carry = solver.CarriedLp(model)
    assert solver.solve_lp(model, carry=carry).status == solver.OPTIMAL
    m_base, n = len(base.rows), carry.n
    tight = [i for i in range(m_base, len(model.rows)) if carry.status[n + i] != solver.BASIC]
    assert tight
    with pytest.raises(solver.SolverError, match="not basic"):
        carry.edit_rows(np.array(tight[:1]), [])


def test_a_cold_run_builds_one_standard_form_and_inverts_one_start_basis(monkeypatch):
    # the first round's crash basis; every later round starts carried
    case, config = _generated_run()
    forms = _count_standard_forms(monkeypatch)
    inverses = record_inverses(monkeypatch)
    res = run_cppa(case, config)
    assert res.status == algorithm.STATUS_OPTIMAL and res.rounds > 2
    assert len(forms) == 1
    assert inverses[0] == ("start",) and ("start",) not in inverses[1:]


def _ip_run():
    """The generated DC case of GENERATED_RUNS["dc-ip-blocks"] and its
    IP config."""
    gen = benchmark_module("gen")
    shape, config = GENERATED_RUNS["dc-ip-blocks"]
    return gen.make_case(gen.CaseSpec(**shape), 1, 0), config


def test_an_ip_run_builds_one_standard_form_and_inverts_one_start_basis(monkeypatch):
    # the cut loop's first LP starts from the crash basis; the MILP's nodes
    # and the pricing LP solve the cut loop's carried LP
    case, config = _ip_run()
    forms = _count_standard_forms(monkeypatch)
    inverses = record_inverses(monkeypatch)
    res = run_cppa(case, config)
    assert res.status == algorithm.STATUS_OPTIMAL and res.milp_nodes > 1
    assert len(forms) == 1
    assert inverses[0] == ("start",) and ("start",) not in inverses[1:]


def _count_crashes(monkeypatch):
    """Wrap solver.crash; returns the list of the standard-form shapes it
    was called on while the patch lasts."""
    calls = []
    crash = solver.crash

    def counting(A, lb, ub):
        calls.append(A.shape)
        return crash(A, lb, ub)

    monkeypatch.setattr(solver, "crash", counting)
    return calls


@pytest.mark.parametrize("run", ["cp-ch", "dc-ip-blocks", "cp-n1-warm"])
def test_only_a_cold_start_computes_the_crash(run, monkeypatch, tmp_path):
    # a cold run computes it once, for its first LP; carried rounds,
    # branch-and-bound nodes and the pricing LP never do, nor does any
    # warm outage, which starts from its base's stored basis
    gen = benchmark_module("gen")
    if run == "cp-n1-warm":
        base = gen.make_case(gen.CaseSpec(4, 2), 1, 0)
        store = tmp_path / "base.cuts.json"
        _base_store(base, store)
        runs = []
        for bid in gen.n1_outages(base):
            outage = netio.apply_contingency(base, [bid])
            warm = cuts.load_cuts(store, outage)[0]
            assert warm.basis is not None
            runs.append((outage, algorithm.CppaConfig(pricing_rule="ch"), warm))
    else:
        shape, config = GENERATED_RUNS[run]
        runs = [(gen.make_case(gen.CaseSpec(**shape), 1, 0), config, None)]
    crashes = _count_crashes(monkeypatch)
    results = [run_cppa(case, config, warm_cuts=warm) for case, config, warm in runs]
    assert all(res.status == algorithm.STATUS_OPTIMAL for res in results)
    assert results[0].milp_nodes > 1 if run == "dc-ip-blocks" else results[0].rounds > 1
    assert len(crashes) == (0 if run == "cp-n1-warm" else 1)


def test_the_pricing_lp_shares_the_milps_rows_and_leaves_its_binaries(monkeypatch):
    # pinning the binaries makes new variables only: the model the MILP was
    # handed still flags its binaries with bounds [0, 1], and no model is
    # deep-copied
    case, config = _ip_run()
    handed = {}
    copies = []
    copy = ModelIR.copy

    def recording(name):
        solve = getattr(solver, name)

        def record(model, **kw):
            handed[name] = model
            return solve(model, **kw)
        return record

    for name in ("solve_lp", "solve_milp"):
        monkeypatch.setattr(solver, name, recording(name))
    monkeypatch.setattr(ModelIR, "copy", lambda self: copies.append(self) or copy(self))
    res = run_cppa(case, config)
    assert res.status == algorithm.STATUS_OPTIMAL and res.milp_nodes > 1
    milp, priced = handed["solve_milp"], handed["solve_lp"]
    bins = milp.binary_indices()
    assert bins and all((milp.variables[j].lb, milp.variables[j].ub) == (0.0, 1.0) for j in bins)
    assert priced.binary_indices() == []
    assert all(priced.variables[j].lb == priced.variables[j].ub for j in bins)
    assert priced.variables is not milp.variables
    assert all(getattr(priced, name) is getattr(milp, name)
               for name in ("rows", "objective", "cones", "bus_p_row", "gen_vars"))
    assert copies == []


@pytest.mark.parametrize("network_model", ["dc", "cp"])
def test_the_carry_is_the_form_of_the_model_each_ip_solve_is_handed(network_model,
                                                                    monkeypatch):
    case, config = _ip_run() if network_model == "dc" else _generated_run("ip")
    standard_form = solver.standard_form
    checked = []

    def checking(name):
        solve = getattr(solver, name)

        def check(model, carry=None, **kw):
            assert model is carry.model
            carried = (carry.A, carry.b, carry.c, carry.lb, carry.ub, carry.n)
            for got, want in zip(carried, standard_form(model), strict=True):
                np.testing.assert_array_equal(got, want)
            # the carried factor inverts the carried basis
            if carry.factor is not None:
                basis, Binv, _ = carry.factor
                np.testing.assert_array_equal(
                    np.flatnonzero(carry.status == solver.BASIC), basis)
                assert np.abs(Binv @ carry.A[:, basis] - np.eye(basis.size)).max() <= 1e-9
            checked.append((name, carry.factor is not None))
            return solve(model, carry=carry, **kw)
        return check

    for name in ("solve_lp", "solve_milp"):
        monkeypatch.setattr(solver, name, checking(name))
    res = run_cppa(case, config)
    assert res.status == algorithm.STATUS_OPTIMAL and res.milp_nodes >= 1
    # round 1 starts cold; every later round, the MILP root and the
    # pricing LP from the carried factor
    assert checked == ([("solve_lp", False)] + [("solve_lp", True)] * (res.rounds - 1)
                       + [("solve_milp", True), ("solve_lp", True)])


def test_a_cuts_in_outage_run_builds_one_standard_form(tmp_path, monkeypatch):
    case = _ring_case(4)
    store = tmp_path / "cuts.json"
    _base_store(case, store)
    forms = _count_standard_forms(monkeypatch)
    code, out = _cli_outage(case, tmp_path, "--cuts-in", str(store))
    assert code == 0
    assert json.loads((out / "report.json").read_text())["rounds"] > 1
    assert len(forms) == 1


def _heavy(value):
    """Whether the value, or a list, tuple or dict it holds, is a carried
    LP or an array of more than one dimension (or a view of one)."""
    if isinstance(value, solver.CarriedLp):
        return True
    if isinstance(value, np.ndarray):
        return value.ndim > 1 or np.ndim(value.base) > 1
    if isinstance(value, dict):
        value = list(value.values())
    return isinstance(value, (list, tuple)) and any(_heavy(v) for v in value)


@pytest.mark.parametrize("rule", ["ch", "ip"])
def test_nothing_the_run_returns_holds_the_carried_lp(rule, monkeypatch):
    # every case's last (model, LpSolution) and (model, MilpSolution)
    # outlive its run in the benchmark's capture; a carried form hanging
    # off one raises peak memory
    case, config = _generated_run(rule)
    calls = record_solve_lp(monkeypatch)
    milps = []
    solve_milp = solver.solve_milp

    def recording(*args, **kw):
        milps.append(solve_milp(*args, **kw))
        return milps[-1]

    monkeypatch.setattr(solver, "solve_milp", recording)
    res = run_cppa(case, config)
    assert res.status == algorithm.STATUS_OPTIMAL and res.rounds > 2
    assert len(milps) == (rule == "ip")
    held = [res, res.pool, *res.pool.cuts, *(sol for _, _, sol in calls), *milps]
    for obj in held:
        for name, value in vars(obj).items():
            assert not _heavy(value), (type(obj).__name__, name)


def _record_node_solves(monkeypatch):
    """Wrap CarriedLp.solve; returns, for every solve while the patch
    lasts, (carry, copies of its lb and ub at the call, solution)."""
    solves = []
    solve = solver.CarriedLp.solve

    def recording(self, deadline=None):
        lb, ub = self.lb.copy(), self.ub.copy()
        solves.append((self, lb, ub, solve(self, deadline)))
        return solves[-1][-1]

    monkeypatch.setattr(solver.CarriedLp, "solve", recording)
    return solves


def _ip_model():
    """The DC model of the case of _ip_run, whose search branches."""
    return algorithm.build_welfare(_ip_run()[0], "dc")


def test_the_branch_and_bound_leaves_the_carried_form_alone(monkeypatch):
    # the nodes share A, b and c with the carry: a node that wrote into
    # them would corrupt the run's LP
    model = _ip_model()
    lp = solver.CarriedLp(model)
    assert solver.solve_lp(model, carry=lp).status == solver.OPTIMAL
    before = [a.tobytes() for a in (lp.A, lp.b, lp.c, lp.lb, lp.ub)]
    nodes = _record_node_solves(monkeypatch)
    milp = solver.solve_milp(model, carry=lp)
    assert milp.status == solver.OPTIMAL and milp.nodes == len(nodes) > 2
    assert [a.tobytes() for a in (lp.A, lp.b, lp.c, lp.lb, lp.ub)] == before
    # the carry holds the incumbent node's terminal statuses and factor,
    # and the factor inverts that basis
    [incumbent] = [node for node, _, _, sol in nodes if sol.primal is milp.primal]
    np.testing.assert_array_equal(lp.status, incumbent.status)
    basis, Binv, _ = lp.factor
    np.testing.assert_array_equal(basis, incumbent.factor[0])
    np.testing.assert_array_equal(np.flatnonzero(lp.status == solver.BASIC), basis)
    assert np.abs(Binv @ lp.A[:, basis] - np.eye(basis.size)).max() <= 1e-9


@pytest.mark.parametrize("source", ["block_unit-dc", "block_unit-cp", "generated-dc"])
def test_the_milp_root_is_the_carry_as_built(source, block_unit_market):
    # the builders declare every binary in [0, 1] (ModelIR.add_var refuses
    # one that leaves it), so the search from the carry itself finds what a
    # root copied from the carry with its binaries clamped to [0, 1] finds
    if source == "generated-dc":
        model = _ip_model()
    else:
        model = algorithm.build_welfare(block_unit_market, source.split("-")[1])
    bins = model.binary_indices()
    carry = solver.CarriedLp(model)
    clamped = copy.copy(carry)
    clamped.lb, clamped.ub = carry.lb.copy(), carry.ub.copy()
    clamped.lb[bins] = np.maximum(clamped.lb[bins], 0.0)
    clamped.ub[bins] = np.minimum(clamped.ub[bins], 1.0)
    got, want = solver.solve_milp(model, carry=carry), solver.solve_milp(model, carry=clamped)
    assert bins and got.status == want.status == solver.OPTIMAL
    assert (got.objective, got.bound, got.nodes, got.lp_iterations) == (
        want.objective, want.bound, want.nodes, want.lp_iterations)
    np.testing.assert_array_equal(got.primal, want.primal)
    np.testing.assert_array_equal(carry.lb, clamped.lb)
    np.testing.assert_array_equal(carry.ub, clamped.ub)


def test_fixing_a_binary_in_one_child_leaves_its_siblings_bounds(monkeypatch):
    model = _ip_model()
    nodes = _record_node_solves(monkeypatch)
    solver.solve_milp(model)
    assert len(nodes) > 2
    # every node ends the search on the bounds it was solved on, in arrays
    # of its own
    for node, lb, ub, _ in nodes:
        np.testing.assert_array_equal(node.lb, lb)
        np.testing.assert_array_equal(node.ub, ub)
    owned = [id(a) for node, *_ in nodes for a in (node.lb, node.ub)]
    assert len(set(owned)) == len(owned)
    # the root's two children come next, best bound first and ties in
    # order: each differs from the root only in the binary it fixes
    (_, lb, ub, _), zero, one = nodes[:3]
    [j] = np.flatnonzero((zero[1] != lb) | (zero[2] != ub))
    for (_, child_lb, child_ub, _), value in ((zero, 0.0), (one, 1.0)):
        assert child_lb[j] == child_ub[j] == value
        np.testing.assert_array_equal(np.delete(child_lb, j), np.delete(lb, j))
        np.testing.assert_array_equal(np.delete(child_ub, j), np.delete(ub, j))


def _carried_starts(monkeypatch):
    """Wrap solver.simplex; returns the list of (hint, A, c, lb, ub, basis,
    Binv) of every call that starts from a carried factor while the patch
    lasts, each a copy taken at the call."""
    starts = []
    simplex = solver.simplex

    def recording(A, b, c, lb, ub, basis_hint=None, deadline=None, factor=None):
        if factor is not None:
            starts.append((basis_hint.copy(), A.copy(), c.copy(), lb.copy(), ub.copy(),
                           factor[0].copy(), factor[1].copy()))
        return simplex(A, b, c, lb, ub, basis_hint=basis_hint, deadline=deadline,
                       factor=factor)

    monkeypatch.setattr(solver, "simplex", recording)
    return starts


@pytest.mark.parametrize("seed", [1, 2])
def test_a_carried_start_is_already_placed(seed, monkeypatch, tmp_path):
    # the carried start takes the statuses as placed: the last solve's
    # terminal ones, the basic slacks edit_rows appends, and pins inside
    # their bounds. Over every cut round, branch-and-bound node and pricing
    # LP of a CP/CH run, a DC/IP run with blocks and the warm N-1 runs of a
    # CP/CH base, _start leaves them and their values as they are, and the
    # carried B^-1 inverts that basis to within the drift of the product-form
    # updates since its last fresh inverse
    gen = benchmark_module("gen")
    runs = {
        "cp-ch": [(gen.make_case(gen.CaseSpec(4, 1), seed, 0), algorithm.CppaConfig(
            pricing_rule="ch"), None)],
        "dc-ip-blocks": [(gen.make_case(gen.CaseSpec(12, 4, blocks=4, condensers=False),
                                        seed, 0),
                          algorithm.CppaConfig(pricing_rule="ip", network_model="dc"), None)],
    }
    base = gen.make_case(gen.CaseSpec(4, 2), seed, 0)
    store = tmp_path / "base.cuts.json"
    _base_store(base, store)
    runs["cp-n1-warm"] = [
        (outage, algorithm.CppaConfig(pricing_rule="ch"), cuts.load_cuts(store, outage)[0])
        for outage in (netio.apply_contingency(base, [bid]) for bid in gen.n1_outages(base))]

    placed = {}
    for name, cases in runs.items():
        starts = _carried_starts(monkeypatch)
        results = [run_cppa(case, config, warm_cuts=warm) for case, config, warm in cases]
        monkeypatch.undo()
        for hint, A, c, lb, ub, basis, Binv in starts:
            status, x, start_basis, _ = solver._start(hint, A, c, lb, ub)
            np.testing.assert_array_equal(status, hint)
            np.testing.assert_array_equal(start_basis, basis)
            assert np.abs(Binv @ A[:, basis] - np.eye(basis.size)).max() <= 1e-9
            np.testing.assert_array_equal(
                x, np.where(hint == solver.AT_LOWER, lb,
                            np.where(hint == solver.AT_UPPER, ub, 0.0)))
        assert all(res.status == algorithm.STATUS_OPTIMAL for res in results)
        placed[name] = starts
    assert all(len(starts) > 5 for starts in placed.values())
    # the sample holds pins: columns fixed by a branch or by fix_binaries
    # that start nonbasic
    assert any(((lb == ub) & (hint != solver.BASIC)).any()
               for hint, _, _, lb, ub, _, _ in placed["dc-ip-blocks"])
