"""The cut store carries the terminal basis of the run that wrote it, and a
run that reads it starts its first LP from that basis: mapped by name onto
the (possibly outaged) model and repaired by ``solver.repair_basis``."""

import json

import numpy as np
import pytest

from cppa import algorithm, cli, cuts, netio, solver
from cppa.algorithm import STATUS_OPTIMAL, CppaConfig, run_cppa

from conftest import record_solve_lp, with_cut_rows
from test_solver import _ring_case


def _base_store(case, path):
    """Run the case cold and write its cut store; returns the run's result."""
    res = run_cppa(case, CppaConfig())
    assert res.status == STATUS_OPTIMAL
    cuts.save_cuts(res.pool, path, case)
    return res


def _copy_without_basis(store, path):
    """Copy the store to ``path`` without its basis fields, as a writer that
    predates them leaves it."""
    data = json.loads(store.read_text())
    del data["basis"]
    for cut in data["cuts"]:
        del cut["status"]
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def test_store_with_a_basis_save_load_save_is_byte_identical(three_bus, tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    res = _base_store(three_bus, first)
    data = json.loads(first.read_text())
    model = algorithm.build_welfare(three_bus, "cp")
    assert len(data["basis"]) == len(model.variables) + len(model.rows)
    assert [c["status"] for c in data["cuts"]] == [c.status for c in res.pool.cuts]
    cuts.save_cuts(cuts.load_cuts(first, three_bus)[0], second, three_bus)
    assert first.read_bytes() == second.read_bytes()


def test_load_keeps_the_statuses_of_surviving_cuts(three_bus, tmp_path):
    store = tmp_path / "cuts.json"
    res = _base_store(three_bus, store)
    pool, _, dropped = cuts.load_cuts(store, netio.apply_contingency(three_bus, [2]))
    assert dropped == sum(c.branch_id == 2 for c in res.pool.cuts)
    assert [c.status for c in pool.cuts] == [
        c.status for c in res.pool.cuts if c.branch_id != 2]
    assert pool.basis == res.pool.basis


def test_a_cut_without_a_status_reads_as_one_with_a_basic_slack(tmp_path, monkeypatch):
    # null cut statuses give the first LP of an outage the hint that
    # explicit basic ones give
    case = _ring_case(4)
    store = tmp_path / "cuts.json"
    _base_store(case, store)
    data = json.loads(store.read_text())
    out = netio.apply_contingency(case, [1])
    calls = record_solve_lp(monkeypatch)
    hints = []
    for status in (None, solver.BASIC):
        for cut in data["cuts"]:
            cut["status"] = status
        store.write_text(json.dumps(data))
        pool = cuts.load_cuts(store, out)[0]
        assert pool.cuts and all(c.status == solver.BASIC for c in pool.cuts)
        first = len(calls)
        run_cppa(out, CppaConfig(max_rounds=1), warm_cuts=pool)
        hints.append(calls[first][1])
    assert hints[0] is not None
    np.testing.assert_array_equal(*hints)


def test_repair_leaves_a_usable_basis_as_it_is(three_bus):
    model = algorithm.build_welfare(three_bus, "cp")
    cold = solver.solve_lp(model)
    A = solver.standard_form(model)[0]
    np.testing.assert_array_equal(solver.repair_basis(A, cold.basis_status), cold.basis_status)


@pytest.mark.parametrize("outage, excess", [(1, -1), (3, 1)],
                         ids=["too-few-basic", "too-many-basic"])
def test_repaired_hint_is_a_basis_of_the_outage_model(tmp_path, outage, excess):
    # the outage takes away the branch's c, s and four flow columns (all
    # basic at the base's optimum), its four definition rows and its cuts'
    # rows: one tight cut of branch 1 leaves a column short, three tight
    # cuts of branch 3 leave one over
    case = _ring_case(4)
    store = tmp_path / "cuts.json"
    base = _base_store(case, store)
    assert base.pool.basis[f"e{outage}_c"] == base.pool.basis[f"e{outage}_s"] == solver.BASIC
    out = netio.apply_contingency(case, [outage])
    pool = cuts.load_cuts(store, out)[0]
    base_model = algorithm.build_welfare(out, "cp")
    working = with_cut_rows(base_model, pool)
    mapped = algorithm._stored_basis(working, len(base_model.rows), pool)
    m = len(working.rows)
    assert int((mapped == solver.BASIC).sum()) == m + excess

    A = solver.standard_form(working)[0]
    hint = solver.repair_basis(A, mapped)
    assert int((hint == solver.BASIC).sum()) == m
    assert np.linalg.matrix_rank(A[:, hint == solver.BASIC]) == m
    # _start takes it: a warm solve agrees with a cold one
    warm, cold = solver.solve_lp(working, basis_hint=hint), solver.solve_lp(working)
    assert warm.iterations < cold.iterations
    assert warm.objective == pytest.approx(cold.objective, abs=1e-9)


@pytest.mark.parametrize("n_bus", [3, 4, 6])
def test_warm_basis_prices_match_a_cold_first_lp_on_every_outage(tmp_path, n_bus):
    case = _ring_case(n_bus)
    store, plain = tmp_path / "cuts.json", tmp_path / "plain.json"
    _base_store(case, store)
    _copy_without_basis(store, plain)
    first = {"warm": 0, "cold": 0}
    for br in case.branches:
        out = netio.apply_contingency(case, [br.id])
        warm = run_cppa(out, CppaConfig(), warm_cuts=cuts.load_cuts(store, out)[0])
        cold = run_cppa(out, CppaConfig(), warm_cuts=cuts.load_cuts(plain, out)[0])
        assert warm.status == cold.status == STATUS_OPTIMAL
        assert warm.rounds == cold.rounds
        for bus in case.buses:
            assert warm.prices_p[bus.id] == pytest.approx(cold.prices_p[bus.id], abs=1e-9)
            assert warm.prices_q[bus.id] == pytest.approx(cold.prices_q[bus.id], abs=1e-9)
        first["warm"] += warm.lp_iterations[0]
        first["cold"] += cold.lp_iterations[0]
    assert first["warm"] < first["cold"]


def _cli_outage(case, tmp_path, *extra):
    """Write the case and a branch-1 outage; run the outage through the CLI
    with ``extra`` options. Returns (exit code, output directory)."""
    path, outage = tmp_path / "case.json", tmp_path / "outage.json"
    netio.save_case(case, path)
    outage.write_text("[1]\n")
    out = tmp_path / "outage"
    code = cli.main(["--case", str(path), "--model", "cp", "--rule", "ch",
                     "--contingency", str(outage), "--out-dir", str(out), *extra])
    return code, out


def test_cuts_in_run_starts_its_first_lp_from_the_stored_basis(tmp_path, monkeypatch):
    case = _ring_case(4)
    path, store = tmp_path / "base.json", tmp_path / "cuts.json"
    netio.save_case(case, path)
    assert cli.main(["--case", str(path), "--model", "cp", "--rule", "ch",
                     "--cuts-out", str(store), "--out-dir", str(tmp_path / "base")]) == 0
    calls = record_solve_lp(monkeypatch)
    code, _ = _cli_outage(case, tmp_path, "--cuts-in", str(store))
    assert code == cli.EXIT_OK
    assert calls[0][1] is not None


def test_store_without_a_basis_starts_cold(tmp_path, monkeypatch):
    case = _ring_case(4)
    store = tmp_path / "cuts.json"
    _base_store(case, store)
    plain = tmp_path / "plain.json"
    _copy_without_basis(store, plain)
    calls = record_solve_lp(monkeypatch)
    code, out = _cli_outage(case, tmp_path, "--cuts-in", str(plain))
    assert code == cli.EXIT_OK
    assert calls[0][1] is None
    n_calls = len(calls)
    (tmp_path / "warm").mkdir()
    code, warm_out = _cli_outage(case, tmp_path / "warm", "--cuts-in", str(store))
    assert code == cli.EXIT_OK
    assert calls[n_calls][1] is not None
    cold_report = json.loads((out / "report.json").read_text())
    warm_report = json.loads((warm_out / "report.json").read_text())
    assert cold_report["rounds"] == warm_report["rounds"]
    assert warm_report["lp_iterations"][0] < cold_report["lp_iterations"][0]
    for cold_row, warm_row in zip((out / "prices.csv").read_text().splitlines()[1:],
                                  (warm_out / "prices.csv").read_text().splitlines()[1:]):
        for a, b in zip(cold_row.split(","), warm_row.split(",")):
            assert float(a) == pytest.approx(float(b), abs=1e-9)


def _carried(prev_model, prev_statuses, model, hint, n_base_rows):
    """Check that ``hint`` over the model's standard form holds the previous
    solve's statuses on every base column and row and on every cut row the
    previous model had, and BASIC on cut rows admitted since. Returns
    (surviving, admitted) cut counts."""
    n_base = len(model.variables) + n_base_rows
    np.testing.assert_array_equal(hint[:n_base], prev_statuses[:n_base])
    n_cols = len(prev_model.variables)
    prev = {row.name: prev_statuses[n_cols + i] for i, row in enumerate(prev_model.rows)}
    surviving = admitted = 0
    for st, row in zip(hint[n_base:], model.rows[n_base_rows:], strict=True):
        if row.name in prev:
            surviving += 1
            assert st == prev[row.name], row.name
        else:
            admitted += 1
            assert st == solver.BASIC, row.name
    return surviving, admitted


@pytest.mark.parametrize("name", ["three_bus", "ring4"])
def test_each_round_starts_from_the_previous_solve(name, request, monkeypatch):
    case = _ring_case(4) if name == "ring4" else request.getfixturevalue(name)
    n_base_rows = len(algorithm.build_welfare(case, "cp").rows)
    calls = record_solve_lp(monkeypatch)
    res = run_cppa(case, CppaConfig(network_model="cp", pricing_rule="ch"))
    assert res.status == STATUS_OPTIMAL
    assert len(calls) == res.rounds >= 3
    assert calls[0][1] is None
    counts = [_carried(prev_model, prev.basis_status, model, hint, n_base_rows)
              for (prev_model, _, prev), (model, hint, _) in zip(calls, calls[1:])]
    assert all(surviving for surviving, _ in counts[1:])
    assert any(admitted for _, admitted in counts)


@pytest.mark.parametrize("max_rounds", [1, 2])
def test_milp_root_starts_from_the_last_solve(three_bus, monkeypatch, max_rounds):
    # a max_rounds exit admits cuts after the last loop LP
    roots = []
    solve_milp = solver.solve_milp

    def recording(model, carry=None, **kw):
        roots.append((model, carry.status.copy()))  # the root's start statuses
        return solve_milp(model, carry=carry, **kw)

    calls = record_solve_lp(monkeypatch)
    monkeypatch.setattr(solver, "solve_milp", recording)
    res = run_cppa(three_bus, CppaConfig(network_model="cp", pricing_rule="ip",
                                         max_rounds=max_rounds))
    assert res.status == STATUS_OPTIMAL
    assert res.termination == "max_rounds" and res.rounds == max_rounds
    last_model, _, last = calls[res.rounds - 1]
    [(model, hint)] = roots
    n_base_rows = len(algorithm.build_welfare(three_bus, "cp").rows)
    surviving, admitted = _carried(last_model, last.basis_status, model, hint, n_base_rows)
    assert admitted and bool(surviving) == (max_rounds > 1)


def test_store_after_max_rounds_holds_basic_slacks_for_new_cuts(tmp_path, monkeypatch):
    case = _ring_case(4)
    path, store = tmp_path / "case.json", tmp_path / "cuts.json"
    netio.save_case(case, path)
    results = []
    run = algorithm.run_cppa

    def recording(*args, **kw):
        results.append(run(*args, **kw))
        return results[-1]

    calls = record_solve_lp(monkeypatch)
    monkeypatch.setattr(algorithm, "run_cppa", recording)
    assert cli.main(["--case", str(path), "--model", "cp", "--rule", "ch",
                     "--max-rounds", "2", "--cuts-out", str(store),
                     "--out-dir", str(tmp_path / "out")]) == cli.EXIT_OK
    [res] = results
    assert res.termination == "max_rounds"
    last_model, _, last = calls[-1]
    n_cols = len(last_model.variables)
    solved = {row.name: int(last.basis_status[n_cols + i])
              for i, row in enumerate(last_model.rows)}
    stored = [c["status"] for c in json.loads(store.read_text())["cuts"]]
    expected = [solved.get(c.to_row(last_model).name, solver.BASIC) for c in res.pool.cuts]
    assert stored == expected
    new = [c for c in res.pool.cuts if c.birth_round == res.rounds]
    assert new and all(c.to_row(last_model).name not in solved for c in new)
