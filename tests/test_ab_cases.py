"""``tools/ab_cases.py``: two trees' ``cppa`` timed case by case in one
process, and a change judged by its answers, not its bytes."""

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("ab_cases", ROOT / "tools" / "ab_cases.py")
ab_cases = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_cases)


@pytest.fixture
def own_imports(monkeypatch):
    """Leave sys.path, and the project's modules in sys.modules, as the test
    found them (numpy's extension modules load once per process)."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = set(sys.modules)
    yield
    for name in set(sys.modules) - before:
        if name.partition(".")[0] in ("cppa", "cppa_base", "harness", "oracle", "gen",
                                      "tracing"):
            del sys.modules[name]


def test_summary_reports_each_round_and_the_median():
    # (base, change) seconds per round
    assert ab_cases.summary([(2.0, 1.9), (2.0, 2.1), (1.0, 0.9)]) == [
        "round 1: change/base 0.9500 (change won)",
        "round 2: change/base 1.0500 (base won)",
        "round 3: change/base 0.9000 (change won)",
        "median change/base 0.9500, range 0.9000-1.0500, change won 2 of 3 rounds",
    ]


def test_a_tree_against_itself_writes_equal_artifacts(own_imports, monkeypatch, capsys):
    # each side's entry is made from the pricing model captured on that
    # side: the base side's comes from the base package
    models = set()
    case_entry = ab_cases._case_entry
    monkeypatch.setattr(ab_cases, "_case_entry", lambda code, out, capture, oracle: (
        models.add((out.parent.parent.name[-1], type(capture.lp[0]).__module__))
        or case_entry(code, out, capture, oracle)))
    code = ab_cases.main(["--base", str(ROOT), "--workload", "cp_ch_cold",
                          "--cases", "2", "--rounds", "2"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert models == {("0", "cppa_base.model"), ("1", "cppa.model")}
    assert out[0] == "cp_ch_cold seed 1: 2 cases, 2 rounds"
    assert [line.split(":")[0] for line in out[1:3]] == ["round 1", "round 2"]
    assert out[3].startswith("median change/base ") and out[3].endswith(" of 2 rounds")
    base, change = out[4].removeprefix("cp_ch_cold simplex iterations: base ").split(", change ")
    assert change == f"{base} (equal)" and int(base) > 0
    assert out[5:] == [
        "cases: 2 in both, 0 only in the parent, 0 only in the change",
        "exit codes equal: 2 of 2", "rounds equal: 2 of 2",
        "byte-equal prices.csv: 2 of 2", "byte-equal allocation.json: 2 of 2",
        "byte-equal report.json: 2 of 2", "byte-equal cut stores: 0 of 0",
        "largest price difference: 0 $/MWh (cp_ch_cold 1 ring4_s1_i1), "
        "over 2 cases priced on both sides",
        "largest allocation difference: 0 (cp_ch_cold 1 ring4_s1_i1), "
        "over 2 cases allocated on both sides",
        "largest cut coefficient or rhs difference: no store whose cuts line up",
        "cut stores with equal cut counts and statuses: 0 of 0",
        "oracle problems new: 0", "oracle problems fixed: 0",
        "flagged on both sides, prices moved: 0"]
    # the base side is a second copy of the package, under its own name,
    # loaded from the base tree
    assert sys.modules["cppa_base.cli"] is not sys.modules["cppa.cli"]
    assert (Path(sys.modules["cppa_base.solver"].__file__).resolve()
            == (ROOT / "src" / "cppa" / "solver.py").resolve())


def test_each_side_prices_the_outages_from_its_own_cut_stores(own_imports, tmp_path,
                                                              monkeypatch, capsys):
    # build_jobs runs the N-1 workload's bases through the CLI it is
    # given, whose stores the jobs read, and leaves the harness its own CLI
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    import harness
    from cppa import cli

    ran = []
    recording = SimpleNamespace(EXIT_OK=cli.EXIT_OK,
                                main=lambda argv: ran.append(argv) or cli.main(argv))
    workload = harness.WORKLOADS["cp_n1_warm"]
    jobs = ab_cases.build_jobs(harness, recording, workload, 1, tmp_path / "cases", 2)
    assert harness.cli is cli
    assert len(jobs) == 2
    stores = {argv[argv.index("--cuts-out") + 1] for argv in ran}
    assert len(ran) == len(stores) == workload.bases
    assert all(job.argv[job.argv.index("--cuts-in") + 1] in stores for job in jobs)

    # main builds the base side's jobs with the base package, the change
    # side's with this one
    sides = []
    build_jobs = ab_cases.build_jobs
    monkeypatch.setattr(ab_cases, "build_jobs", lambda harness, cli, *args: (
        sides.append(cli.__name__) or build_jobs(harness, cli, *args)))
    code = ab_cases.main(["--base", str(ROOT), "--workload", "cp_n1_warm",
                          "--cases", "2", "--rounds", "1"])
    assert code == 0
    assert sides == ["cppa_base.cli", "cppa.cli"]
    out = capsys.readouterr().out.splitlines()
    for line in ("exit codes equal: 2 of 2", "byte-equal prices.csv: 2 of 2",
                 "byte-equal allocation.json: 2 of 2", "byte-equal report.json: 2 of 2"):
        assert line in out
    assert f"byte-equal cut stores: {workload.bases} of {workload.bases}" in out
    assert (f"cut stores with equal cut counts and statuses: {workload.bases} of "
            f"{workload.bases}") in out


def _case(prices, rounds=5, problems=(), allocation=([1.0, 0.5, 0.0, 0.0, 0.0], [0.5, 0.0]),
          **hashes):
    entry = {"exit": 0, "rounds": rounds, "prices.csv": "p", "allocation.json": "a",
             "report.json": "r", "prices": prices, "problems": list(problems)}
    if allocation is not None:
        entry["allocation"] = [list(row) for row in allocation]
    entry.update(hashes)
    return entry


def _store(sha, cuts=((0.0, 1.0, -0.5),), statuses=(2,), basis=(["bal_p_1", 2],)):
    """A cut store's entry: its hash, statuses and cut numbers."""
    return {"store": sha, "statuses": [*statuses, *map(list, basis)],
            "cuts": [list(cut) for cut in cuts]}


PARENT = {
    "cp_ch_cold 1 ring4_s1_i0": _case([[10.0, 0.5], [12.0, 0.25]]),
    "cp_ch_cold 1 ring4_s1_i1": _case([[11.0, 0.5]], problems=["duals off HiGHS"]),
    "cp_n1_warm 1 ring4_s1_i0.cuts.json": _store("s"),
    "dc_ip_commit 1 mesh12_s1_i0": _case([[20.0, None]]),
    "dc_ip_commit 1 mesh12_s1_i9": _case([[20.0, None]]),
}
CHANGE = {
    "cp_ch_cold 1 ring4_s1_i0": _case([[10.0, 0.5], [12.0 + 2e-9, 0.25]],
                                      **{"prices.csv": "p2", "report.json": "r2"}),
    "cp_ch_cold 1 ring4_s1_i1": _case([[11.0, 0.5]], rounds=6, allocation=None,
                                      **{"allocation.json": "a2"}),
    # a cut's rhs moved by 2^-50, its status kept
    "cp_n1_warm 1 ring4_s1_i0.cuts.json": _store("s2", cuts=((2.0**-50, 1.0, -0.5),)),
    # a dispatch moved by 2^-48, as a pivot on another inverse may move it
    "dc_ip_commit 1 mesh12_s1_i0": _case([[20.0, None]], problems=["objective off"],
                                         allocation=([1.0, 0.5 + 2.0**-48, 0.0, 0.0, 0.0],
                                                     [0.5, 0.0]),
                                         **{"allocation.json": "a2"}),
}
CASE = "cp_ch_cold 1 ring4_s1_i0"
FLAGGED = "cp_ch_cold 1 ring4_s1_i1"


def test_compare_summarizes_parity_by_case():
    assert ab_cases.compare(PARENT, CHANGE) == [
        "cases: 3 in both, 1 only in the parent, 0 only in the change",
        "exit codes equal: 3 of 3",
        "rounds equal: 2 of 3",
        "byte-equal prices.csv: 2 of 3",
        "byte-equal allocation.json: 1 of 3",
        "byte-equal report.json: 2 of 3",
        "byte-equal cut stores: 0 of 1",
        "largest price difference: 2e-09 $/MWh (cp_ch_cold 1 ring4_s1_i0), "
        "over 3 cases priced on both sides",
        "largest allocation difference: 3.55e-15 (dc_ip_commit 1 mesh12_s1_i0), "
        "over 2 cases allocated on both sides",
        "largest cut coefficient or rhs difference: 8.88e-16 "
        "(cp_n1_warm 1 ring4_s1_i0.cuts.json), over 1 stores whose cuts line up",
        "cut stores with equal cut counts and statuses: 1 of 1",
        "oracle problems new: 1",
        "  dc_ip_commit 1 mesh12_s1_i0: objective off",
        "oracle problems fixed: 1",
        "  cp_ch_cold 1 ring4_s1_i1: duals off HiGHS",
        "flagged on both sides, prices moved: 0",
        "moved cp_ch_cold 1 ring4_s1_i0: exit 0 -> 0, rounds 5 -> 5, "
        "largest price gap 2e-09 $/MWh",
        "moved cp_ch_cold 1 ring4_s1_i1: exit 0 -> 0, rounds 5 -> 6, "
        "largest price gap 0 $/MWh",
    ]


def test_compare_names_the_report_keys_that_differ():
    # lp_iterations moves on four cases, and a key that only the change's
    # report holds on the fifth; status moves on none
    def report(iterations, **extra):
        return {"report": {"status": "Optimal", "lp_iterations": iterations, **extra}}

    keys = [f"cp_ch_cold 1 ring4_s1_i{i}" for i in range(5)]
    parent = {k: {**_case([[10.0, 0.5]]), **report([9, 4])} for k in keys}
    change = {k: {**parent[k], **report([9, 4] if i == 4 else [8, 4])}
              for i, k in enumerate(keys)}
    change[keys[4]] = {**change[keys[4]], **report([9, 4], islanded=False)}
    lines = ab_cases.compare(parent, change)
    byte_counts = lines.index("byte-equal cut stores: 0 of 0")
    assert lines[byte_counts + 1:byte_counts + 3] == [
        "report.json islanded differs: 1 of 5 cases, first cp_ch_cold 1 ring4_s1_i4",
        "report.json lp_iterations differs: 4 of 5 cases, first cp_ch_cold 1 ring4_s1_i0, "
        "cp_ch_cold 1 ring4_s1_i1, cp_ch_cold 1 ring4_s1_i2"]
    assert not any(line.startswith("report.json status") for line in lines)


def test_compare_counts_price_moves_the_verdict_cannot_judge():
    # the oracle flags the parent's answer, so a new price is not a new problem
    change = {**PARENT, FLAGGED: {**PARENT[FLAGGED], "prices": [[45.0, 0.5]]}}
    assert "flagged on both sides, prices moved: 1" in ab_cases.compare(PARENT, change)


def test_an_entry_holds_the_allocation_values(tmp_path):
    (tmp_path / "allocation.json").write_text(json.dumps({
        "generators": [{"id": 4, "on": 1.0, "p": 0.25, "q": 0.0, "sd": 0.0, "su": 1.0}],
        "loads": [{"id": 1, "p": 0.5, "q": -0.125}],
        "version": "cppa-alloc-v1"}))
    entry = ab_cases._case_entry(0, tmp_path, None, None)
    assert entry["allocation"] == [[1.0, 0.25, 0.0, 0.0, 1.0], [0.5, -0.125]]


def test_an_entry_holds_the_report_without_its_timings(tmp_path):
    (tmp_path / "report.json").write_text(json.dumps({
        "rounds": 3, "lp_iterations": [7, 2, 1], "timings": {"time_lp_s": 0.5}}))
    oracle = SimpleNamespace(check_case=lambda *args: (True, []))
    entry = ab_cases._case_entry(0, tmp_path, SimpleNamespace(lp=None, milp=None), oracle)
    assert entry["report"] == {"rounds": 3, "lp_iterations": [7, 2, 1]}
    assert entry["rounds"] == 3


def _with(entries, key, **fields):
    """A copy of the entries with the case ``key``'s ``fields`` replaced."""
    return {**entries, key: {**entries[key], **fields}}


@pytest.mark.parametrize("change, code", [
    (PARENT, 0),
    (CHANGE, 1),
    (_with(PARENT, CASE, exit=2), 1),
    # bytes, rounds and prices only report
    (_with(PARENT, CASE, rounds=6), 0),
    (_with(PARENT, CASE, prices=[[10.5, 0.5]], **{"prices.csv": "p2"}), 0),
    (_with(PARENT, CASE, **{"allocation.json": "a2"}), 0),
    (_with(PARENT, CASE, **{"report.json": "r2"}), 0),
    ({**PARENT, "cp_n1_warm 1 ring4_s1_i0.cuts.json": _store("s2", statuses=(0,))}, 0),
    (_with(PARENT, CASE, problems=["duals off HiGHS"]), 1),
    (_with(PARENT, FLAGGED, problems=[]), 0),
], ids=["identical", "change", "exit", "rounds", "prices", "allocation", "report", "store",
        "new-problem", "fixed-problem"])
def test_the_verdict_follows_answers_not_bytes(change, code):
    assert ab_cases.verdict(PARENT, change) == code


def test_simplex_iterations_sum_every_lp_of_a_report():
    assert ab_cases.simplex_iterations({"lp_iterations": [7, 2, 1], "milp_lp_iterations": 30,
                                        "pricing_lp_iterations": 4}) == 44
    # the CH rule runs no MILP: its counts are null
    assert ab_cases.simplex_iterations({"lp_iterations": [7, 2], "milp_lp_iterations": None,
                                        "pricing_lp_iterations": None}) == 9
    assert ab_cases.simplex_iterations({}) == 0


def test_iteration_sums_read_each_side_of_one_workload():
    def report(rounds, milp=None, pricing=None):
        return {"report": {"lp_iterations": rounds, "milp_lp_iterations": milp,
                           "pricing_lp_iterations": pricing}}

    parent = {"cp_ch_cold 1 ring4_s1_i0": report([9, 4]),
              "cp_ch_cold 1 ring4_s1_i1": report([3]),
              "dc_ip_commit 1 mesh12_s1_i0": report([5], milp=20, pricing=1),
              "cp_n1_warm 1 ring4_s1_i0.cuts.json": _store("s")}
    change = {**parent, "dc_ip_commit 1 mesh12_s1_i0": report([5], milp=18, pricing=1)}
    assert ab_cases.iteration_sums(parent, change, "cp_ch_cold") == (
        "cp_ch_cold simplex iterations: base 16, change 16 (equal)")
    assert ab_cases.iteration_sums(parent, change, "dc_ip_commit") == (
        "dc_ip_commit simplex iterations: base 26, change 24 (-2)")
    # a case only one side ran counts on neither
    assert ab_cases.iteration_sums({}, change, "cp_ch_cold") == (
        "cp_ch_cold simplex iterations: base 0, change 0 (equal)")


def test_compare_judges_cut_stores_by_their_numbers():
    # a store whose cuts moved by 1e-12 is not byte-equal but lines up; one
    # with a cut more, or a status moved, does not count as equal, and a
    # cut of another kind (more coefficients) is left out of the gap
    key = "cp_n1_warm 1 ring4_s{}_i0.cuts.json"
    parent = {key.format(1): _store("a"), key.format(2): _store("b"),
              key.format(3): _store("c"), key.format(4): _store("d")}
    change = {key.format(1): _store("a2", cuts=((0.0, 1.0 + 1e-12, -0.5),)),
              key.format(2): _store("b2", cuts=((0.0, 1.0, -0.5), (0.0, 2.0, 1.0)),
                                    statuses=(2, 2)),
              key.format(3): _store("c2", statuses=(0,)),
              key.format(4): _store("d", cuts=((0.0, 1.0, -0.5, 0.25),))}
    lines = ab_cases.compare(parent, change)
    assert "byte-equal cut stores: 1 of 4" in lines
    assert ("largest cut coefficient or rhs difference: 1e-12 "
            "(cp_n1_warm 1 ring4_s1_i0.cuts.json), over 2 stores whose cuts line up") in lines
    assert "cut stores with equal cut counts and statuses: 2 of 4" in lines


def test_a_store_entry_holds_its_statuses_and_numbers(tmp_path):
    store = {"basis": [["bal_p_1", 1], ["e1_Pf", 2]], "bus_count": 4, "version": "cppa-cuts-v1",
             "cuts": [{"branch_id": 1, "cone_kind": "JabrRotated", "rhs": 0.0, "status": 0,
                       "coefficients": [["c", 4.5], ["s", 0.25], ["v2_from", -2.0]]},
                      {"branch_id": 2, "cone_kind": "JabrRotated", "rhs": 0.5,
                       "coefficients": [["c", 1.0]]}]}
    data = json.dumps(store).encode()
    entry = ab_cases._store_entry(data)
    assert entry["statuses"] == [0, None, ["bal_p_1", 1], ["e1_Pf", 2]]
    assert entry["cuts"] == [[0.0, 4.5, 0.25, -2.0], [0.5, 1.0]]
    assert entry["store"] == ab_cases.hashlib.sha256(data).hexdigest()
