import dataclasses
import json
import math
from types import SimpleNamespace

import pytest

from cppa import algorithm
from cppa import cli, econ, netio, solver

from conftest import benchmark_module, clock_jumps_at, record_solve_lp
from test_solver import GENERATED_RUNS, _ring_case


def _save(case, tmp_path, name):
    path = tmp_path / f"{name}.json"
    netio.save_case(case, path)
    return str(path)


def _report(out_dir):
    with open(out_dir / "report.json") as fh:
        return json.load(fh)


def test_basic_run_writes_artifacts(two_bus_lossless, tmp_path):
    case = _save(two_bus_lossless, tmp_path, "case")
    out = tmp_path / "out"
    code = cli.main(["--case", case, "--out-dir", str(out)])
    assert code == cli.EXIT_OK
    assert (out / "prices.csv").exists()
    assert (out / "allocation.json").exists()
    report = _report(out)
    assert report["status"] == "Optimal"
    assert report["objective"] == pytest.approx(2000.0, abs=1e-6)
    assert report["efficiency"]["welfare"] == pytest.approx(2000.0, abs=1e-6)
    text = (out / "prices.csv").read_text().splitlines()
    assert text[0] == "bus_id,price_p,price_q"
    assert text[1].startswith("1,10.0000000")


def test_dc_prices_csv_has_empty_q(two_bus_lossless, tmp_path):
    case = _save(two_bus_lossless, tmp_path, "case")
    out = tmp_path / "out"
    code = cli.main(["--case", case, "--model", "dc", "--out-dir", str(out)])
    assert code == cli.EXIT_OK
    rows = (out / "prices.csv").read_text().splitlines()
    assert rows[1].endswith(",")  # no reactive price column in DC


def test_islanding_contingency_exit_code(two_bus_lossless, tmp_path):
    case = _save(two_bus_lossless, tmp_path, "case")
    cont = tmp_path / "outage.json"
    cont.write_text("[1]\n")
    out = tmp_path / "out"
    code = cli.main(["--case", case, "--contingency", str(cont),
                     "--out-dir", str(out)])
    assert code == cli.EXIT_INFEASIBLE
    report = _report(out)
    assert report["status"] == "Infeasible"
    assert report["termination"] == "islanded"
    assert not (out / "prices.csv").exists()


def test_bad_case_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = cli.main(["--case", str(bad), "--out-dir", str(tmp_path / "out")])
    assert code == cli.EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def _strip_timings(report):
    report.pop("timings", None)
    return report


def test_deterministic_artifacts(three_bus, tmp_path):
    case = _save(three_bus, tmp_path, "case")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["--case", case, "--out-dir", str(out_a)]) == 0
    assert cli.main(["--case", case, "--out-dir", str(out_b)]) == 0
    for name in ("prices.csv", "allocation.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    # wall-clock timings are the only nondeterministic report fields
    assert (_strip_timings(_report(out_a))
            == _strip_timings(_report(out_b)))


def test_warm_start_round_trip(three_bus, tmp_path):
    case = _save(three_bus, tmp_path, "case")
    store = tmp_path / "cuts.json"
    out1, out2 = tmp_path / "cold", tmp_path / "warm"
    assert cli.main(["--case", case, "--out-dir", str(out1),
                     "--cuts-out", str(store)]) == 0
    assert store.exists()
    assert cli.main(["--case", case, "--out-dir", str(out2),
                     "--cuts-in", str(store), "--max-rounds", "1"]) == 0
    cold, warm = _report(out1), _report(out2)
    assert warm["warm_cuts_loaded"] == cold["cut_pool_size"]
    assert warm["warm_cuts_dropped"] == 0
    assert warm["objective_trace"][0] == pytest.approx(
        cold["objective_trace"][-1], abs=1e-6)


def test_reference_price_comparison(three_bus, tmp_path):
    case = _save(three_bus, tmp_path, "case")
    out1, out2 = tmp_path / "ref", tmp_path / "cmp"
    assert cli.main(["--case", case, "--out-dir", str(out1)]) == 0
    assert cli.main(["--case", case, "--out-dir", str(out2),
                     "--reference-prices", str(out1 / "prices.csv")]) == 0
    report = _report(out2)
    assert report["delta_vs_reference"] == pytest.approx(0.0, abs=1e-8)
    deltas = report["delta_per_round"]
    assert len(deltas) == report["rounds"]
    assert deltas[-1] == pytest.approx(0.0, abs=1e-8)


def test_dump_model_writes_lp_file(two_bus_lossless, tmp_path):
    case = _save(two_bus_lossless, tmp_path, "case")
    out = tmp_path / "out"
    assert cli.main(["--case", case, "--out-dir", str(out),
                     "--dump-model"]) == 0
    text = (out / "model.lp").read_text()
    assert text.startswith("Maximize")
    assert "bal_p_1" in text


def test_multiple_cases_get_subdirectories(two_bus_lossless, three_bus,
                                           tmp_path):
    a = _save(two_bus_lossless, tmp_path, "alpha")
    b = _save(three_bus, tmp_path, "beta")
    out = tmp_path / "out"
    code = cli.main(["--case", a, "--case", b, "--jobs", "2",
                     "--out-dir", str(out)])
    assert code == cli.EXIT_OK
    assert (out / "alpha" / "report.json").exists()
    assert (out / "beta" / "report.json").exists()


def test_worst_exit_code_wins(two_bus_lossless, tmp_path):
    ok = _save(two_bus_lossless, tmp_path, "ok")
    cont = tmp_path / "outage.json"
    cont.write_text("[1]\n")
    out = tmp_path / "out"
    code = cli.main(["--case", ok, "--case", ok, "--contingency", str(cont),
                     "--out-dir", str(out)])
    assert code == cli.EXIT_INFEASIBLE


def test_solver_error_exit_code(two_bus_lossless, tmp_path, monkeypatch, capsys):
    def singular(*args, **kwargs):
        raise solver.SingularBasisError("singular basis at iteration 7")

    monkeypatch.setattr(solver, "solve_lp", singular)
    case = _save(two_bus_lossless, tmp_path, "case")
    code = cli.main(["--case", case, "--out-dir", str(tmp_path / "out")])
    assert code == cli.EXIT_ERROR
    assert "error: singular basis" in capsys.readouterr().err


def test_prices_csv_writes_rounded_zero_unsigned(two_bus_lossless, tmp_path):
    result = SimpleNamespace(prices_p={1: -1e-13, 2: -12.5},
                             prices_q={1: -4e-10, 2: 3e-10})
    path = tmp_path / "prices.csv"
    cli._write_prices_csv(path, two_bus_lossless, result)
    assert path.read_text().splitlines()[1:] == [
        "1,0.000000000,0.000000000",
        "2,-12.500000000,0.000000000",
    ]


def test_report_counts_lp_iterations_per_round(three_bus, tmp_path):
    case = _save(three_bus, tmp_path, "case")
    out = tmp_path / "out"
    assert cli.main(["--case", case, "--out-dir", str(out)]) == 0
    report = _report(out)
    iterations = report["lp_iterations"]
    assert len(iterations) == report["rounds"]
    assert all(isinstance(k, int) and k >= 1 for k in iterations)


@pytest.mark.parametrize("text", ["[1,", "5", "null", "[true]", '{"a": 1}'],
                         ids=["truncated", "number", "null", "bool-id", "object"])
def test_malformed_contingency_exit_code(two_bus_lossless, tmp_path, capsys, text):
    case = _save(two_bus_lossless, tmp_path, "case")
    cont = tmp_path / "outage.json"
    cont.write_text(text + "\n")
    out = tmp_path / "out"
    code = cli.main(["--case", case, "--contingency", str(cont),
                     "--out-dir", str(out)])
    assert code == cli.EXIT_ERROR
    assert "error: contingency" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_run_spec_model_and_rule_win_over_its_config(two_bus_lossless, tmp_path):
    config = algorithm.CppaConfig(network_model="dc", pricing_rule="ch")
    spec = cli.RunSpec(case_path=_save(two_bus_lossless, tmp_path, "case"),
                       config=config, out_dir=str(tmp_path / "out"))
    code, report = cli.run_scenario(spec)
    assert code == cli.EXIT_OK
    assert (report["model"], report["rule"]) == ("cp", "ip")
    assert (config.network_model, config.pricing_rule) == ("dc", "ch")


def test_parser_defaults_are_the_config_and_spec_defaults():
    args = cli.build_parser().parse_args(["--case", "x.json"])
    config = algorithm.CppaConfig()
    for option, name in [("time_limit", "time_limit_s"), ("ftol", "ftol"),
                         ("ftol_rounds", "ftol_rounds"), ("t_age", "t_age"),
                         ("eps_viol", "eps_viol"), ("eps_par", "eps_par"),
                         ("rho", "rho"), ("max_rounds", "max_rounds")]:
        assert getattr(args, option) == getattr(config, name), option
    spec = cli.RunSpec(case_path="x.json")
    for option, name in [("model", "network_model"), ("rule", "pricing_rule"),
                         ("voll", "voll"), ("out_dir", "out_dir")]:
        assert getattr(args, option) == getattr(spec, name), option


def test_report_shows_the_ip_path(block_unit_market, tmp_path):
    case = _save(block_unit_market, tmp_path, "case")
    ip, ch = tmp_path / "ip", tmp_path / "ch"
    for rule, out in (("ip", ip), ("ch", ch)):
        assert cli.main(["--case", case, "--model", "dc", "--rule", rule,
                         "--out-dir", str(out)]) == cli.EXIT_OK
    report = _report(ip)
    assert report["milp_nodes"] >= 3  # the relaxation is fractional
    assert report["milp_lp_iterations"] >= report["milp_nodes"]
    assert 1 <= report["pricing_lp_iterations"] <= 2
    report = _report(ch)
    assert (report["milp_nodes"], report["milp_lp_iterations"],
            report["pricing_lp_iterations"]) == (None, None, None)


@pytest.mark.parametrize("source", ["one_bus_market", "block_unit_market", 0, 3])
def test_commitments_are_written_exactly_integral(source, request, tmp_path):
    # a pinned binary is a fixed column; a basic one's value comes through
    # the inverse, and generated case 3 once wrote unit 8 on at
    # 1.0000000000000002
    shape, config = GENERATED_RUNS["dc-ip-blocks"]
    if isinstance(source, int):
        gen = benchmark_module("gen")
        case = gen.make_case(gen.CaseSpec(**shape), 1, source)
    else:
        case = request.getfixturevalue(source)
    res = algorithm.run_cppa(case, config)
    assert res.status == algorithm.STATUS_OPTIMAL
    values = [v for roles in res.commitments.values() for v in roles.values()]
    assert all(v in (0.0, 1.0) for v in values)
    out = tmp_path / "out"
    assert cli.main(["--case", _save(case, tmp_path, "case"), "--model", "dc",
                     "--rule", "ip", "--out-dir", str(out)]) == cli.EXIT_OK
    written = json.loads((out / "allocation.json").read_text())["generators"]
    assert {g["id"]: {role: g[role] for role in ("on", "su", "sd")}
            for g in written} == res.commitments


def test_time_limit_inside_the_milp_exit_code(block_unit_market, tmp_path,
                                              monkeypatch):
    clock_jumps_at(monkeypatch, "solve_milp")
    case = _save(block_unit_market, tmp_path, "case")
    out = tmp_path / "out"
    code = cli.main(["--case", case, "--rule", "ip", "--time-limit", "10",
                     "--out-dir", str(out)])
    assert code == cli.EXIT_TIME_LIMIT
    report = _report(out)
    assert (report["status"], report["termination"]) == ("TimeLimit", "time_limit")
    assert report["milp_nodes"] == 0
    assert not (out / "prices.csv").exists()


def test_self_loop_branch_exit_code(two_bus_lossless, tmp_path, capsys):
    data = netio.case_to_dict(two_bus_lossless)
    data["branches"].append(dict(data["branches"][0], id=2, to=1))
    path = tmp_path / "case.json"
    path.write_text(json.dumps(data))
    code = cli.main(["--case", str(path), "--out-dir", str(tmp_path / "out")])
    assert code == cli.EXIT_ERROR
    assert "error: branch 2: from and to bus are the same" in capsys.readouterr().err


CUT = {"branch_id": 1, "cone_kind": "JabrRotated", "rhs": 0.0,
       "coefficients": [["c", 4.0], ["s", 4.0], ["v2_from", -2.8], ["v2_to", -2.8]]}


def _cut_store(**cut):
    """A one-cut store for the 2-bus case; a field given as None is left out."""
    return json.dumps({"version": "cppa-cuts-v1", "scenario": "case", "bus_count": 2,
                       "cuts": [{k: v for k, v in {**CUT, **cut}.items() if v is not None}]})


def test_a_cut_store_is_written_without_a_scenario_and_read_with_one(two_bus_lossless,
                                                                    tmp_path):
    # stores written before the field was dropped still load
    case = _save(two_bus_lossless, tmp_path, "case")
    written = tmp_path / "written.json"
    assert cli.main(["--case", case, "--model", "cp", "--cuts-out", str(written),
                     "--out-dir", str(tmp_path / "cold")]) == cli.EXIT_OK
    assert "scenario" not in json.loads(written.read_text())
    store = tmp_path / "cuts.json"
    store.write_text(_cut_store())
    out = tmp_path / "out"
    assert cli.main(["--case", case, "--model", "cp", "--cuts-in", str(store),
                     "--out-dir", str(out)]) == cli.EXIT_OK
    assert _report(out)["warm_cuts_loaded"] == 1


def _allocation(generators):
    return json.dumps({"version": "cppa-alloc-v1", "generators": generators,
                       "loads": [{"id": 1, "p": 0.5}]})


def _matpower(bus2="2 1 50 10 0 0 1 1 0 230 1 1.05 0.95",
              branch="1 2 0.01 0.1 0.02 250 0 0 0 0 1 -30 30", gencost="2 0 0 3 0.01 20 0",
              gen="1 0 0 100 -100 1 100 1 100 0"):
    """A two-bus MATPOWER case; a ``gencost`` of None leaves the block out."""
    return (f"mpc.baseMVA = 100;\nmpc.bus = [\n1 3 0 0 0 0 1 1 0 230 1 1.05 0.95;\n{bus2};\n];\n"
            f"mpc.gen = [\n{gen};\n];\nmpc.branch = [\n{branch};\n];\n"
            + (f"mpc.gencost = [\n{gencost};\n];\n" if gencost is not None else ""))


def _case(**changes):
    return lambda data: json.dumps({**data, **changes})


def _first(key, **changes):
    """The case with its first ``key`` record's fields changed."""
    return lambda data: json.dumps({**data, key: [{**data[key][0], **changes}, *data[key][1:]]})


def _segments(segments):
    return lambda data: json.dumps(
        {**data, "generators": [{**data["generators"][0], "cost_segments": segments}]})


# (option, file suffix, file text or a function of the case dict, expected in the error)
MALFORMED_INPUTS = {
    "case-list": ("--case", ".json", "[]", "case: expected an object"),
    "case-base-mva-string": ("--case", ".json", _case(base_mva="abc"),
                             "case: field 'base_mva' has the wrong type"),
    "case-buses-number": ("--case", ".json", _case(buses=5),
                          "case: field 'buses' has the wrong type"),
    "case-branch-list": ("--case", ".json", _case(branches=[[1, 2]]),
                         "branch: expected an object"),
    "case-segment-single": ("--case", ".json", _segments([[1.0]]),
                            "generator 1: field 'cost_segments' has the wrong type"),
    "cuts-truncated": ("--cuts-in", ".json", '{"version": ', "invalid JSON"),
    "cuts-list": ("--cuts-in", ".json", "[]", "cut store: expected an object"),
    "cuts-no-rhs": ("--cuts-in", ".json", _cut_store(rhs=None), "cut: missing field 'rhs'"),
    "cuts-bogus-cone": ("--cuts-in", ".json", _cut_store(cone_kind="Bogus"),
                        "unknown cone kind 'Bogus'"),
    "cuts-rhs-string": ("--cuts-in", ".json", _cut_store(rhs="abc"),
                        "cut: field 'rhs' has the wrong type"),
    "cuts-record-number": ("--cuts-in", ".json",
                           _cut_store().replace('"cuts": [{', '"cuts": [5, {'),
                           "cut: expected an object"),
    "case-nan": ("--case", ".json", lambda data: json.dumps(
        {**data, "generators": [{**data["generators"][0], "pmax": float("nan")}]}),
                 "invalid JSON: NaN is not a number"),
    "cuts-nan": ("--cuts-in", ".json", _cut_store(rhs=float("nan")),
                 "invalid JSON: NaN is not a number"),
    "cuts-bad-status": ("--cuts-in", ".json", _cut_store(status=7), "cut: unknown status 7"),
    "cuts-basis-status": ("--cuts-in", ".json",
                          _cut_store().replace('"cuts": [', '"basis": [["v2_1", 9]], "cuts": ['),
                          "basis holds an unknown status"),
    "cuts-basis-number": ("--cuts-in", ".json",
                          _cut_store().replace('"cuts": [', '"basis": 5, "cuts": ['),
                          "cut store: field 'basis' has the wrong type"),
    "cuts-foreign-role": ("--cuts-in", ".json",
                          _cut_store(coefficients=[["c", 1.0], ["P_to", -100.0]]),
                          "cut: role 'P_to' is not a JabrRotated role"),
    "phi-truncated": ("--phi", ".json", '{"version": ', "invalid JSON"),
    "phi-list": ("--phi", ".json", "[]", "allocation: expected an object"),
    "phi-no-p": ("--phi", ".json", _allocation([{"id": 1}]),
                 "generator allocation 1: missing field 'p'"),
    "phi-record-number": ("--phi", ".json", _allocation([5]),
                          "generator allocation: expected an object"),
    "phi-no-generator": ("--phi", ".json", _allocation([]), "misses an agent"),
    "prices-no-price-column": ("--reference-prices", ".csv", "bus_id,price\n1,10\n2,10\n",
                               "KeyError('price_p')"),
    "prices-not-a-number": ("--reference-prices", ".csv",
                            "bus_id,price_p,price_q\n1,abc,\n2,10,\n", "ValueError"),
    "matpower-non-numeric": ("--case", ".m", _matpower(bus2="2 1 50 abc 0"),
                             "mpc.bus row 2: could not convert"),
    "matpower-short-branch": ("--case", ".m", _matpower(branch="1 2 0.01 0.1 0.02"),
                              "mpc.branch row 1: too few columns"),
    "matpower-short-gencost": ("--case", ".m", _matpower(gencost="2 0 0 3 0.01 20"),
                               "mpc.gencost row 1"),
    "matpower-pmax-nan": ("--case", ".m", _matpower().replace("1 100 1 100 0;", "1 100 1 nan 0;"),
                          "generator 1: pmax must be a number, got nan"),
    "matpower-gencost-nan": ("--case", ".m", _matpower(gencost="2 0 0 3 0.01 nan 0"),
                             "generator 1: cost_segments must be finite, got nan"),
    "matpower-bus-id-nan": ("--case", ".m", _matpower(bus2="nan 1 50 10 0 0 1 1 0 230 1 1.05 0.95"),
                            "mpc.bus row 2: expected an integer, got nan"),
    "matpower-bus-id-inf": ("--case", ".m", _matpower(bus2="inf 1 50 10 0 0 1 1 0 230 1 1.05 0.95"),
                            "mpc.bus row 2: expected an integer, got inf"),
    "matpower-bus-id-fractional": ("--case", ".m",
                                   _matpower(bus2="2.5 1 50 10 0 0 1 1 0 230 1 1.05 0.95"),
                                   "mpc.bus row 2: expected an integer, got 2.5"),
    "matpower-branch-bus-fractional": ("--case", ".m",
                                       _matpower(branch="1 2.5 0.01 0.1 0.02 250 0 0 0 0 1 -30 30"),
                                       "mpc.branch row 1: expected an integer, got 2.5"),
    "matpower-gen-bus-nan": ("--case", ".m", _matpower().replace("1 0 0 100 -100", "nan 0 0 100 -100"),
                             "mpc.gen row 1: expected an integer, got nan"),
    "matpower-gencost-n-nan": ("--case", ".m", _matpower(gencost="2 0 0 nan 0.01 20 0"),
                               "mpc.gencost row 1: expected an integer, got nan"),
    "matpower-gencost-model-fractional": ("--case", ".m", _matpower(gencost="1.5 0 0 3 0.01 20 0"),
                                          "mpc.gencost row 1: expected an integer, got 1.5"),
    # a NaN in a column the reader would default, or read as a reason to
    # drop the record, instead of refusing it
    **{f"matpower-bus-{field.lower()}-nan": (
        "--case", ".m", _matpower(bus2=bus2), f"mpc.bus row 2: {field} is NaN")
       for field, bus2 in (
           ("Pd", "2 1 nan 10 0 0 1 1 0 230 1 1.05 0.95"),
           ("Vmax", "2 1 50 10 0 0 1 1 0 230 1 nan 0.95"),
           ("Vmin", "2 1 50 10 0 0 1 1 0 230 1 1.05 nan"))},
    **{f"matpower-branch-{field.lower()}-nan": (
        "--case", ".m", _matpower(branch=branch), f"mpc.branch row 1: {field} is NaN")
       for field, branch in (
           ("rateA", "1 2 0.01 0.1 0.02 nan 0 0 0 0 1 -30 30"),
           ("tap", "1 2 0.01 0.1 0.02 250 0 0 nan 0 1 -30 30"),
           ("status", "1 2 0.01 0.1 0.02 250 0 0 0 0 nan -30 30"),
           ("angmin", "1 2 0.01 0.1 0.02 250 0 0 0 0 1 nan 30"),
           ("angmax", "1 2 0.01 0.1 0.02 250 0 0 0 0 1 -30 nan"))},
    "matpower-bus-pd-negative": ("--case", ".m", _matpower(bus2="2 1 -50 10 0 0 1 1 0 230 1 1.05 0.95"),
                                 "mpc.bus row 2: Pd is negative, got -50.0"),
    "matpower-gen-status-nan": ("--case", ".m",
                                _matpower().replace("1 100 1 100 0;", "1 100 nan 100 0;"),
                                "mpc.gen row 1: status is NaN"),
    "case-segment-infinite": ("--case", ".json", _segments([[1.0, float("inf")]]),
                              "generator 1: cost_segments must be finite, got inf"),
    "case-startup-infinite": ("--case", ".json", lambda data: json.dumps(
        {**data, "generators": [{**data["generators"][0], "startup_cost": float("inf")}]}),
                              "generator 1: startup_cost must be finite, got inf"),
    # numbers that are not limits, made infinite: each used to end in a
    # traceback, in exit 0, or in exit 2 on an LP it made unsolvable
    **{f"case-branch-{field}-infinite": ("--case", ".json",
                                         _first("branches", **{field: math.inf}),
                                         f"branch 1: {field} must be finite, got inf")
       for field in ("r", "x", "b_c", "tap", "shift")},
    "case-pmin-infinite": ("--case", ".json", _first("generators", pmin=-math.inf),
                           "generator 1: pmin must be finite, got -inf"),
    "case-power-factor-ratio-infinite": ("--case", ".json",
                                         _first("loads", power_factor_ratio=math.inf),
                                         "load 1: power_factor_ratio must be finite, got inf"),
    "case-base-mva-infinite": ("--case", ".json", _case(base_mva=math.inf),
                               "base_mva must be positive and finite, got inf"),
    "cuts-rhs-infinite": ("--cuts-in", ".json", _cut_store(rhs=math.inf),
                          "cut: rhs must be finite, got inf"),
    "cuts-coefficient-infinite": ("--cuts-in", ".json",
                                  _cut_store(coefficients=[["c", math.inf], ["s", 4.0]]),
                                  "cut: coefficient 'c' must be finite, got inf"),
    "cuts-all-zero": ("--cuts-in", ".json", _cut_store(coefficients=[["c", 0.0], ["s", 0.0]]),
                      "cut with zero coefficient vector"),
    # a case with no buses used to end in a traceback
    "case-no-buses": ("--case", ".json", _case(buses=[], branches=[], generators=[], loads=[]),
                      "case has no buses"),
    "matpower-no-buses": ("--case", ".m", "mpc.baseMVA = 100;\nmpc.bus = [\n];\n"
                          "mpc.gen = [\n];\nmpc.branch = [\n];\n", "case has no buses"),
    # costs the reader used to misread without a word: another model read
    # as piecewise linear, and a cubic read without its cubic term
    "matpower-gencost-model-3": ("--case", ".m", _matpower(gencost="3 0 0 2 0 0 100 2000"),
                                 "mpc.gencost row 1: cost model 3 is not 1 or 2"),
    "matpower-gencost-cubic": ("--case", ".m", _matpower(gencost="2 0 0 4 0.001 0.01 20 0"),
                               "mpc.gencost row 1: polynomial of degree above 2"),
    # units the reader used to price at 0 $/MWh (no cost row), or to clamp
    # to Pmin 0 and drop (MATPOWER's dispatchable load, Pmax 0, Pmin -50)
    "matpower-gencost-absent": ("--case", ".m", _matpower(gencost=None),
                                "mpc.gen row 1: in service with no mpc.gencost row"),
    "matpower-gencost-short": ("--case", ".m",
                               _matpower(gen="1 0 0 100 -100 1 100 1 100 0;\n"
                                             "2 0 0 100 -100 1 100 1 100 0"),
                               "mpc.gen row 2: in service with no mpc.gencost row"),
    "matpower-gen-pmin-negative": ("--case", ".m",
                                   _matpower(gen="1 0 0 100 -100 1 100 1 100 0;\n"
                                                 "2 0 0 0 0 1 100 1 0 -50"),
                                   "mpc.gen row 2: Pmin is negative, got -50.0"),
    # cost rows the reader used to price wrongly without a word: a point
    # at or below the previous one's MW dropped with its cost step, one
    # point read as 0 $/MWh plus its cost as no-load cost, and a negative
    # NCOST read as no terms, 0 $/MWh
    "matpower-gencost-pwl-mw-falls": ("--case", ".m",
                                      _matpower(gencost="1 0 0 3 0 0 50 1000 40 2200"),
                                      "mpc.gencost row 1: each point's MW must be above "
                                      "the previous one's"),
    "matpower-gencost-pwl-mw-repeated": ("--case", ".m",
                                         _matpower(gencost="1 0 0 3 0 0 50 1000 50 2200"),
                                         "mpc.gencost row 1: each point's MW must be above "
                                         "the previous one's"),
    "matpower-gencost-pwl-one-point": ("--case", ".m", _matpower(gencost="1 0 0 1 50 1000"),
                                       "mpc.gencost row 1: a piecewise-linear cost needs "
                                       "two points, got 1"),
    "matpower-gencost-pwl-ncost-negative": ("--case", ".m",
                                            _matpower(gencost="1 0 0 -2 0 0 50 1000"),
                                            "mpc.gencost row 1: NCOST is negative, got -2"),
    "matpower-gencost-poly-ncost-negative": ("--case", ".m", _matpower(gencost="2 0 0 -1 5 7"),
                                             "mpc.gencost row 1: NCOST is negative, got -1"),
    # the case invariants make_case checks, one row each
    "case-branch-tap-zero": ("--case", ".json", _first("branches", tap=0.0),
                             "branch 1: tap ratio must be positive"),
    "case-segments-empty": ("--case", ".json", _segments([]), "generator 1: empty bid segments"),
    "case-segments-unordered": ("--case", ".json", _segments([[0.6, 10.0], [0.4, 20.0]]),
                                "generator 1: breakpoints must be strictly increasing"),
    "case-benefit-rising": ("--case", ".json",
                            _first("loads", benefit_segments=[[0.25, 40.0], [0.5, 50.0]]),
                            "load 1: marginal benefits must be nonincreasing (concavity)"),
    "case-segments-short": ("--case", ".json", _segments([[0.5, 10.0]]),
                            "generator 1: bid segments do not cover [0, pmax]"),
    "case-vmin-above-vmax": ("--case", ".json", _first("buses", vmin=1.1, vmax=1.0),
                             "bus 1: requires 0 < vmin <= vmax"),
    "case-branch-unknown-bus": ("--case", ".json", _first("branches", to=3),
                                "branch 1: unknown endpoint bus"),
    "case-branch-angle-limit": ("--case", ".json", _first("branches", max_angle_diff=2.0),
                                "branch 1: max_angle_diff must be in (0, pi/2)"),
    "case-branch-current-limit-zero": ("--case", ".json",
                                       _first("branches", current_limit_sq=0.0),
                                       "branch 1: current_limit_sq must be positive"),
    "case-generator-unknown-bus": ("--case", ".json", _first("generators", bus=3),
                                   "generator 1: unknown bus 3"),
    "case-qmin-above-qmax": ("--case", ".json", _first("generators", qmin=1.0, qmax=-1.0),
                             "generator 1: qmin > qmax"),
    "case-load-unknown-bus": ("--case", ".json", _first("loads", bus=3), "load 1: unknown bus 3"),
    "case-load-pmax-negative": ("--case", ".json", _first("loads", pmax=-0.5),
                                "load 1: pmax must be nonnegative"),
    "matpower-base-mva-zero": ("--case", ".m",
                               _matpower().replace("mpc.baseMVA = 100;", "mpc.baseMVA = 0;"),
                               "MATPOWER file needs a positive mpc.baseMVA"),
    # a block under a name the reader does not know is a missing block
    "matpower-no-branch-block": ("--case", ".m", _matpower().replace("mpc.branch", "mpc.lines"),
                                 "MATPOWER file missing mpc.branch"),
    "cuts-unknown-branch": ("--cuts-in", ".json", _cut_store(branch_id=9),
                            "cut references unknown branch 9"),
}


@pytest.mark.parametrize("gencost, segments", [
    # points (0 MW, 0 $/h), (50, 1000), (80, 2200); a tail to Pmax = 100 MW
    # at the last slope
    ("1 0 0 3 0 0 50 1000 80 2200", ((0.5, 20.0), (0.8, 40.0), (1.0, 40.0))),
    # points (0 MW, 0 $/h), (100, 3000): one segment up to Pmax, no tail
    ("1 0 0 2 0 0 100 3000", ((1.0, 30.0),)),
    # points (20 MW, 500 $/h), (50, 1000): the first segment's line runs
    # down to 0 MW, a no-load cost of 500 - 20 x 50/3 $/h
    ("1 0 0 2 20 500 50 1000", ((0.5, 50 / 3), (1.0, 50 / 3))),
])
def test_matpower_piecewise_linear_costs(tmp_path, gencost, segments):
    path = tmp_path / "pwl.m"
    path.write_text(_matpower(gencost=gencost))
    unit, = netio.parse_matpower(path).generators
    assert unit.cost_segments == segments
    values = [float(v) for v in gencost.split()[4:]]
    for p_mw, cost in zip(values[0::2], values[1::2]):
        # committed at each point, the unit costs what the file says
        assert econ.generator_cost(unit, p_mw / 100, 1, 0, 0, 100.0) == pytest.approx(
            cost, rel=0, abs=1e-9)
    if values[0] == 0.0:
        assert unit.no_load_cost == values[1]  # the first point's cost


@pytest.mark.parametrize("option, suffix, text, expected", MALFORMED_INPUTS.values(),
                         ids=MALFORMED_INPUTS.keys())
def test_malformed_input_exit_code(two_bus_lossless, tmp_path, capsys, monkeypatch,
                                   option, suffix, text, expected):
    # every input is read before pricing, so the run never reaches run_cppa
    def priced(*args, **kwargs):
        raise AssertionError("run_cppa called before every input was read")

    monkeypatch.setattr(algorithm, "run_cppa", priced)
    bad = tmp_path / f"bad{suffix}"
    bad.write_text(text(netio.case_to_dict(two_bus_lossless)) if callable(text) else text)
    argv = (["--case", str(bad)] if option == "--case" else
            ["--case", _save(two_bus_lossless, tmp_path, "case"), option, str(bad)])
    code = cli.main(argv + ["--out-dir", str(tmp_path / "out")])
    assert code == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and expected in err, err


# (option, value, message) of loop settings outside their range
BAD_SETTINGS = {
    "time-limit-zero": ("--time-limit", "0", "time limit must be positive"),
    "time-limit-nan": ("--time-limit", "nan", "time limit must be positive"),
    "ftol-nan": ("--ftol", "nan", "ftol must be positive"),
    "ftol-rounds-zero": ("--ftol-rounds", "0", "ftol_rounds must be >= 1"),
    "rho-zero": ("--rho", "0", "rho must be in (0, 1]"),
    "rho-negative": ("--rho", "-0.5", "rho must be in (0, 1]"),
    "rho-above-one": ("--rho", "1.5", "rho must be in (0, 1]"),
    "rho-nan": ("--rho", "nan", "rho must be in (0, 1]"),
    "t-age-zero": ("--t-age", "0", "t_age must be >= 1"),
    "t-age-nan": ("--t-age", "nan", "t_age must be >= 1"),
    "max-rounds-zero": ("--max-rounds", "0", "max_rounds must be >= 1"),
    "eps-viol-nan": ("--eps-viol", "nan", "eps_viol must be finite and >= 0"),
    "eps-viol-inf": ("--eps-viol", "inf", "eps_viol must be finite and >= 0"),
    "eps-viol-negative": ("--eps-viol", "-0.5", "eps_viol must be finite and >= 0"),
    "eps-par-nan": ("--eps-par", "nan", "eps_par must be >= 0"),
    "eps-par-negative": ("--eps-par", "-0.5", "eps_par must be >= 0"),
    "voll-nan": ("--voll", "nan", "voll must be finite and positive"),
    "voll-inf": ("--voll", "inf", "voll must be finite and positive"),
    "voll-zero": ("--voll", "0", "voll must be finite and positive"),
    "jobs-zero": ("--jobs", "0", "jobs must be >= 1"),
    "jobs-negative": ("--jobs", "-2", "jobs must be >= 1"),
}


@pytest.mark.parametrize("option, value, message", BAD_SETTINGS.values(),
                         ids=BAD_SETTINGS.keys())
def test_out_of_range_setting_exits_before_reading_a_case(two_bus_lossless, tmp_path,
                                                          capsys, monkeypatch,
                                                          option, value, message):
    def read(*args, **kwargs):
        raise AssertionError("a case was read before the settings were checked")

    case = _save(two_bus_lossless, tmp_path, "case")
    monkeypatch.setattr(netio, "parse_case", read)
    code = cli.main(["--case", case, option, value, "--out-dir", str(tmp_path / "out")])
    assert code == cli.EXIT_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


# command lines argparse rejects, each of which it would exit 2 on
USAGE_ERRORS = {
    "ftol-not-a-number": ["--case", "x.json", "--ftol", "abc"],
    "unknown-model": ["--case", "x.json", "--model", "ac"],
    "unknown-flag": ["--case", "x.json", "--no-such-flag"],
    "no-case": ["--model", "dc"],
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_a_malformed_command_line_exits_1(argv, capsys, monkeypatch):
    def run(*args, **kwargs):
        raise AssertionError("a case ran on a malformed command line")

    monkeypatch.setattr(algorithm, "run_cppa", run)
    assert cli.main(argv) == cli.EXIT_ERROR
    assert "cppa: error: " in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert cli.main(["--help"]) == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("usage: cppa")


def test_reference_prices_without_a_case_bus(three_bus, tmp_path, capsys):
    ref = tmp_path / "ref.csv"
    ref.write_text("bus_id,price_p,price_q\n1,10.0,\n2,12.0,\n")
    code = cli.main(["--case", _save(three_bus, tmp_path, "case"),
                     "--reference-prices", str(ref), "--out-dir", str(tmp_path / "out")])
    assert code == cli.EXIT_ERROR
    assert f"error: reference prices {ref}" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_failing_case_does_not_stop_the_others(two_bus_lossless, tmp_path, capsys,
                                                 jobs):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    good = _save(two_bus_lossless, tmp_path, "good")
    out = tmp_path / "out"
    code = cli.main(["--case", str(bad), "--case", good, "--jobs", jobs,
                     "--out-dir", str(out)])
    assert code == cli.EXIT_ERROR
    assert _report(out / "good")["status"] == "Optimal"
    captured = capsys.readouterr()
    assert captured.out == "good: Optimal\n"
    assert captured.err.startswith(f"error: case file {bad}: invalid JSON")


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("other, option", [("infeasible", "--contingency"),
                                           ("time_limit", "--time-limit")])
def test_an_input_error_decides_the_exit_code(two_bus_lossless, tmp_path, capsys,
                                              jobs, other, option):
    # the good case ends Infeasible (its only branch is out) or TimeLimit,
    # whose codes 2 and 3 are higher than the bad case's 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    good = _save(two_bus_lossless, tmp_path, "good")
    cont = tmp_path / "outage.json"
    cont.write_text("[1]\n")
    value = str(cont) if option == "--contingency" else "1e-9"
    out = tmp_path / "out"
    code = cli.main(["--case", str(bad), "--case", good, option, value,
                     "--jobs", jobs, "--out-dir", str(out)])
    assert code == cli.EXIT_ERROR
    assert _report(out / "good")["termination"] == {
        "infeasible": "islanded", "time_limit": "time_limit"}[other]
    assert capsys.readouterr().err.startswith(f"error: case file {bad}: invalid JSON")


def test_time_limit_inside_the_first_lp_exit_code(tmp_path, monkeypatch):
    # a 16-bus ring's first LP takes more pivots than REFACTOR_INTERVAL, so
    # the simplex meets the deadline at its first refactorization
    clock_jumps_at(monkeypatch, "simplex")
    case = _save(_ring_case(16), tmp_path, "case")
    out = tmp_path / "out"
    code = cli.main(["--case", case, "--model", "cp", "--rule", "ch",
                     "--time-limit", "10", "--out-dir", str(out)])
    assert code == cli.EXIT_TIME_LIMIT
    report = _report(out)
    assert (report["status"], report["termination"]) == ("TimeLimit", "time_limit")
    assert report["rounds"] == 1
    assert report["lp_iterations"][0] > solver.REFACTOR_INTERVAL
    assert not (out / "prices.csv").exists()


def test_cases_sharing_a_stem_exit_before_any_runs(two_bus_lossless, three_bus, tmp_path,
                                                    capsys, monkeypatch):
    # a/net.json and b/net.json would both write to out/net
    def read(*args, **kwargs):
        raise AssertionError("a case was read before the output paths were checked")

    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = _save(two_bus_lossless, tmp_path / "a", "net")
    b = _save(three_bus, tmp_path / "b", "net")
    monkeypatch.setattr(netio, "parse_case", read)
    code = cli.main(["--case", a, "--case", b, "--out-dir", str(tmp_path / "out")])
    assert code == cli.EXIT_ERROR
    assert capsys.readouterr().err == (
        f"error: cases {a} and {b} would both write to the output directory net\n")
    assert not (tmp_path / "out").exists()


def test_cuts_out_with_several_cases_exits_before_any_runs(two_bus_lossless, three_bus,
                                                           tmp_path, capsys):
    a = _save(two_bus_lossless, tmp_path, "alpha")
    b = _save(three_bus, tmp_path, "beta")
    code = cli.main(["--case", a, "--case", b, "--cuts-out", str(tmp_path / "cuts.json"),
                     "--out-dir", str(tmp_path / "out")])
    assert code == cli.EXIT_ERROR
    assert capsys.readouterr().err == "error: --cuts-out takes a single --case\n"
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "cuts.json").exists()


def test_an_lp_at_the_iteration_cap_exits_as_an_error(two_bus_lossless, tmp_path,
                                                      monkeypatch, capsys):
    monkeypatch.setattr(solver, "ITERATION_FACTOR", 0)
    code = cli.main(["--case", _save(two_bus_lossless, tmp_path, "case"),
                     "--out-dir", str(tmp_path / "out")])
    assert code == cli.EXIT_ERROR
    assert "error: iteration limit 0 reached" in capsys.readouterr().err


def test_a_unit_without_reactive_limits_is_priced(tmp_path, monkeypatch):
    # infinite limits are legal; their rows used to carry an infinite
    # coefficient, and the run ended IterationLimit
    gen = benchmark_module("gen")
    case = gen.make_case(gen.CaseSpec(4, 1), 1, 0)
    unit = dataclasses.replace(case.generators[0], qmin=-math.inf, qmax=math.inf)
    case = dataclasses.replace(case, generators=(unit, *case.generators[1:]))
    calls = record_solve_lp(monkeypatch)
    out = tmp_path / "out"
    assert cli.main(["--case", _save(case, tmp_path, "case"), "--model", "cp",
                     "--out-dir", str(out)]) == cli.EXIT_OK
    assert _report(out)["status"] == "Optimal"
    model, _, sol = calls[-1]
    assert f"g{unit.id}_qmax" not in {row.name for row in model.rows}
    assert max(solver.kkt_report(model, sol).values()) <= 1e-6


def test_a_run_short_of_optimal_leaves_no_earlier_answers(two_bus_lossy, tmp_path):
    # the line charging of this branch alone breaks its current limit: the
    # cuts make an LP of the loop infeasible
    charged = netio.case_to_dict(two_bus_lossy)
    charged["branches"][0].update(b_c=2.0, current_limit_sq=1e-4)
    bad = tmp_path / "charged.json"
    netio.write_json(bad, charged)
    out = tmp_path / "out"
    assert cli.main(["--case", _save(two_bus_lossy, tmp_path, "case"), "--rule", "ch",
                     "--out-dir", str(out)]) == cli.EXIT_OK
    assert (out / "prices.csv").exists() and (out / "allocation.json").exists()
    assert cli.main(["--case", str(bad), "--rule", "ch", "--out-dir", str(out)]) == \
        cli.EXIT_INFEASIBLE
    report = _report(out)
    assert (report["status"], report["termination"]) == ("Infeasible", "Infeasible")
    assert not (out / "prices.csv").exists()
    assert not (out / "allocation.json").exists()


def test_a_run_short_of_optimal_leaves_no_earlier_cut_store(two_bus_lossy, tmp_path):
    # the charged case of the test above, with the same --cuts-out as an
    # Optimal run before it: a later --cuts-in must not warm-start from
    # the earlier case's store
    charged = netio.case_to_dict(two_bus_lossy)
    charged["branches"][0].update(b_c=2.0, current_limit_sq=1e-4)
    bad = tmp_path / "charged.json"
    netio.write_json(bad, charged)
    store = tmp_path / "store.json"
    assert cli.main(["--case", _save(two_bus_lossy, tmp_path, "case"), "--rule", "ch",
                     "--cuts-out", str(store), "--out-dir", str(tmp_path / "ok")]) == cli.EXIT_OK
    assert store.exists()
    assert cli.main(["--case", str(bad), "--rule", "ch", "--cuts-out", str(store),
                     "--out-dir", str(tmp_path / "bad")]) == cli.EXIT_INFEASIBLE
    assert not store.exists()


def test_a_cp_cut_store_under_the_dc_model_exits_1(two_bus_lossless, tmp_path, capsys):
    # the store is well formed, but the DC model has no Jabr variables
    store = tmp_path / "cuts.json"
    store.write_text(_cut_store())
    code = cli.main(["--case", _save(two_bus_lossless, tmp_path, "case"), "--model", "dc",
                     "--cuts-in", str(store), "--out-dir", str(tmp_path / "out")])
    assert code == cli.EXIT_ERROR
    assert "cut for branch 1: role 'c' not present in model" in capsys.readouterr().err
