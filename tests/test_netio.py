import math
import random
from dataclasses import replace
from types import SimpleNamespace

import pytest

from cppa import netio
from cppa.netio import Bus, CaseError, branch_admittance

from conftest import mk_branch, mk_gen, mk_load


def test_admittance_pure_reactance():
    # y_s = 1/(j*1) = -j; off-diagonal = -(-j) = +j
    y = branch_admittance(0.0, 1.0)
    assert y.g_ft == pytest.approx(0.0, abs=1e-15)
    assert y.b_ft == pytest.approx(1.0, abs=1e-15)
    assert y.b_ff == pytest.approx(-1.0, abs=1e-15)
    assert y.g_ff == pytest.approx(0.0, abs=1e-15)


def test_admittance_lossy_with_charging():
    y = branch_admittance(0.01, 0.1, b_c=0.02)
    g = 0.01 / (0.01**2 + 0.1**2)
    b = -0.1 / (0.01**2 + 0.1**2)
    assert y.g_ff == pytest.approx(g, rel=1e-12)
    assert y.b_ff == pytest.approx(b + 0.01, rel=1e-12)


def test_admittance_symmetric_without_shift():
    y = branch_admittance(0.02, 0.2, b_c=0.04, tap=1.0, shift=0.0)
    assert y.g_ft == pytest.approx(y.g_tf, rel=1e-14)
    assert y.b_ft == pytest.approx(y.b_tf, rel=1e-14)


def test_admittance_matches_pi_model_oracle():
    # direct complex-arithmetic oracle
    r, x, b_c, tap, shift = 0.013, 0.09, 0.03, 0.98, 0.05
    y_s = 1.0 / complex(r, x)
    y = branch_admittance(r, x, b_c, tap, shift)
    y_ft = -y_s * complex(math.cos(-shift), math.sin(-shift)) / tap
    assert y.g_ft == pytest.approx(y_ft.real, rel=1e-12)
    assert y.b_ft == pytest.approx(y_ft.imag, rel=1e-12)
    assert y.g_ff == pytest.approx(((y_s + 1j * b_c / 2) / tap**2).real, rel=1e-12)


def test_zero_reactance_rejected():
    with pytest.raises(CaseError, match="zero reactance"):
        branch_admittance(0.01, 0.0)


def test_parse_simple_case(tmp_path):
    path = tmp_path / "case.json"
    path.write_text("""{
      "version": "cppa-case-v1", "base_mva": 100.0,
      "buses": [{"id": 2, "vmin": 0.95, "vmax": 1.05},
                {"id": 1, "vmin": 0.95, "vmax": 1.05}],
      "branches": [{"id": 1, "from": 1, "to": 2, "r": 0.0, "x": 0.1,
                    "b_c": 0.0, "max_angle_diff": 0.5,
                    "current_limit_sq": 25.0}],
      "generators": [{"id": 1, "bus": 1, "pmin": 0.0, "pmax": 1.0,
                      "qmin": -1.0, "qmax": 1.0,
                      "cost_segments": [[1.0, 10.0]]}],
      "loads": [{"id": 1, "bus": 2, "pmax": 0.5,
                 "benefit_segments": [[0.5, 50.0]]}]
    }""")
    case = netio.parse_case(path)
    assert [b.id for b in case.buses] == [1, 2]  # sorted by id
    br = case.branches[0]
    assert br.admittance.b_ft == pytest.approx(10.0, rel=1e-12)
    assert br.admittance.g_ft == pytest.approx(0.0, abs=1e-15)
    assert br.admittance.b_ff == pytest.approx(-10.0, rel=1e-12)
    assert not case.islanded


def test_parse_rejects_bad_generator(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("""{
      "version": "cppa-case-v1", "base_mva": 100.0,
      "buses": [{"id": 1, "vmin": 0.95, "vmax": 1.05}],
      "branches": [],
      "generators": [{"id": 7, "bus": 1, "pmin": 2.0, "pmax": 1.0,
                      "qmin": 0.0, "qmax": 0.0,
                      "cost_segments": [[1.0, 10.0]]}],
      "loads": []
    }""")
    with pytest.raises(CaseError, match="generator 7"):
        netio.parse_case(path)


def test_parse_rejects_zero_reactance_branch(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("""{
      "version": "cppa-case-v1", "base_mva": 100.0,
      "buses": [{"id": 1, "vmin": 0.95, "vmax": 1.05},
                {"id": 2, "vmin": 0.95, "vmax": 1.05}],
      "branches": [{"id": 1, "from": 1, "to": 2, "r": 0.01, "x": 0.0,
                    "max_angle_diff": 0.5, "current_limit_sq": 25.0}],
      "generators": [], "loads": []
    }""")
    with pytest.raises(CaseError, match="zero reactance"):
        netio.parse_case(path)


def test_self_loop_branch_rejected():
    # a Jabr cone on one bus would put v2_from and v2_to on one column
    with pytest.raises(CaseError, match="branch 2: from and to bus are the same"):
        netio.make_case(100.0,
                        buses=[Bus(1, 0.9, 1.1), Bus(2, 0.9, 1.1)],
                        branches=[mk_branch(1, 1, 2, 0.0, 0.1),
                                  mk_branch(2, 1, 1, 0.0, 0.1)],
                        generators=[], loads=[])


def test_duplicate_ids_rejected():
    with pytest.raises(CaseError, match="duplicate bus id"):
        netio.make_case(100.0,
                        buses=[Bus(1, 0.9, 1.1), Bus(1, 0.9, 1.1)],
                        branches=[], generators=[], loads=[])


def test_round_trip_stability(two_bus_lossy, tmp_path):
    path = tmp_path / "roundtrip.json"
    netio.save_case(two_bus_lossy, path)
    reparsed = netio.parse_case(path)
    assert reparsed == netio.CaseData(
        **{**two_bus_lossy.__dict__, "scenario_name": "roundtrip"})


def test_admittance_recompute_idempotent(three_bus):
    for br in three_bus.branches:
        again = branch_admittance(br.r, br.x, br.b_c, br.tap, br.shift)
        assert again == br.admittance


def test_contingency_identity(three_bus):
    assert netio.apply_contingency(three_bus, []) == three_bus


def test_contingency_islanding(two_bus_lossless):
    out = netio.apply_contingency(two_bus_lossless, [1])
    assert out.islanded
    assert not out.branches[0].status


def test_contingency_ring_stays_connected():
    # 4-bus ring, drop 1 of the parallel paths: 2 in-service branches
    # remain on the cut, no islanding (connectivity oracle: BFS)
    case = netio.make_case(
        100.0,
        buses=[Bus(i, 0.9, 1.1) for i in (1, 2, 3, 4)],
        branches=[mk_branch(1, 1, 2, 0.01, 0.1),
                  mk_branch(2, 2, 3, 0.01, 0.1),
                  mk_branch(3, 3, 4, 0.01, 0.1),
                  mk_branch(4, 4, 1, 0.01, 0.1)],
        generators=[mk_gen(1, 1, 0.0, 1.0, -1.0, 1.0, [(1.0, 10.0)])],
        loads=[mk_load(1, 3, 0.5, [(0.5, 50.0)])],
    )
    out = netio.apply_contingency(case, [2])
    assert not out.islanded
    in_service = [b for b in out.branches if b.status]
    assert len(in_service) == 3


def _connected_components_reference(bus_ids, branches):
    """The islanding rule as it was before the one-pass merge: a BFS over
    the in-service branches, every component built."""
    adj = {k: [] for k in bus_ids}
    for br in branches:
        if br.status:
            adj[br.from_bus].append(br.to_bus)
            adj[br.to_bus].append(br.from_bus)
    seen = set()
    comps = []
    for root in bus_ids:
        if root in seen:
            continue
        comp = {root}
        stack = [root]
        seen.add(root)
        while stack:
            k = stack.pop()
            for m in adj[k]:
                if m not in seen:
                    seen.add(m)
                    comp.add(m)
                    stack.append(m)
        comps.append(comp)
    return comps


def _is_islanded_reference(buses, branches, generators, loads):
    bus_ids = [b.id for b in buses]
    comps = _connected_components_reference(bus_ids, branches)
    main = max(comps, key=lambda c: (len(c), -min(c)))
    agent_buses = {g.bus for g in generators} | {l.bus for l in loads}
    return any(k not in main for k in agent_buses)


def _random_grid(rng):
    """1-12 buses with scattered ids in random order, up to n + 2 branches
    (parallel ones too), about a third of them out of service, and 0-6
    agents on random buses: isolated buses and equal-size components are
    common."""
    ids = rng.sample(range(1, 40), rng.randint(1, 12))
    branches = [SimpleNamespace(from_bus=f, to_bus=t, status=rng.random() < 0.65)
                for f, t in (rng.sample(ids, 2) for _ in range(
                    rng.randint(0, len(ids) + 2) if len(ids) > 1 else 0))]
    agents = [SimpleNamespace(bus=rng.choice(ids)) for _ in range(rng.randint(0, 6))]
    cut = rng.randint(0, len(agents))
    return [SimpleNamespace(id=k) for k in ids], branches, agents[:cut], agents[cut:]


def test_islanding_equals_the_bfs_reference():
    rng = random.Random(20240611)
    islanded = ties = out_of_service = 0
    for _ in range(300):
        buses, branches, gens, loads = _random_grid(rng)
        expected = _is_islanded_reference(buses, branches, gens, loads)
        assert netio._is_islanded(buses, branches, gens, loads) == expected, (
            [b.id for b in buses], [vars(br) for br in branches],
            [g.bus for g in gens], [l.bus for l in loads])
        sizes = [len(c) for c in _connected_components_reference(
            [b.id for b in buses], branches)]
        islanded += expected
        ties += sizes.count(max(sizes)) > 1 and bool(gens or loads)
        out_of_service += any(not br.status for br in branches)
    # the sample holds both answers, ties for the largest component with
    # agents, and branches out of service
    assert 50 < islanded < 250 and ties > 30 and out_of_service > 100


def test_contingency_idempotent(three_bus):
    once = netio.apply_contingency(three_bus, [2])
    twice = netio.apply_contingency(once, [2])
    assert once == twice


def test_contingency_unknown_branch(three_bus):
    with pytest.raises(CaseError, match="unknown branch id"):
        netio.apply_contingency(three_bus, [99])


def test_nonconvex_cost_rejected():
    with pytest.raises(CaseError, match="nondecreasing"):
        netio.make_case(
            100.0, buses=[Bus(1, 0.9, 1.1)], branches=[],
            generators=[mk_gen(1, 1, 0.0, 1.0, 0.0, 0.0,
                               [(0.5, 20.0), (1.0, 10.0)])],
            loads=[])


@pytest.mark.parametrize("marginals, nondecreasing, monotone", [
    ((10.0, 20.0, 20.0), True, True),
    ((10.0, 20.0, 15.0), True, False),
    ((20.0, 10.0, 10.0), False, True),
    ((20.0, 10.0, 15.0), False, False),
    ((10.0, 10.0 - 5e-13), True, True),  # within the 1e-12 tolerance
    ((10.0, 10.0 + 5e-13), False, True),
    ((10.0, 10.0 - 5e-12), True, False),
    ((10.0, 10.0 + 5e-12), False, False),
    ((10.0,), True, True),
    ((10.0,), False, True),
])
def test_monotone_bid(marginals, nondecreasing, monotone):
    segments = tuple((0.5 * (i + 1), mv) for i, mv in enumerate(marginals))
    assert netio.monotone_bid(segments, nondecreasing) is monotone


MATPOWER_CASE = """
function mpc = case3
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
  1 3 0    0   0 0 1 1 0 230 1 1.05 0.95;
  2 1 80  20   0 0 1 1 0 230 1 1.05 0.95;
  3 1 50  10   0 0 1 1 0 230 1 1.05 0.95;
];
mpc.gen = [
  1 0 0 150 -150 1 100 1 200 0;
  3 0 0 100 -100 1 100 1 100 0;
];
mpc.branch = [
  1 2 0.01 0.1  0.02 250 0 0 0 0 1 -30 30;
  2 3 0.01 0.08 0.02 250 0 0 0 0 1 -30 30;
  1 3 0.02 0.2  0.02 250 0 0 0 0 1 -30 30;
];
mpc.gencost = [
  2 0 0 3 0.01 20 50;
  2 0 0 3 0.02 35 30;
];
"""


def test_matpower_parse(tmp_path):
    path = tmp_path / "case3.m"
    path.write_text(MATPOWER_CASE)
    case = netio.parse_matpower(path, voll=900.0)
    assert case.base_mva == 100.0
    assert len(case.buses) == 3
    assert len(case.branches) == 3
    assert len(case.generators) == 2
    # loads synthesized from Pd/Qd at the voll marginal benefit
    assert len(case.loads) == 2
    l1 = case.loads[0]
    assert l1.pmax == pytest.approx(0.8)
    assert l1.power_factor_ratio == pytest.approx(20.0 / 80.0)
    assert l1.benefit_segments == ((0.8, 900.0),)
    # quadratic cost became a convex PWL covering [0, pmax]
    g1 = case.generators[0]
    mcs = [mc for _, mc in g1.cost_segments]
    assert mcs == sorted(mcs)
    assert g1.cost_segments[-1][0] >= g1.pmax - 1e-9
    assert g1.no_load_cost == pytest.approx(50.0)


def test_save_load_save_is_byte_identical(three_bus, tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    netio.save_case(three_bus, first)
    netio.save_case(netio.parse_case(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_json_integers_read_as_floats(two_bus_lossless):
    data = netio.case_to_dict(two_bus_lossless)
    data["base_mva"] = 100
    data["generators"][0]["cost_segments"] = [[1, 10]]
    case = netio.case_from_dict(data)
    assert type(case.base_mva) is float
    assert case.generators[0].cost_segments == ((1.0, 10.0),)
    assert all(type(v) is float for v in case.generators[0].cost_segments[0])


@pytest.mark.parametrize("field, value", [("id", 1.5), ("status", 1), ("x", True)])
def test_wrong_json_type_rejected(two_bus_lossless, field, value):
    data = netio.case_to_dict(two_bus_lossless)
    data["branches"][0][field] = value
    with pytest.raises(CaseError, match=f"field '{field}' has the wrong type"):
        netio.case_from_dict(data)


def test_read_json_keeps_infinity_and_refuses_nan(tmp_path):
    path = tmp_path / "data.json"
    path.write_text('{"lo": -Infinity, "hi": Infinity}')
    assert netio.read_json(path, CaseError, "file") == {"lo": -math.inf, "hi": math.inf}
    path.write_text('{"x": [1.0, NaN]}')
    with pytest.raises(CaseError, match="invalid JSON: NaN is not a number"):
        netio.read_json(path, CaseError, "file")


def test_make_case_refuses_nan_and_infinite_costs(two_bus_lossless):
    gen = two_bus_lossless.generators[0]
    parts = dict(base_mva=100.0, buses=two_bus_lossless.buses,
                 branches=two_bus_lossless.branches, loads=two_bus_lossless.loads)
    for change, message in (({"pmax": math.nan}, "generator 1: pmax must be a number"),
                            ({"qmin": math.nan}, "generator 1: qmin must be a number"),
                            ({"no_load_cost": math.inf}, "no_load_cost must be finite"),
                            ({"shutdown_cost": -math.inf}, "shutdown_cost must be finite"),
                            ({"cost_segments": ((1.0, math.nan),)},
                             "cost_segments must be finite")):
        with pytest.raises(CaseError, match=message):
            netio.make_case(generators=[replace(gen, **change)], **parts)
    # infinite limits stay legal
    case = netio.make_case(generators=[replace(gen, qmin=-math.inf, qmax=math.inf)], **parts)
    assert case.generators[0].qmax == math.inf
    with pytest.raises(CaseError, match="base_mva must be positive"):
        netio.make_case(**{**parts, "base_mva": math.nan}, generators=[gen])
