"""The answer ladder (``ladder.py``) over generated cases, seeds 1-3: CP/CH
at 4 and 6 buses, CP/IP with block units, DC/IP with block units at the
``dc_ip_commit`` shape, and every N-1 outage of the 4-bus CP/CH case, warm
from that case's cut store and cold; and CP/CH at 12 buses, seed 1 only,
where the crash start moves the first LP most. Every LP of every run meets rung 1,
except those of the cold outage runs, which serve rung 3 as the reference
and are cold 4-bus CP/CH runs like the base's; every run meets rung 2;
every outage meets rung 3. Skipped where scipy is not installed."""

import tempfile
from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("scipy")

import ladder
from cppa import cuts, solver
from cppa.algorithm import CppaConfig

gen = ladder.gen

SEEDS = (1, 2, 3)
# name -> (case shape, network model, pricing rule)
KINDS = {
    "cp-ch-4": (gen.CaseSpec(4, 1), "cp", "ch"),
    "cp-ch-6": (gen.CaseSpec(6, 2), "cp", "ch"),
    "cp-ip-blocks": (gen.CaseSpec(4, 1, blocks=2), "cp", "ip"),
    "dc-ip-blocks": (gen.CaseSpec(12, 4, blocks=4, condensers=False), "dc", "ip"),
    "cp-ch-12": (gen.CaseSpec(12, 4), "cp", "ch"),
}
PARAMS = [(kind, seed) for kind in (*KINDS, "n1") for seed in SEEDS
          if kind != "cp-ch-12" or seed == 1]


def _id(param):
    return f"{param[0]}-s{param[1]}"


@cache
def _run(kind, seed):
    spec, network_model, rule = KINDS[kind]
    return ladder.run(gen.make_case(spec, seed, 0),
                      CppaConfig(pricing_rule=rule, network_model=network_model))


@cache
def _n1(seed):
    """[(branch id, warm run, cold run)] for every outage of the 4-bus
    CP/CH case, warm from the cut store of its ``cp-ch-4`` run."""
    base = _run("cp-ch-4", seed)
    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp) / "base.cuts.json"
        cuts.save_cuts(base.result.pool, store, base.case)
        return list(ladder.outage_runs(base.case, base.config, store))


def _judged(kind, seed):
    """The runs whose LPs rung 1 judges, and the runs rung 2 judges."""
    if kind != "n1":
        return [_run(kind, seed)], [_run(kind, seed)]
    warm = [w for _, w, _ in _n1(seed)]
    return warm, warm + [c for _, _, c in _n1(seed)]


@pytest.mark.parametrize("param", PARAMS, ids=_id)
def test_every_lp_reaches_the_highs_answer(param):
    lp_runs, _ = _judged(*param)
    problems = [f"LP {k}: {p}" for r in lp_runs for k, lp in enumerate(r.lps)
                for p in ladder.lp_problems(lp)]
    assert sum(len(r.lps) for r in lp_runs) > 1
    assert not problems, problems


@pytest.mark.parametrize("param", PARAMS, ids=_id)
def test_every_run_ends_as_its_last_lp_says(param):
    _, runs = _judged(*param)
    problems = [f"{r.case.scenario_name}: {p}" for r in runs for p in ladder.run_problems(r)]
    assert not problems, problems


@pytest.mark.parametrize("seed", SEEDS)
def test_warm_and_cold_outage_prices_agree(seed):
    outages = _n1(seed)
    assert len(outages) == len(gen.n1_outages(_run("cp-ch-4", seed).case)) > 1
    gaps = {bid: ladder.price_gap(w.result, c.result) for bid, w, c in outages}
    assert max(gaps.values()) <= ladder.PATH_SPREAD, gaps


def test_each_rung_flags_a_wrong_answer():
    run = _run("cp-ch-4", 1)
    lp = run.lps[-1]
    assert not ladder.lp_problems(lp)
    nonbasic = lp.sol.basis_status[lp.n:] != solver.BASIC
    for wrong in ({"objective": lp.sol.objective * (1.0 + 1e-8)},
                  {"duals": -lp.sol.duals},
                  {"slacks": -lp.sol.slacks},
                  {"slacks": np.where(nonbasic, 1e-300, lp.sol.slacks)},
                  {"status": solver.INFEASIBLE},
                  {"status": solver.TIME_LIMIT}):
        assert ladder.lp_problems(replace(lp, sol=replace(lp.sol, **wrong)))
    assert not ladder.run_problems(run)
    for wrong in ({"termination": "converged"}, {"objective": run.result.objective + 1e-9},
                  {"prices_p": {bus: -p for bus, p in run.result.prices_p.items()}}):
        assert ladder.run_problems(replace(run, result=replace(run.result, **wrong)))
    far = {bus: p + 2.0 * ladder.PATH_SPREAD for bus, p in run.result.prices_p.items()}
    assert ladder.price_gap(replace(run.result, prices_p=far), run.result) > ladder.PATH_SPREAD


def test_the_record_holds_a_node_s_own_bounds():
    # a branch-and-bound node's bounds live on the node, not on its model:
    # the recorded form has the branched binary pinned
    run = _run("cp-ip-blocks", 1)
    pinned = [np.count_nonzero((lp.lb == lp.ub)[:lp.n]) for lp in run.lps]
    assert max(pinned) > min(pinned)


def test_the_rebuilt_model_has_the_recorded_form():
    # kkt_report reads a model: the one rebuilt from a record must give
    # back that record's standard form exactly
    for lp in _run("cp-ip-blocks", 1).lps:
        form = solver.standard_form(ladder.model_of(lp))
        assert all(np.array_equal(a, b) for a, b in zip(form, (lp.A, lp.b, lp.c, lp.lb, lp.ub)))
        assert form[-1] == lp.n
