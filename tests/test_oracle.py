"""Every LP and MILP that ``run_cppa`` solves on small generated cases,
checked against scipy's HiGHS through the benchmark's own oracle and case
generator (``benchmarks/oracle.py`` and ``benchmarks/gen.py``, loaded by
path and only read). Skipped where scipy is not installed."""

import pytest

pytest.importorskip("scipy")

from cppa import solver
from cppa.algorithm import CppaConfig, run_cppa

from conftest import benchmark_module

oracle = benchmark_module("oracle")
gen = benchmark_module("gen")

# name -> (case shape, seed, index, pricing rule); all under the CP model
RUNS = {
    "cp-ch-s1-i0": (gen.CaseSpec(4, 1), 1, 0, "ch"),
    "cp-ch-s1-i1": (gen.CaseSpec(4, 1), 1, 1, "ch"),
    "cp-ip-blocks-s1-i0": (gen.CaseSpec(4, 1, blocks=2), 1, 0, "ip"),
}


def _solves(case, rule, network_model="cp"):
    """(model, solution) of every solve_lp and every solve_milp call in
    one run of the case."""
    found = {"solve_lp": [], "solve_milp": []}
    with pytest.MonkeyPatch.context() as mp:
        for name, calls in found.items():
            def recording(model, *args, _solve=getattr(solver, name), _calls=calls, **kw):
                sol = _solve(model, *args, **kw)
                _calls.append((model, sol))
                return sol
            mp.setattr(solver, name, recording)
        run_cppa(case, CppaConfig(pricing_rule=rule, network_model=network_model))
    return found["solve_lp"], found["solve_milp"]


@pytest.fixture(scope="module")
def solves():
    return {name: _solves(gen.make_case(spec, seed, index), rule)
            for name, (spec, seed, index, rule) in RUNS.items()}


def _rel_err(value, ref):
    return abs(value - ref) / max(1.0, abs(ref))


@pytest.mark.parametrize("run", RUNS)
def test_every_lp_matches_highs(solves, run):
    lps = solves[run][0]
    assert len(lps) > 1  # the cut rounds, and under ip the pricing LP
    for k, (model, sol) in enumerate(lps):
        assert sol.status == solver.OPTIMAL
        ref, _ = oracle.highs_lp(model)
        assert _rel_err(sol.objective, ref) <= oracle.OBJ_REL_TOL, f"LP {k}"
        assert max(solver.kkt_report(model, sol).values()) <= oracle.KKT_TOL, f"LP {k}"


@pytest.mark.parametrize("run", [name for name, r in RUNS.items() if r[3] == "ip"])
def test_every_milp_matches_highs(solves, run):
    milps = solves[run][1]
    assert len(milps) == 1
    for model, milp in milps:
        assert milp.status == solver.OPTIMAL
        assert _rel_err(milp.objective, oracle.highs_milp(model)) <= oracle.MILP_REL_TOL


@pytest.mark.parametrize("network_model", ["dc", "cp"])
def test_block_unit_milp_matches_highs(block_unit_market, network_model):
    milps = _solves(block_unit_market, "ip", network_model)[1]
    assert len(milps) == 1
    for model, milp in milps:
        assert milp.status == solver.OPTIMAL
        assert _rel_err(milp.objective, oracle.highs_milp(model)) <= oracle.MILP_REL_TOL
