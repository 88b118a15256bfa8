"""Every LP and MILP that ``run_cppa`` solves on small generated cases,
checked against scipy's HiGHS through the benchmark's own oracle and case
generator (``benchmarks/oracle.py`` and ``benchmarks/gen.py``, loaded by
path and only read). Skipped where scipy is not installed."""

import copy

import numpy as np
import pytest

pytest.importorskip("scipy")

from cppa import solver
from cppa.algorithm import CppaConfig, run_cppa

from conftest import benchmark_module, record_inverses

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


# name -> (fixture name or generated case, network model); the DC case has
# the shape of the benchmark's dc_ip_commit workload
BNB_RUNS = {
    "block_unit-dc": ("block_unit_market", "dc"),
    "block_unit-cp": ("block_unit_market", "cp"),
    "dc-ip-blocks-s1-i0": ((gen.CaseSpec(12, 4, blocks=4, condensers=False), 1, 0), "dc"),
}


@pytest.mark.parametrize("run", BNB_RUNS)
def test_branch_and_bound_children_start_from_their_parents_inverse(run, request,
                                                                    monkeypatch):
    source, network_model = BNB_RUNS[run]
    case = (request.getfixturevalue(source) if isinstance(source, str)
            else gen.make_case(*source))
    calls = []
    solve_milp = solver.solve_milp

    def recording(model, **kw):
        # the pricing LP goes on to edit the carried LP: keep it as it was
        calls.append((model, copy.deepcopy(kw)))
        return solve_milp(model, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "solve_milp", recording)
        run_cppa(case, CppaConfig(pricing_rule="ip", network_model=network_model))
    (model, kw), = calls
    assert kw["carry"].factor is not None

    def uncarried():
        """The arguments with a new carry of the model in place of the
        loop's, starting from the same statuses but without a factor."""
        return dict(kw, carry=solver.CarriedLp(model, kw["carry"].status))

    # the root starts from the carried factor, and without one inverts
    # its start basis; every node after it starts from its parent's
    # inverse, so any other inverse is periodic or follows a failed
    # residual test
    searches = {}
    for carried in (True, False):
        inverses = record_inverses(monkeypatch)
        searches[carried] = solve_milp(
            model, **(copy.deepcopy(kw) if carried else uncarried()))
        assert searches[carried].nodes > 1
        root = [] if carried else [("start",)]
        assert inverses[:len(root)] == root
        for kind, *residuals in inverses[len(root):]:
            assert kind == "periodic" or (
                residuals[0] > solver.FEAS_TOL or residuals[1] > solver.OPT_TOL)
    milp = searches[True]

    # the same search with every node inverting its start basis
    simplex = solver.simplex
    monkeypatch.setattr(solver, "simplex",
                        lambda *args, factor=None, **options: simplex(*args, **options))
    fresh = solve_milp(model, **uncarried())
    for found in searches.values():
        assert found.status == fresh.status == solver.OPTIMAL
        assert found.nodes == fresh.nodes
        np.testing.assert_allclose(found.primal, fresh.primal, rtol=0.0, atol=1e-9)
    assert _rel_err(milp.objective, oracle.highs_milp(model)) <= oracle.MILP_REL_TOL


def test_the_pricing_lp_ends_primal_feasible_to_rounding():
    # a warm round's dual phase that stopped at FEAS_TOL would leave a row
    # violated by 8e-9 here: a vertex of a nearly degenerate LP whose
    # prices are 0.025 $/MWh off HiGHS's
    lps, _ = _solves(gen.make_case(gen.CaseSpec(4, 1), 71, 3), "ch")
    model, sol = lps[-1]
    assert sol.status == solver.OPTIMAL
    assert solver.kkt_report(model, sol)["primal"] <= 1e-9
    _, y = oracle.highs_lp(model)
    rows = list(model.bus_p_row.values()) + list(model.bus_q_row.values())
    np.testing.assert_allclose(sol.duals[rows] / model.base_mva, y[rows] / model.base_mva,
                               rtol=0.0, atol=oracle.PRICE_ABS_TOL)
