"""Properties: a carried LP reaches the answer of the form it holds,
whatever path its pivots take, from each start a run hands it. Small
bounded LPs of this repo's shape are drawn, solved, then cut off at their
optimum and re-solved for a few rounds (``edit_rows``), or branched on
their binary from the parent's factor as a branch-and-bound child is; and
a stored basis is mapped onto a generated case with one branch out and
repaired by the carry that starts from it; and LPs with free, straddling, boxed and fixed
columns are started cold from their crash basis. Every solve must pass the
answer ladder's per-LP
rung (``ladder.lp_problems``): HiGHS's status, and for an optimum HiGHS's
objective and small KKT residuals. Duals are checked by KKT only, since
optimal duals need not be unique. Skipped where hypothesis or scipy is not
installed."""

import copy
import tempfile
from functools import cache
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
pytest.importorskip("scipy")

from hypothesis import given, settings
from hypothesis import strategies as st

import ladder
from cppa import algorithm, cuts, netio, solver
from cppa.model import SENSE_EQ, SENSE_GE, SENSE_LE, ModelIR, Row

COEFF = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.0, 0.5, 1.0, 2.0, 3.0])


@st.composite
def bounded_lps(draw):
    """(model, interior point): 2-6 bounded columns, the first a relaxed
    binary; up to 2 free columns, each defined by one equality row over
    the bounded ones; and 1-4 rows of any sense that hold at the point,
    which lies strictly inside every column's bounds."""
    m = ModelIR()
    point = []
    m.add_var("on", 0.0, 1.0, binary=True)
    point.append(draw(st.sampled_from([0.25, 0.5, 0.75])))
    for j in range(draw(st.integers(1, 5))):
        lb = draw(st.sampled_from([-2.0, -1.0, 0.0, 0.5]))
        width = draw(st.sampled_from([1.0, 2.0, 4.0]))
        m.add_var(f"x{j}", lb, lb + width)
        point.append(lb + width * draw(st.sampled_from([0.25, 0.5, 0.75])))
    bounded = len(point)
    for k in range(draw(st.integers(0, 2))):
        coeffs = {j: draw(COEFF) for j in range(bounded)}
        f = m.add_var(f"f{k}", -np.inf, np.inf)
        m.add_row(f"def_f{k}", {f: 1.0, **{j: -a for j, a in coeffs.items() if a}},
                  SENSE_EQ, 0.0)
        point.append(sum(a * point[j] for j, a in coeffs.items()))
    point = np.array(point)
    for i in range(draw(st.integers(1, 4))):
        coeffs = {j: a for j in range(point.size) if (a := draw(COEFF))}
        at = sum(a * point[j] for j, a in coeffs.items())
        sense = draw(st.sampled_from([SENSE_LE, SENSE_GE, SENSE_EQ]))
        room = draw(st.sampled_from([0.5, 1.0, 2.0]))
        rhs = at + room if sense == SENSE_LE else at - room if sense == SENSE_GE else at
        m.add_row(f"r{i}", coeffs, sense, rhs)
    for j in range(point.size):
        if a := draw(COEFF):
            m.add_objective(j, a)
    return m, point


def _check(lp, sol, optimal=True):
    """The solve of the carry's form passes the per-LP rung, and is
    Optimal if ``optimal``."""
    assert sol.status == solver.OPTIMAL or not optimal
    problems = ladder.lp_problems(ladder.Lp.of(lp, sol))
    assert not problems, problems


@settings(max_examples=50, derandomize=True, deadline=None)
@given(bounded_lps(), st.data())
def test_row_edits_keep_the_carried_lp_at_the_optimum_of_its_model(drawn, data):
    model, point = drawn
    lp = solver.CarriedLp(model)
    sol = solver.solve_lp(lp.model, carry=lp)
    _check(lp, sol)
    n, m_base = lp.n, len(model.rows)
    for r in range(data.draw(st.integers(1, 3))):
        # cuts a^T x <= rhs that the optimum violates and the point keeps:
        # a leans from the point toward the optimum
        away = sol.primal - point
        rows = []
        for k in range(data.draw(st.integers(1, 2))):
            a = away + data.draw(st.sampled_from([0.0, 0.25])) * np.array(
                [data.draw(COEFF) for _ in range(n)])
            if a @ away <= 1e-6 * (away @ away):
                a = away
            if a @ away <= 1e-9:  # the optimum is the point: nothing to cut
                continue
            t = data.draw(st.sampled_from([0.2, 0.5, 0.8]))
            rhs = a @ point + t * (a @ away)
            rows.append(Row(f"cut{r}_{k}", {int(j): float(a[j]) for j in np.flatnonzero(a)},
                            SENSE_LE, float(rhs)))
        # an earlier cut whose slack is basic may go, as an aged-out one does
        drop = [i for i in range(m_base, lp.b.size)
                if lp.status[n + i] == solver.BASIC and data.draw(st.booleans())]
        lp.edit_rows(np.array(drop, dtype=int), rows)
        sol = solver.solve_lp(lp.model, carry=lp)
        _check(lp, sol)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(bounded_lps(), st.sampled_from([0.0, 1.0]))
def test_a_child_started_from_its_parent_s_factor_reaches_its_answer(drawn, value):
    # a branch-and-bound child as solve_milp makes one: a shallow copy of
    # its parent's carry with its own bounds, the binary pinned, started
    # from the parent's terminal statuses and factor; pinned, the LP may
    # be infeasible
    model, _ = drawn
    parent = solver.CarriedLp(model)
    _check(parent, parent.solve())
    child = copy.copy(parent)
    child.lb, child.ub = parent.lb.copy(), parent.ub.copy()
    child.lb[0] = child.ub[0] = value  # column 0 is the relaxed binary
    _check(child, child.solve(), optimal=False)


@cache
def _base_run(seed):
    """The 4-bus CP/CH case of the seed, and the pool its run ends with,
    which carries its terminal basis."""
    case = ladder.gen.make_case(ladder.gen.CaseSpec(4, 1), seed, 0)
    return case, algorithm.run_cppa(case, algorithm.CppaConfig()).pool


@settings(max_examples=15, derandomize=True, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.data())
def test_a_stored_basis_mapped_onto_an_outage_reaches_its_answer(seed, data):
    # a base run's stored basis and cuts, loaded onto the case with one
    # branch out, mapped onto its model and handed to the carry as run_cppa
    # does; a few statuses flipped to or from basic give the carry's repair
    # too many, too few or dependent basic columns as well
    case, pool = _base_run(seed)
    bid = data.draw(st.sampled_from(ladder.gen.n1_outages(case)))
    outage = netio.apply_contingency(case, [bid])
    with tempfile.TemporaryDirectory() as tmp:
        cuts.save_cuts(pool, Path(tmp) / "cuts.json", case)
        warm, _, _ = cuts.load_cuts(Path(tmp) / "cuts.json", outage)
    model = algorithm.build_welfare(outage, algorithm.MODEL_CP)
    n_base_rows = len(model.rows)
    model.rows += [cut.to_row(model) for cut in warm.cuts]
    stored = algorithm._stored_basis(model, n_base_rows, warm)
    for j in data.draw(st.lists(st.integers(0, stored.size - 1), max_size=4, unique=True)):
        stored[j] = solver.AT_LOWER if stored[j] == solver.BASIC else solver.BASIC
    lp = solver.CarriedLp(model, stored)
    _check(lp, lp.solve())


@st.composite
def crash_lps(draw):
    """(model, point): 1-5 columns, each straddling (lb < 0 < ub), boxed
    at or above 0, or fixed; up to 3 free columns, each defined by an
    equality row over the others; and 1-4 rows of any sense that hold at
    the point, which lies inside every column's bounds. So the LP is
    feasible and bounded, whatever the crash starts from."""
    m = ModelIR()
    point = []
    for j in range(draw(st.integers(1, 5))):
        lb, ub = draw(st.sampled_from([(-2.0, 2.0), (-1.0, 0.5), (0.0, 1.0), (0.5, 4.0),
                                       (1.0, 1.0), (0.0, 0.0), (-0.5, -0.5)]))
        m.add_var(f"x{j}", lb, ub)
        point.append(lb + (ub - lb) * draw(st.sampled_from([0.25, 0.5, 0.75])))
    for k in range(draw(st.integers(0, 3))):
        coeffs = {j: a for j in range(len(point)) if (a := draw(COEFF))}
        own = draw(st.sampled_from([1.0, -0.5, 2.0]))
        f = m.add_var(f"f{k}", -np.inf, np.inf)
        m.add_row(f"def_f{k}", {f: own, **{j: -a for j, a in coeffs.items()}}, SENSE_EQ, 0.0)
        point.append(sum(a * point[j] for j, a in coeffs.items()) / own)
    point = np.array(point)
    for i in range(draw(st.integers(1, 4))):
        coeffs = {j: a for j in range(point.size) if (a := draw(COEFF))}
        at = sum(a * point[j] for j, a in coeffs.items())
        sense = draw(st.sampled_from([SENSE_LE, SENSE_GE, SENSE_EQ]))
        room = draw(st.sampled_from([0.0, 0.5, 1.0]))
        rhs = at + room if sense == SENSE_LE else at - room if sense == SENSE_GE else at
        m.add_row(f"r{i}", coeffs, sense, rhs)
    for j in range(point.size):
        if a := draw(COEFF):
            m.add_objective(j, a)
    return m, point


@settings(max_examples=60, derandomize=True, deadline=None)
@given(crash_lps())
def test_the_crash_basis_is_a_nonsingular_basis_and_a_cold_start(drawn):
    # one basic column per row, no fixed structural column among them, and
    # only equality rows' slacks out of the basis; its columns are
    # independent, so repair_basis keeps every one; and the cold solve,
    # which starts from it, reaches its answer
    model, _ = drawn
    lp = solver.CarriedLp(model)
    n = lp.n
    status = solver.crash(lp.A, lp.lb, lp.ub)
    basic = status == solver.BASIC
    assert np.count_nonzero(basic) == lp.b.size
    assert not (basic[:n] & (lp.lb[:n] == lp.ub[:n])).any()
    assert (lp.lb[n:][~basic[n:]] == lp.ub[n:][~basic[n:]]).all()
    np.testing.assert_array_equal(solver.repair_basis(lp.A, status), status)
    assert np.linalg.matrix_rank(lp.A[:, basic]) == lp.b.size
    _check(lp, lp.solve())
