"""Property: a carried LP whose rows ``edit_rows`` changes solves to the
optimum of the model it holds, whatever path its pivots take. Small
bounded LPs of this repo's shape are drawn, solved, then cut off at their
optimum and re-solved for a few rounds; every solve is checked by status,
by objective against HiGHS and by its KKT residuals. Duals are checked by
KKT only, since optimal duals need not be unique. Skipped where hypothesis
or scipy is not installed."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
pytest.importorskip("scipy")

from hypothesis import given, settings
from hypothesis import strategies as st

from cppa import solver
from cppa.model import SENSE_EQ, SENSE_GE, SENSE_LE, ModelIR, Row

from conftest import benchmark_module

oracle = benchmark_module("oracle")

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


def _check(lp, sol):
    """The solve of the carry's model is optimal, at HiGHS's objective,
    with KKT residuals of at most 1e-6."""
    assert sol.status == solver.OPTIMAL
    objective, _ = oracle.highs_lp(lp.model)
    assert abs(sol.objective - objective) <= oracle.OBJ_REL_TOL * max(1.0, abs(objective))
    assert max(solver.kkt_report(lp.model, sol).values()) <= 1e-6


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
