"""Independent correctness check of a priced case against scipy's HiGHS.

scipy is a benchmark-only dependency; the package itself stays numpy-only.
The final pricing LP (the last model handed to ``solver.solve_lp``) is
rebuilt here straight from the ``ModelIR`` rows and bounds, without the
package's own ``standard_form``, and re-solved with HiGHS. Its objective and
balance-row duals are compared with the artifacts the CLI wrote. Under the
``ip`` rule the commitment MILP is re-solved with ``scipy.optimize.milp``.
"""

from __future__ import annotations

import csv
import json

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from cppa import solver
from cppa.model import SENSE_EQ, SENSE_GE, SENSE_LE

# Fixed tolerances. Prices in prices.csv carry 9 decimals; the in-house
# B&B stops at a 1e-6 relative gap, so the MILP objective is held to that.
OBJ_REL_TOL = 1e-7
MILP_REL_TOL = 2e-6
PRICE_ABS_TOL = 1e-5   # $/MWh
KKT_TOL = 1e-6


def _arrays(model):
    n = len(model.variables)
    c = np.zeros(n)
    for j, coeff in model.objective.items():
        c[j] += coeff
    A = np.zeros((len(model.rows), n))
    lo = np.full(len(model.rows), -np.inf)
    hi = np.full(len(model.rows), np.inf)
    for i, row in enumerate(model.rows):
        for j, coeff in row.coeffs.items():
            A[i, j] = coeff
        if row.sense != SENSE_GE:
            hi[i] = row.rhs
        if row.sense != SENSE_LE:
            lo[i] = row.rhs
    lb = np.array([v.lb for v in model.variables])
    ub = np.array([v.ub for v in model.variables])
    return c, A, lo, hi, lb, ub


def highs_lp(model):
    """(objective, row duals) of the maximization LP, duals signed as
    d(objective)/d(rhs) like the package's own."""
    c, A, lo, hi, lb, ub = _arrays(model)
    eq = np.array([r.sense == SENSE_EQ for r in model.rows], dtype=bool)
    le = ~eq & np.isfinite(hi)
    ge = ~eq & ~le
    A_ub = np.vstack([A[le], -A[ge]])
    b_ub = np.concatenate([hi[le], -lo[ge]])
    res = linprog(-c, A_ub=A_ub if len(b_ub) else None,
                  b_ub=b_ub if len(b_ub) else None,
                  A_eq=A[eq] if eq.any() else None,
                  b_eq=hi[eq] if eq.any() else None,
                  bounds=list(zip(lb, ub)), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS LP failed: {res.message}")
    y = np.zeros(len(model.rows))
    y[eq] = -res.eqlin.marginals
    n_le = int(le.sum())
    y[le] = -res.ineqlin.marginals[:n_le]
    y[ge] = res.ineqlin.marginals[n_le:]
    return -res.fun, y


def highs_milp(model):
    c, A, lo, hi, lb, ub = _arrays(model)
    integrality = np.array([1 if v.binary else 0 for v in model.variables])
    lb = np.where(integrality == 1, np.maximum(lb, 0.0), lb)
    ub = np.where(integrality == 1, np.minimum(ub, 1.0), ub)
    res = milp(-c, constraints=LinearConstraint(A, lo, hi),
               integrality=integrality, bounds=Bounds(lb, ub),
               options={"mip_rel_gap": 1e-9})
    if res.status != 0:
        raise RuntimeError(f"HiGHS MILP failed: {res.message}")
    return -res.fun


def _read_prices(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return ({int(r["bus_id"]): float(r["price_p"]) for r in rows},
            {int(r["bus_id"]): float(r["price_q"]) for r in rows if r["price_q"]})


def check_case(out_dir, lp_model, lp_sol, milp_model=None, milp_sol=None):
    """Compare one case's artifacts with HiGHS. Returns (errors, problems):
    the measured error figures and a list of tolerance violations."""
    problems = []
    with open(out_dir / "report.json") as fh:
        report = json.load(fh)
    if lp_model is None:
        return {}, ["no pricing LP was captured"]
    obj, y = highs_lp(lp_model)
    base = lp_model.base_mva
    obj_err = abs(report["objective"] - obj) / max(1.0, abs(obj))
    prices_p, prices_q = _read_prices(out_dir / "prices.csv")
    price_err = 0.0
    for rows, prices in ((lp_model.bus_p_row, prices_p),
                         (lp_model.bus_q_row, prices_q)):
        for bus, i in rows.items():
            price_err = max(price_err, abs(prices[bus] - y[i] / base))
    kkt = max(solver.kkt_report(lp_model, lp_sol).values())
    errors = {"obj_rel_err": obj_err, "price_abs_err": price_err,
              "kkt_gap": kkt}
    if obj_err > OBJ_REL_TOL:
        problems.append(f"objective off HiGHS by {obj_err:.3g} (relative)")
    if price_err > PRICE_ABS_TOL:
        problems.append(f"prices off HiGHS duals by {price_err:.3g} $/MWh")
    if kkt > KKT_TOL:
        problems.append(f"KKT residual {kkt:.3g}")
    if milp_model is not None:
        ref = highs_milp(milp_model)
        milp_err = abs(milp_sol.objective - ref) / max(1.0, abs(ref))
        errors["obj_rel_err"] = max(obj_err, milp_err)
        if milp_err > MILP_REL_TOL:
            problems.append(f"MILP objective off HiGHS by {milp_err:.3g}")
    return errors, problems
