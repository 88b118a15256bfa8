"""Run the answer ladder against seeded faults of the package, to show that
it sees them.

    python3 tools/mutants.py

Each mutant in MUTANTS is one textual edit of a module under ``src/cppa``:
the text it replaces, which must occur exactly once, and its replacement.
The edit is made in a temporary copy of ``src/``, and the tests of RUNGS
run on that copy in a pytest subprocess, with the copy first on
``PYTHONPATH``: the ladder's tests, the HiGHS checks of the MILPs in
``tests/test_oracle.py``, the dual phase's cost check, the cold start's
dual feasibility, the dual phase's updated state, the kernel inverse, the
verdict's cost (a clean verdict takes no fresh inverse), the carried
factor (at every carried start, its B^-1 inverts its basis in its
order) and the cone table's geometry. A mutant is killed when any of
those tests fails or errors, or when the run passes TIMEOUT_S; its line
names the rungs whose tests failed. The unmutated copy runs first and must pass.

Prints one line per mutant, then the count killed. Exits 1 if the
unmutated copy fails or any mutant survives, 2 if a mutation's text does
not occur exactly once.

Faults that leave every answer right are not mutants here, since no
answer can show them, unless a test of the state they break can: the
dual phase's updates, which the primal loop prices afresh at the
hand-over, the cold start's placement, which when wrong only costs
pivots, the verdict's residual, which when wrong only takes fresh
inverses, and the carried factor, whose B^-1, if it did not invert its
basis in its order (rows out of step, or an inverse that
``CarriedLp.edit_rows`` borders wrongly), the verdict's residual check
could heal with a fresh inverse. Known ones that stay out: a dual phase
whose Harris pass takes the largest ratio instead of the smallest,
because the dual phase hands over once a score turns positive and the
primal loop reaches the optimum; and a verdict that skips its residual
check, because the product-form drift on these cases stays inside the
tolerances. Nor are faults that only a bit-for-bit comparison with an
older copy of the code could see: Bland's rule taking the tied leaving
row of the highest column instead of the lowest, and a cone violation
off by one ulp.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900

# test function -> the rung it belongs to; each runs with every parameter
LADDER, PROPERTIES = "tests/test_ladder.py::", "tests/test_carried_lp_property.py::"
SOLVER, ORACLE = "tests/test_solver.py::", "tests/test_oracle.py::"
CONES, CARRIED = "tests/test_cone_table.py::", "tests/test_carried_lp.py::"
RUNGS = {
    LADDER + "test_every_lp_reaches_the_highs_answer": "per LP",
    SOLVER + "test_each_solver_lp_reaches_the_highs_answer": "per LP",
    PROPERTIES + "test_row_edits_keep_the_carried_lp_at_the_optimum_of_its_model": "per LP",
    PROPERTIES + "test_a_child_started_from_its_parent_s_factor_reaches_its_answer": "per LP",
    PROPERTIES + "test_a_stored_basis_mapped_onto_an_outage_reaches_its_answer": "per LP",
    PROPERTIES + "test_the_crash_basis_is_a_nonsingular_basis_and_a_cold_start": "per LP",
    LADDER + "test_every_run_ends_as_its_last_lp_says": "per run",
    ORACLE + "test_every_milp_matches_highs": "per run (MILP)",
    ORACLE + "test_block_unit_milp_matches_highs": "per run (MILP)",
    SOLVER + "test_the_dual_phase_saves_iterations_over_a_run": "cost",
    SOLVER + "test_every_cold_lp_starts_dual_feasible": "cold start",
    SOLVER + "test_the_dual_phase_hands_over_the_state_of_a_fresh_pricing": "dual state",
    SOLVER + "test_the_kernel_inverse_equals_the_basis_inverse": "kernel",
    SOLVER + "test_a_clean_verdict_takes_no_inverse": "verdict cost",
    CARRIED + "test_a_carried_start_is_already_placed": "factor",
    CONES + "test_each_violation_is_a_quarter_of_the_soc_gap": "per cut",
    CONES + "test_the_selection_ranks_the_violated_cones": "per cut",
    CONES + "test_the_deepest_cut_is_violated_at_its_point_and_holds_on_the_cone": "per cut",
    CONES + "test_unit_normals_have_norm_one_and_point_along_their_cut": "per cut",
    CONES + "test_batch_admission_equals_one_cut_at_a_time": "per cut",
    CONES + "test_parallel_verdicts_are_the_cosines_of_unit_normals": "per cut",
    LADDER + "test_warm_and_cold_outage_prices_agree": "end to end",
}

# (name, module, text, replacement)
MUTANTS = (
    ("flipped dual sign", "solver.py",
     "primal=primal, duals=y,", "primal=primal, duals=-y,"),
    ("slacks of the wrong sign", "solver.py", "slacks=x[n:],", "slacks=-x[n:],"),
    ("skipped bound flip", "solver.py",
     "place(j, direction > 0)  # bound flip of the entering variable", "pass"),
    ("ratio test off the minimum", "solver.py",
     "leave = int(ratios.argmin()) if m else -1",
     "leave = int(np.argsort(ratios)[min(1, m - 1)]) if m else -1"),
    ("leaving column placed at its other bound", "solver.py",
     "place(basis[leave], upper)", "place(basis[leave], not upper)"),
    ("phase-1 costs of the wrong sign", "solver.py",
     "np.where(below, 1.0, np.where(above, -1.0, 0.0))",
     "np.where(below, -1.0, np.where(above, 1.0, 0.0))"),
    ("inverted stall test", "algorithm.py",
     "stall = stall + 1 if improvement < config.ftol else 0",
     "stall = stall + 1 if improvement >= config.ftol else 0"),
    ("convergence read above eps_viol", "algorithm.py",
     "cones.select(sol.primal, config.eps_viol, config.rho)",
     "cones.select(sol.primal, 1e3 * config.eps_viol, config.rho)"),
    ("the relaxation's objective reported", "algorithm.py",
     "result.objective = price_sol.objective", "result.objective = sol.objective"),
    ("fixed columns in the crash basis", "solver.py",
     "for j in order[(u > l)[order]].tolist():", "for j in order.tolist():"),
    ("every pooled cut reads as parallel", "cuts.py",
     ">= 1.0 - eps_par]] = True", ">= -1.0 - eps_par]] = True"),
    ("never takes the up branch", "solver.py",
     "for val in (0.0, 1.0):", "for val in (0.0,):"),
    ("Bland's rule enters a column that does not improve", "solver.py",
     "j = int((score > OPT_TOL).argmax())", "j = int(score.argmin())"),
    ("the dual phase never starts", "solver.py",
     "dual_feasible = score.max() <= OPT_TOL", "dual_feasible = False"),
    ("a current cut's right-hand side short by twice the norm", "cuts.py",
     "return V, np.where(jabr, 0.0, last + norm), norm < 1e-12",
     "return V, np.where(jabr, 0.0, last - norm), norm < 1e-12"),
    ("batch admission without the parallel test", "cuts.py",
     "parallel = _parallel(keys, normals, *self._arrays(), eps_par)",
     "parallel = np.zeros(keys.size, dtype=bool)"),
    ("dual update with theta_d of the wrong sign", "solver.py",
     "step = d[j] / alpha[j]", "step = -d[j] / alpha[j]"),
    ("kernel inverse without its -A[S, C] K^-1 block", "solver.py",
     "Binv[np.ix_(at_S, R)] = -A[np.ix_(S, C)] @ Kinv", "pass"),
    ("cold start at the bound its reduced cost does not prefer", "solver.py",
     "_row_times(c[basis] @ Binv, A[:, :n]) > 0.0", "_row_times(c[basis] @ Binv, A[:, :n]) < 0.0"),
    ("verdict residual without its slack part", "solver.py",
     "As @ x[:n] + x[n:] - b", "As @ x[:n] - b"),
    ("factor rows out of step with its basis", "solver.py",
     "(basis[order], Binv[order], fresh), it", "(basis[order], Binv, fresh), it"),
    ("appended rows bordered without their -a_B B^-1 block", "solver.py",
     "bordered[m_kept:, :m_kept] = -A[m_kept:, basis] @ bordered[:m_kept, :m_kept]", "pass"),
)


def mutate(src, module, text, replacement):
    """Make the edit in the copy of ``src/`` at ``src``; False unless the
    text occurs there exactly once."""
    path = Path(src) / "cppa" / module
    source = path.read_text()
    if source.count(text) != 1:
        return False
    path.write_text(source.replace(text, replacement))
    return True


def failed_rungs(src, work):
    """Run the ladder's tests on the copy of ``src/`` at ``src``; returns the
    rungs whose tests failed, or ["timeout"]."""
    report = Path(work) / "junit.xml"
    report.unlink(missing_ok=True)
    env = {**os.environ, "PYTHONPATH": str(src)}
    try:
        subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                        "--tb=no", f"--junitxml={report}", *(str(ROOT / t) for t in RUNGS)],
                       cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                       timeout=TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return ["timeout"]
    if not report.is_file():
        return ["no report"]
    failed = set()
    for case in ET.parse(report).iter("testcase"):
        if case.find("failure") is not None or case.find("error") is not None:
            module = case.get("classname").split(".")[-1]
            function = case.get("name").split("[")[0]
            failed.add(RUNGS.get(f"tests/{module}.py::{function}", "collection"))
    return sorted(failed)


def main():
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        shutil.copytree(ROOT / "src", clean)
        broken = failed_rungs(clean, tmp)
        if broken:
            print(f"the unmutated tree fails the ladder: {', '.join(broken)}")
            return 1
        for name, module, text, replacement in MUTANTS:
            src = Path(tmp) / "mutant"
            shutil.rmtree(src, ignore_errors=True)
            shutil.copytree(ROOT / "src", src)
            if not mutate(src, module, text, replacement):
                print(f"{name}: its text does not occur exactly once in {module}")
                return 2
            rungs = failed_rungs(src, tmp)
            results.append(bool(rungs))
            verdict = f"killed by {', '.join(rungs)}" if rungs else "SURVIVED"
            print(f"{name} ({module}): {verdict}", flush=True)
    print(f"{sum(results)} of {len(results)} mutants killed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
