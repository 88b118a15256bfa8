"""Revised bounded-variable simplex, a dual phase then a primal loop, with
dual extraction, plus a best-bound branch-and-bound for the mixed-binary
welfare problems.

The simplex works on the standard form max c'x s.t. Ax = b, l <= x <= u
obtained by appending one slack per row (slack bounds encode the sense).
It keeps an explicit basis inverse: each pivot applies a product-form
rank-1 update, and the inverse is taken afresh every REFACTOR_INTERVAL
updates. An Optimal or Infeasible verdict reached on an updated inverse is
checked by its residuals instead: max|Ax - b| against FEAS_TOL and
max|yB - c_B|, under the current phase's costs, against OPT_TOL. Only a
failed check takes a fresh inverse and prices again. A basis found singular
at a refactorization sends its dependent columns nonbasic and gives their
rows their slacks (``repair_basis``); phase 1 repairs what that moves.
Phase 1 minimizes the sum of bound violations of basic variables with the
usual composite costs; Bland's rule engages after a stall of degenerate
pivots, which guarantees termination (e.g. on the Beale cycling example).
Across pivots the iteration keeps the state a pivot changes in one or two
entries: the nonbasic values with the basic ones zeroed; the basic
columns' bounds, their FEAS_TOL-widened copies and their costs; a pricing
sign per column (+1 at a lower bound, -1 at an upper one, 0 if basic or
fixed); and the nonbasic free columns. It rebuilds that state only at the
start and after a ``repair_basis``. The pivot rules are those of the
textbook iteration, on the same matrix products in the same order: the
entering column has the largest reduced cost times its sign (|d| if free),
or under Bland's rule the first one above OPT_TOL; the ratio test runs over
every basic row, where an infinite bound gives an infinite ratio.
Duals come straight out of the terminal basis, signed so that for a
maximization model the dual of a binding <= row is nonnegative.

No product of an iteration multiplies the slack block, which is I: every
nonbasic slack sits at exactly 0, since each slack's finite bound is 0 and
its other bound is infinite or 0 too. So A x_N runs over the structural
columns, y A and a row of B^-1 A take their slack part as y and the row
itself, and B^-1 a_j of a slack column is a column of B^-1. The structural
block is padded with slack columns to a multiple of LANES, so that BLAS
sums each row's terms in the lanes it would over all of A, and every
product equals the dense one bit for bit. Only the verdict's residual
check, max|Ax - b|, runs over all of A.

A dual phase runs before the primal loop when the start basis is dual
feasible (every score, under the true costs, at most OPT_TOL) and some
basic value lies more than DUAL_STOP_TOL outside its bounds: the start of
a cut round, whose new cut rows' slacks are basic and violated, of a
branch-and-bound child, whose fixed binary was basic, and of many warm
outages. It is a bounded dual simplex (Koberstein & Suhl 2007) on the same
inverse and per-basis state, and shares the primal's basis exchange. The
leaving row has the largest violation squared over the squared norm of its
row of the inverse (dual steepest edge, Forrest & Goldfarb 1992, with
exact norms); the entering column comes from Harris' two-pass ratio test
over that row of B^-1 A, with OPT_TOL as the first pass's slack and ties
to the largest |alpha|; only nonbasic columns that are not fixed may
enter, a free one in either direction. It never reaches a verdict: it
hands the basis to the primal loop once every basic value is within
DUAL_STOP_TOL of its bounds, on a row no column can repair (a dual ray,
which phase 1 then proves Infeasible), after a refactorization that
repaired the basis, once a score drifts above OPT_TOL, or when a
STALL_LIMIT-th degenerate pivot in a row is due; so it needs no
anti-cycling rule of its own. DUAL_STOP_TOL sits far below FEAS_TOL because a nearly degenerate
LP left with a cut slack basic at -1e-8 is at another vertex, whose prices
can differ from the optimum's by 0.025 $/MWh. A cold start of a welfare
model with a load is not dual feasible (the load's benefit prices positive
at the slack basis), so it pivots as the primal loop alone does.

Every LP is solved on a ``CarriedLp``, the one holder of an LP's model
and start state: the model, its standard form, the statuses its next
solve starts from and the terminal factor of its last solve.
``CarriedLp.solve`` runs the simplex from them and writes back the
terminal ones. ``solve_lp(model)`` solves a new carry of the model, cold
or from ``basis_hint``; ``solve_lp(model, carry=)`` solves the carry,
whose model it is handed, from the carry's own start. The cut loop
carries one across its rounds, the branch-and-bound and the fixed-binary
pricing LP, and only the carry changes its model, always with the form
alongside: between solves ``edit_rows`` deletes rows whose slacks are
basic and appends rows with basic slacks, on a new model that holds the
kept rows then the appended ones, and shrinks and borders the inverse to
match (the bordered update for added constraints, Koberstein & Suhl
2007); ``fix_binaries`` pins binaries on a new model that owns new
variables and shares the rows, objective, cones and maps, and on the
carried bounds alike. So a model handed to an earlier solve never changes,
and the form is always its model's. ``solve_milp`` solves each node on a
shallow copy of its carry, which shares the form, owns copies of its
parent's bounds with one binary fixed, and starts from its parent's
statuses and factor; the root starts from the carry's, and the incumbent
node's are left on it, from which the fixed-binary LP starts. So only a
solve whose carry holds no factor inverts its start basis, and the
updates since the last fresh inverse count on across solves. No
``LpSolution`` or ``MilpSolution`` holds a carry. The dual phase, or where
the start is not dual feasible phase 1, repairs the primal infeasibility
that new rows or changed bounds create. Start statuses are used when they
have one basic column per row, else the solve starts cold from the slack
basis; a start basis found singular is repaired as one found singular at
a refactorization is (``repair_basis``). Either way each nonbasic
column starts at its upper bound if the statuses ask for it and that
bound is finite, else at a finite bound, lower first, else free at zero:
the one placement rule (``_at_bound``). The slack block of every standard
form is I, so the inverse of a basis of slacks alone is taken as I, not
computed; after pivots that basis can hold a slack at another slack's
row, and its inverse is then I with its rows in the basis' order. A fixed
structural column (lb == ub) is reported at its bound, where a basic
one's value, computed through the inverse, can be an ulp off. A MILP's
``bound`` is the largest of the incumbent's objective, every open node's
bound and every node dropped within MILP_GAP of the incumbent.

``repair_basis`` makes a usable hint of statuses that may hold too many,
too few or dependent basic columns, after the usual repair of a start
basis (Bixby 1992): it keeps the basic slacks, keeps each basic structural
column that is independent, on the rows left, of those kept before it,
sends a dependent one nonbasic, and gives the rows still uncovered their
slacks.

``simplex`` and ``solve_lp`` take a ``time.perf_counter()`` deadline, and
``simplex`` checks it at each periodic refactorization, in either phase;
once it has passed the solve stops with status TimeLimit. The iteration
count ``simplex`` returns counts the iterations of both phases.
"""

from __future__ import annotations

import copy
import heapq
import time
from dataclasses import dataclass

import numpy as np

from .model import SENSE_EQ, SENSE_GE, SENSE_LE, Variable

INF = float("inf")

FEAS_TOL = 1e-7
OPT_TOL = 1e-9
PIVOT_TOL = 1e-9
DEPENDENCE_TOL = 1e-7  # repair_basis: a kept column's least new part, by length
INT_TOL = 1e-6
STALL_LIMIT = 50  # consecutive degenerate pivots before Bland's rule
REFACTOR_INTERVAL = 50  # product-form updates between fresh inverses
ITERATION_FACTOR = 50  # simplex iteration cap: this many per standard-form row and column
NODE_LIMIT = 10**6  # branch-and-bound nodes before solve_milp gives up
MILP_GAP = 1e-6  # solve_milp: relative gap, to max(1, |incumbent|), that closes a node
DUAL_STOP_TOL = 1e-11  # dual phase: the basic bound violation it leaves to the primal loop
LANES = 8  # the structural block of a product is padded to a multiple of this many columns

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"
ITERATION_LIMIT = "IterationLimit"
TIME_LIMIT = "TimeLimit"

# nonbasic at a bound, basic, nonbasic free (at zero): the values of
# LpSolution.basis_status and of a carry's or a hint's statuses
AT_LOWER, AT_UPPER, BASIC, FREE = 0, 1, 2, 3


class SolverError(RuntimeError):
    pass


class SingularBasisError(SolverError):
    pass


@dataclass
class LpSolution:
    status: str
    primal: np.ndarray          # structural variables only
    duals: np.ndarray           # one per row
    reduced_costs: np.ndarray   # structural variables only
    objective: float
    basis_status: np.ndarray = None  # full standard-form statuses (hint)
    iterations: int = 0


@dataclass
class MilpSolution:
    status: str
    primal: np.ndarray
    objective: float
    bound: float
    nodes: int = 0
    lp_iterations: int = 0  # simplex iterations over all nodes


SLACK_BOUNDS = {SENSE_LE: (0.0, INF), SENSE_GE: (-INF, 0.0), SENSE_EQ: (0.0, 0.0)}


def _fill_rows(A, rows):
    """Write each model row's coefficients into its row of A; returns the
    rows' right-hand sides and slack bounds."""
    b = np.empty(len(rows))
    slack_lb = np.empty(len(rows))
    slack_ub = np.empty(len(rows))
    for i, row in enumerate(rows):
        for j, coeff in row.coeffs.items():
            A[i, j] = coeff
        b[i] = row.rhs
        if row.sense not in SLACK_BOUNDS:
            raise SolverError(f"unknown row sense {row.sense!r}")
        slack_lb[i], slack_ub[i] = SLACK_BOUNDS[row.sense]
    return b, slack_lb, slack_ub


def standard_form(model):
    """Dense (A, b, c, lb, ub, n_struct) with one slack column per row."""
    n = len(model.variables)
    m = len(model.rows)
    A = np.eye(m, n + m, n)  # each row's slack
    b, slack_lb, slack_ub = _fill_rows(A, model.rows)
    c = np.zeros(n + m)
    for j, coeff in model.objective.items():
        c[j] = coeff
    lb = np.concatenate([[v.lb for v in model.variables], slack_lb])
    ub = np.concatenate([[v.ub for v in model.variables], slack_ub])
    return A, b, c, lb, ub, n


class CarriedLp:
    """A model and its standard form, carried from solve to solve as the
    cut loop's are from round to round, with the start state of its next
    solve: statuses (a hint, or the last solve's terminal ones) and the
    last solve's terminal factor, which ``solve`` writes back. Only
    ``edit_rows`` and ``fix_binaries`` change the model, and each changes
    the form with it, so the form stays the model's without a rebuild.
    ``edit_rows`` shrinks and borders the factor to match, so the next
    solve starts from it without inverting its start basis. Its update
    count carries on."""

    def __init__(self, model, status=None):
        self.model = model
        self.A, self.b, self.c, self.lb, self.ub, self.n = standard_form(model)
        self.status = status  # the next solve's start statuses, or None
        self.factor = None  # the last solve's terminal (basis, B^-1, updates)

    def solve(self, deadline=None):
        """The LpSolution of the carried form from its start state, whose
        terminal statuses and factor replace it. A fixed structural column
        (lb == ub) is reported at its bound: a basic one's value comes
        through the inverse, which can leave it an ulp off."""
        n, lb, ub = self.n, self.lb[:self.n], self.ub[:self.n]
        st, x, y, d, self.status, self.factor, it = simplex(
            self.A, self.b, self.c, self.lb, self.ub, basis_hint=self.status,
            deadline=deadline, factor=self.factor)
        primal = np.where(lb == ub, lb, x[:n])
        obj = float(self.c[:n] @ primal) if st == OPTIMAL else float("nan")
        return LpSolution(status=st, primal=primal, duals=y, reduced_costs=d[:n],
                          objective=obj, basis_status=self.status, iterations=it)

    def edit_rows(self, drop, rows):
        """Delete the rows at indices ``drop``, each with its slack basic,
        and append the model rows ``rows`` with their slacks basic.

        The carry takes a new model that holds the kept rows, then the
        appended ones, so a model handed to an earlier solve never changes.
        A row deleted with its slack basic takes the slack's row and its
        own column out of B^-1 exactly. Appended rows, whose coefficients
        on the basic columns are a_B, border it as
        [[B^-1, 0], [-a_B B^-1, I]] (Koberstein & Suhl 2007); their slack
        columns come last, so the basis stays in increasing order."""
        m = self.b.size
        n = self.n
        keep_rows = np.ones(m, dtype=bool)
        keep_rows[drop] = False
        self.model = copy.copy(self.model)
        self.model.rows = [row for row, kept in zip(self.model.rows, keep_rows) if kept] + rows
        keep_cols = np.concatenate([np.ones(n, dtype=bool), keep_rows])
        m_kept = np.count_nonzero(keep_rows)
        m_new = m_kept + len(rows)
        A = np.eye(m_new, n + m_new, n)  # each row's slack
        A[:m_kept, :n] = self.A[keep_rows, :n]
        b_new, lb_new, ub_new = _fill_rows(A[m_kept:], rows)
        self.A = A
        self.b = np.concatenate([self.b[keep_rows], b_new])
        self.c = np.concatenate([self.c[keep_cols], np.zeros(len(rows))])
        self.lb = np.concatenate([self.lb[keep_cols], lb_new])
        self.ub = np.concatenate([self.ub[keep_cols], ub_new])
        self.status = np.concatenate(
            [self.status[keep_cols], np.full(len(rows), BASIC, dtype=np.int8)])

        basis, Binv, fresh = self.factor
        stays = keep_cols[basis]
        if basis.size - np.count_nonzero(stays) != m - m_kept:
            raise SolverError("a deleted row's slack is not basic")
        basis = (np.cumsum(keep_cols) - 1)[basis[stays]]
        bordered = np.eye(m_new)
        bordered[:m_kept, :m_kept] = Binv[stays][:, keep_rows]
        bordered[m_kept:, :m_kept] = -A[m_kept:, basis] @ bordered[:m_kept, :m_kept]
        self.factor = (np.concatenate([basis, n + np.arange(m_kept, m_new)]), bordered, fresh)

    def fix_binaries(self, values):
        """Pin binaries to an integral assignment on a new model that
        shares the rows (``fix_binaries``) and on the carried bounds alike.
        The layout stays, so the carried statuses and factor stay a
        basis."""
        self.model = fix_binaries(self.model, values)
        for j in values:
            self.lb[j] = self.ub[j] = self.model.variables[j].lb


def _structural(A, n):
    """The structural columns of a standard form's A, padded with slack
    columns to a multiple of LANES. BLAS sums a row's products in lanes by
    column, so a product over this block sums the nonzero terms in the
    lanes a product over all of A does, and equals it bit for bit once the
    slack block's part is set aside."""
    return A[:, :min(A.shape[1], -(-n // LANES) * LANES)]


def _row_times(r, As, n):
    """r @ A, with the structural block As (``_structural``): the slack
    block is I, so its part is r itself."""
    return np.concatenate([(r @ As)[:n], r])


def _column(Binv, A, j, n):
    """B^-1 A[:, j]: a slack column's is a column of B^-1 (+ 0.0 copies it
    and turns a -0.0 into the 0.0 the product gives)."""
    return Binv @ A[:, j] if j < n else Binv[:, j - n] + 0.0


def _at_bound(lb, ub, upper=False):
    """Nonbasic statuses: at the upper bound where ``upper`` asks for it
    and it is finite, else at a finite bound, lower first, else free."""
    up = (upper | (lb == -INF)) & (ub < INF)
    return np.where(up, AT_UPPER, np.where(lb > -INF, AT_LOWER, FREE)).astype(np.int8)


def _start(hint, lb, ub, m):
    """Starting (status, x, basis): the hint's basic columns when it has
    one per row, else the slack basis. Every nonbasic column sits at its
    upper bound where the hint asks for it and that bound is finite, else
    at a finite bound, lower first, else free at zero (``_at_bound``)."""
    N = lb.size
    if hint is not None and len(hint) == N and np.count_nonzero(hint == BASIC) == m:
        basic, upper = hint == BASIC, hint == AT_UPPER
    else:
        basic, upper = np.arange(N) >= N - m, False
    status = np.where(basic, BASIC, _at_bound(lb, ub, upper)).astype(np.int8)
    x = np.where(status == AT_LOWER, lb, np.where(status == AT_UPPER, ub, 0.0))
    return status, x, basic.nonzero()[0]


def _independent(M, tol):
    """Mask of the columns of M that a greedy pass in index order keeps: a
    column whose part outside the span of those kept before it has norm at
    most its ``tol`` is dropped. Costs one QR, plus one for each column
    dropped before the kept ones span every row."""
    keep = np.zeros(M.shape[1], dtype=bool)
    start = 0
    while start < keep.size and M.shape[0]:
        q, r = np.linalg.qr(M, mode="complete")
        small = np.abs(np.diagonal(r)) <= tol[start:start + min(r.shape)]
        k = int(small.argmax()) if small.any() else small.size
        keep[start:start + k] = True
        if k == small.size:
            break
        # column k depends on the k before it: drop it, and go on with the
        # later columns' parts outside the span of those k
        M = q[:, k:].T @ M[:, k + 1:]
        start += k + 1
    return keep


def _pivot_rows(Q):
    """Rows of Q (full column rank) picked by Gaussian elimination with
    partial pivoting, one per column: Q restricted to them is nonsingular."""
    Q = Q.copy()
    picked = []
    for k in range(Q.shape[1]):
        p = int(np.abs(Q[:, k]).argmax())
        picked.append(p)
        Q[:, k + 1:] -= np.outer(Q[:, k] / Q[p, k], Q[p, k + 1:])
    return picked


def repair_basis(A, status):
    """A hint ``_start`` accepts, made from candidate statuses over the
    standard form with matrix A that may hold too many or too few basic
    columns, or a dependent set of them.

    Each basic slack keeps its row; with their rows removed the basis is
    nonsingular iff the basic structural columns are on the rows left. Of
    those columns, taken in index order, one whose part outside the span of
    the ones kept before it is at most DEPENDENCE_TOL of its length goes
    nonbasic. If fewer columns than rows are kept, the slacks of rows picked
    by partial pivoting on the orthogonal complement of the kept columns
    complete the basis. Nonbasic statuses are passed through: ``_start``
    places every nonbasic column of a hint.
    """
    m, N = A.shape
    n = N - m
    status = np.array(status, dtype=np.int8)
    rows = np.flatnonzero(status[n:] != BASIC)
    cols = np.flatnonzero(status[:n] == BASIC)
    M = A[np.ix_(rows, cols)]
    keep = _independent(M, DEPENDENCE_TOL * np.linalg.norm(M, axis=0))
    status[cols[~keep]] = AT_LOWER  # dependent: nonbasic, placed by _start
    kept = int(keep.sum())
    if kept < rows.size:
        complement = (np.linalg.qr(M[:, keep], mode="complete")[0][:, kept:]
                      if kept else np.eye(rows.size))
        status[n + rows[_pivot_rows(complement)]] = BASIC
    return status


def simplex(A, b, c, lb, ub, basis_hint=None, deadline=None, factor=None):
    """Bounded-variable revised simplex over an explicit basis inverse: the
    dual phase for a dual-feasible start that is not primal feasible, then
    the primal loop. The last m columns of A are the slacks, whose block
    is I. Returns (status, x, y, d, status_arr, factor, iterations) over
    the standard form; ``factor`` is the terminal (basis, inverse, updates
    since it was last inverted afresh), basis in increasing order. Given a
    ``factor`` of the hint's basic columns, the solve starts from a copy of
    it instead of inverting. ``deadline``, a ``time.perf_counter()`` value,
    is checked at each periodic refactorization. ``iterations`` counts
    those of both phases."""
    m, N = A.shape
    n = N - m
    As = _structural(A, n)  # no product multiplies the slack block (module docstring)
    iteration_limit = ITERATION_FACTOR * (m + N)
    fixed = (ub - lb) <= 0.0

    def factorize(it):
        if basis.min(initial=N) >= N - m:
            # all slacks, in row order or permuted by pivots: A[:, basis] is
            # the permutation I[:, basis - (N - m)], whose inverse is its
            # transpose (I itself for the slack start)
            return np.eye(m)[basis - (N - m)]
        try:
            return np.linalg.inv(A[:, basis])
        except np.linalg.LinAlgError as exc:
            raise SingularBasisError(f"singular basis at iteration {it}") from exc

    def refactorize(it):
        """A fresh inverse. Pivots on a drifted inverse can make the basis
        singular: then its dependent columns go nonbasic, their rows get
        their slacks (``repair_basis``), and phase 1 repairs what moved."""
        nonlocal status, x, basis, xN, sgn, free, lB, uB, lo, hi, cB
        try:
            return factorize(it)
        except SingularBasisError:
            status, x, basis = _start(repair_basis(A, status), lb, ub, m)
            xN, sgn, free, lB, uB, lo, hi, cB = load()
            return factorize(it)

    def load():
        """The state a pivot changes in one or two entries: the nonbasic
        values with the basic ones zeroed, each column's pricing sign (+1
        at a lower bound, -1 at an upper one, 0 if basic or fixed), the
        nonbasic free columns, and the basic columns' bounds, bounds
        widened by FEAS_TOL, and costs."""
        xN = x.copy()
        xN[basis] = 0.0
        sgn = np.where(fixed | (status == BASIC) | (status == FREE), 0.0,
                       np.where(status == AT_LOWER, 1.0, -1.0))
        lB, uB = lb[basis], ub[basis]
        return (xN, sgn, (status == FREE).nonzero()[0], lB, uB,
                lB - FEAS_TOL, uB + FEAS_TOL, c[basis])

    def price(Binv, composite=True):
        """Basic values, phase flag, duals, reduced costs and each column's
        score: its reduced cost times its sign, |d| if free. A column
        improves iff its score exceeds OPT_TOL. Under ``composite`` a basic
        value outside its FEAS_TOL-widened bounds prices the phase-1 costs;
        the dual phase prices the true costs throughout."""
        xB = Binv @ (b - As @ xN[:As.shape[1]])
        x[basis] = xB
        below = xB < lo
        above = xB > hi
        phase1 = bool(np.count_nonzero(below) or np.count_nonzero(above))
        if phase1 and composite:  # the sum of bound violations, over the basic columns
            cost = np.zeros(N)
            cost[basis] = costB = np.where(below, 1.0, np.where(above, -1.0, 0.0))
        else:
            cost, costB = c, cB
        y = costB @ Binv
        d = cost - _row_times(y, As, n)
        score = d * sgn
        if free.size:
            score[free] = np.abs(d[free])
        return xB, below, above, phase1, y, d, score

    def done(verdict, it):
        order = np.argsort(basis)
        return verdict, x, y, d, status, (basis[order], Binv[order], fresh), it

    def exchange(leave, j, upper, w):
        """Column j enters the basis at row ``leave``, whose column leaves
        at its upper bound if ``upper``, else at its lower one; ``w`` is
        B^-1 A[:, j]. Price recomputes every basic value from the nonbasic
        ones."""
        nonlocal Binv, fresh, free
        out = basis[leave]
        status[out] = AT_UPPER if upper else AT_LOWER
        x[out] = xN[out] = ub[out] if upper else lb[out]
        sgn[out] = 0.0 if fixed[out] else (-1.0 if upper else 1.0)
        if status[j] == FREE:  # a basic free column never leaves
            free = free[free != j]
        basis[leave] = j
        status[j] = BASIC
        xN[j] = sgn[j] = 0.0
        lB[leave], uB[leave], cB[leave] = lb[j], ub[j], c[j]
        lo[leave], hi[leave] = lb[j] - FEAS_TOL, ub[j] + FEAS_TOL
        # product-form update: B_new^-1 = E B^-1 with the eta column of w
        pivot_row = Binv[leave] / w[leave]
        Binv -= np.outer(w, pivot_row)
        Binv[leave] = pivot_row
        fresh += 1

    status, x, basis = _start(basis_hint, lb, ub, m)
    if factor is not None:
        basis, Binv, fresh = factor[0].copy(), factor[1].copy(), factor[2]
    else:  # a singular start basis is repaired as at a refactorization
        Binv, fresh = refactorize(0), 0  # fresh: pivots applied since Binv was inverted
    xN, sgn, free, lB, uB, lo, hi, cB = load()

    def refresh(it):
        """The periodic refactorization, when due; False instead once the
        deadline has passed, and the solve stops with TimeLimit."""
        nonlocal Binv, fresh, stale
        if fresh >= REFACTOR_INTERVAL:
            if deadline is not None and time.perf_counter() > deadline:
                return False
            Binv, fresh, stale = refactorize(it), 0, True
        return True

    # The dual phase (module docstring) runs while the scores stay at most
    # OPT_TOL; each break hands the basis to the primal loop, which alone
    # reaches a verdict. The start's pricing binds y and d for a TimeLimit.
    # The primal loop's first iteration reuses the last pricing unless it
    # is ``stale`` (a pivot or a fresh inverse came after it) or phase 1
    # prices other costs.
    xB, below, above, phase1, y, d, score = price(Binv, composite=False)
    stale = False
    it = 1  # the iteration in progress, over both phases
    stall = 0
    while score.max() <= OPT_TOL and it <= iteration_limit:
        kept = basis
        if not refresh(it):
            return done(TIME_LIMIT, it)
        if basis is not kept:  # repaired: the primal loop takes over
            break
        if stale:
            xB, below, above, phase1, y, d, score = price(Binv, composite=False)
            stale = False
            if score.max() > OPT_TOL:
                break
        violation = np.maximum(lB - xB, xB - uB)
        rows = (violation > DUAL_STOP_TOL).nonzero()[0]
        if not rows.size:
            break
        # leaving row by dual steepest edge: the largest violation squared
        # over the squared norm of its row of the inverse
        R = Binv[rows]
        norms = np.einsum("ij,ij->i", R, R)
        leave = int(rows[(violation[rows] ** 2 / norms).argmax()])
        upper = bool(xB[leave] > uB[leave])
        # x[basis[leave]] falls by alpha[j] per unit that column j rises:
        # j may enter iff moving it off its bound (either way if free)
        # pushes x[basis[leave]] toward the bound it violates
        alpha = _row_times(Binv[leave], As, n)
        push = alpha * sgn if upper else -alpha * sgn
        if free.size:
            push[free] = np.abs(alpha[free])
        cols = (push > PIVOT_TOL).nonzero()[0]
        if not cols.size:  # a dual ray: phase 1 proves the LP infeasible
            break
        # Harris' two passes: the largest dual step that leaves no score
        # above OPT_TOL, then the largest |alpha| within it
        slack, mag = -score[cols], push[cols]
        within = slack <= ((slack + OPT_TOL) / mag).min() * mag
        k = int(np.where(within, mag, -1.0).argmax())
        stall = stall + 1 if slack[k] <= 1e-12 * mag[k] else 0
        if stall >= STALL_LIMIT:
            break
        j = int(cols[k])
        exchange(leave, j, upper, _column(Binv, A, j, n))
        stale = True
        it += 1

    bland = False
    stall = 0
    for it in range(it, iteration_limit + 1):
        if not refresh(it):
            return done(TIME_LIMIT, it)
        if stale or phase1:
            xB, below, above, phase1, y, d, score = price(Binv)
        stale = True
        j = int(score.argmax())
        if score[j] <= OPT_TOL and fresh and (
                np.abs(A @ x - b).max(initial=0.0) > FEAS_TOL or
                np.abs(d[basis]).max(initial=0.0) > OPT_TOL):
            # the verdict's residuals, max|Ax - b| and max|yB - c_B|, show
            # a drifted inverse: take it afresh and price again
            Binv, fresh = refactorize(it), 0
            xB, below, above, phase1, y, d, score = price(Binv)
            j = int(score.argmax())
        if score[j] <= OPT_TOL:
            return done(INFEASIBLE if phase1 else OPTIMAL, it)
        if bland:
            j = int((score > OPT_TOL).argmax())
        direction = 1.0 if (status[j] == AT_LOWER or
                            (status[j] == FREE and d[j] > 0)) else -1.0

        w = _column(Binv, A, j, n)
        delta = -w if direction > 0 else w  # rate of change of x[basis] per unit step

        # ratio test: each basic variable runs toward the bound it meets;
        # in phase 1 an infeasible one only toward, and up to, the bound
        # it violates. An infinite bound gives an infinite ratio.
        up = delta > 0.0
        target = np.where(up, uB, lB)
        eligible = np.abs(delta) > PIVOT_TOL
        if phase1:
            target = np.where(below, lB, np.where(above, uB, target))
            eligible &= ~(below & ~up) & ~(above & up)
        ratios = np.full(m, INF)
        np.divide(target - xB, delta, out=ratios, where=eligible)
        np.maximum(ratios, 0.0, out=ratios)

        t_best = ub[j] - lb[j]  # the step of a bound flip
        leave = int(ratios.argmin()) if m else -1
        if leave >= 0 and ratios[leave] < t_best - 1e-12:
            t_best = float(ratios[leave])
            tied = ratios <= t_best + 1e-12
            if np.count_nonzero(tied) > 1:  # the largest |delta|; Bland: the lowest column
                leave = int(np.where(tied, basis, N).argmin() if bland else
                            np.where(tied, np.abs(delta), -1.0).argmax())
        else:
            leave = -1

        if t_best == INF:
            if phase1:
                raise SolverError("phase-1 ray: numerical breakdown")
            return done(UNBOUNDED, it)

        if t_best <= 1e-12:
            stall += 1
            if stall >= STALL_LIMIT:
                bland = True
        else:
            stall = 0

        if leave < 0:
            # bound flip of the entering variable
            status[j] = AT_UPPER if direction > 0 else AT_LOWER
            x[j] = xN[j] = ub[j] if direction > 0 else lb[j]
            sgn[j] = -direction
        else:
            # the leaving variable stops at the bound it violated, else at
            # the one it ran to
            exchange(leave, j, bool(above[leave] or (up[leave] and not below[leave])), w)

    return done(ITERATION_LIMIT, iteration_limit)


def solve_lp(model, basis_hint=None, deadline=None, carry=None):
    """Solve the model as an LP, binary flags ignored (the binary
    relaxation); duals and reduced costs come from the terminal basis.
    Given ``carry``, the ``CarriedLp`` whose model this is, the solve runs
    on it from its start state and leaves the terminal one on it; else on
    a new carry of the model that starts from ``basis_hint``."""
    if len(model.variables) == 0:
        raise SolverError("model has no variables")
    return (carry or CarriedLp(model, basis_hint)).solve(deadline)


def kkt_report(model, sol):
    """Primal/dual feasibility, complementary slackness and duality-gap
    residuals for an Optimal solution; assertable from returned values. A
    column within FEAS_TOL of a bound counts as at that bound."""
    A, b, c, lb, ub, n = standard_form(model)
    A, lb, ub = A[:, :n], lb[:n], ub[:n]
    x = sol.primal
    y = sol.duals
    d = c[:n] - A.T @ y
    has_lb, has_ub = lb > -INF, ub < INF

    def top(*values):
        return max(0.0, *(float(v.max(initial=0.0)) for v in values))

    sense = np.array([row.sense for row in model.rows])
    le, ge = sense == SENSE_LE, sense == SENSE_GE
    res = A @ x - b
    primal = top(np.where(has_lb, lb - x, 0.0), np.where(has_ub, x - ub, 0.0),
                 np.where(le, res, np.where(ge, -res, np.abs(res))))
    # a binding <= row has a dual >= 0, a binding >= row one <= 0
    row_dual = np.where(le, -y, np.where(ge, y, 0.0))
    row_comp = np.abs(y * np.where(le, np.minimum(res, 0.0),
                                   np.where(ge, np.maximum(res, 0.0), 0.0)))

    at_lb = has_lb & (np.abs(x - lb) <= FEAS_TOL)
    at_ub = has_ub & (np.abs(x - ub) <= FEAS_TOL)
    interior = (~has_lb | (x > lb + FEAS_TOL)) & (~has_ub | (x < ub - FEAS_TOL))
    col_dual = np.where(interior, np.abs(d), np.where(at_ub & ~at_lb, -d,
                                                      np.where(at_lb & ~at_ub, d, 0.0)))
    # reduced costs pointing at an infinite bound are dual infeasibilities,
    # not contributions to the dual objective
    up, down = d > 0.0, d < 0.0
    unbounded = np.where(up & ~has_ub, d, np.where(down & ~has_lb, -d, 0.0))
    dual_obj = (float(y @ b) + float(d[up & has_ub] @ ub[up & has_ub])
                + float(d[down & has_lb] @ lb[down & has_lb]))
    dual = top(row_dual, col_dual, unbounded)
    comp = top(row_comp,
               np.abs(np.maximum(d, 0.0) * (np.where(has_ub, ub, x) - x)),
               np.abs(np.minimum(d, 0.0) * (x - np.where(has_lb, lb, x))))
    gap = abs(sol.objective - dual_obj) / max(1.0, abs(sol.objective))
    return {"primal": primal, "dual": dual, "complementarity": comp, "gap": gap}


def fix_binaries(model, values):
    """Pin binary variables to an integral assignment and clear the flags,
    on a shallow copy of the model that owns new variables and shares the
    rows, objective, cones and maps."""
    out = copy.copy(model)
    out.variables = [Variable(v.name, v.lb, v.ub) for v in model.variables]
    for j, val in values.items():
        v = model.variables[j]
        if not v.binary:
            raise SolverError(f"variable {v.name} is not binary")
        if abs(val - round(val)) > INT_TOL:
            raise SolverError(f"non-integral value {val} for {v.name}")
        out.variables[j].lb = out.variables[j].ub = float(round(val))
    return out


def solve_milp(model, deadline=None, carry=None):
    """Best-bound branch-and-bound over the binary variables.

    A node is a shallow copy of ``carry``, a ``CarriedLp`` of the model
    (else of a new one): it shares the standard form, owns copies of its
    parent's bounds with one binary fixed, and starts from its parent's
    terminal statuses and factor; the root starts from the carry's.
    Branching: most-fractional binary, ties to the lowest variable index.
    The incumbent node's terminal statuses and factor are left on the
    carry. The search stops when the best open node is within MILP_GAP of
    the incumbent, when no node is open, or when ``deadline``, a
    ``time.perf_counter()`` value checked before each node and inside each
    node's LP, has passed (status TimeLimit; the node it cut short stays
    open). Deterministic given identical input.
    """
    carry = carry or CarriedLp(model)
    root = copy.copy(carry)
    root.lb, root.ub = carry.lb.copy(), carry.ub.copy()
    bins = np.array(model.binary_indices(), dtype=int)
    root.lb[bins] = np.maximum(root.lb[bins], 0.0)
    root.ub[bins] = np.minimum(root.ub[bins], 1.0)
    best = incumbent = None  # the incumbent's LpSolution and node
    dropped = -INF       # highest bound of a node dropped within the gap
    nodes = iterations = seq = 0

    def closed(bound):
        """No node of this bound can beat the incumbent by over MILP_GAP."""
        return best is not None and (
            bound - best.objective <= MILP_GAP * max(1.0, abs(best.objective)))

    heap = [(-INF, seq, root)]  # open nodes: (-bound, seq, node); the root's bound is unknown
    status = None  # TimeLimit once the deadline stops the search
    while heap and not closed(-heap[0][0]):
        if deadline is not None and time.perf_counter() > deadline:
            status = TIME_LIMIT
            break
        nodes += 1
        if nodes > NODE_LIMIT:
            raise SolverError(f"node limit {NODE_LIMIT} exceeded")
        node = heap[0][2]
        sol = node.solve(deadline)
        iterations += sol.iterations
        if sol.status == TIME_LIMIT:
            status = TIME_LIMIT
            break
        heapq.heappop(heap)
        if sol.status != OPTIMAL:
            continue
        if closed(sol.objective):
            dropped = max(dropped, sol.objective)
            continue
        x = sol.primal[bins]
        frac = np.minimum(x - np.floor(x), np.ceil(x) - x)
        if frac.max(initial=0.0) <= INT_TOL:  # beats the incumbent, as not closed
            sol.primal[bins] = np.round(x)
            best, incumbent = sol, node
            continue
        j = bins[frac.argmax()]
        for val in (0.0, 1.0):
            child = copy.copy(node)
            child.lb, child.ub = node.lb.copy(), node.ub.copy()
            child.lb[j] = child.ub[j] = val
            seq += 1
            heapq.heappush(heap, (-sol.objective, seq, child))

    if incumbent is not None:
        carry.status, carry.factor = incumbent.status, incumbent.factor
    status = status or (INFEASIBLE if best is None else OPTIMAL)
    best = best or LpSolution(status, None, None, None, -INF)  # no incumbent
    bound = max(dropped, -heap[0][0] if heap else -INF, best.objective)
    return MilpSolution(status, best.primal, best.objective, bound, nodes, iterations)
