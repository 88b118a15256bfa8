"""Revised bounded-variable simplex, a dual phase on shifted costs then a
primal clean-up, with dual extraction, plus a best-bound branch-and-bound
for the mixed-binary welfare problems.

The simplex works on the standard form max c'x s.t. Ax = b, l <= x <= u
obtained by appending one slack per row (slack bounds encode the sense).
It keeps an explicit basis inverse: each pivot applies a product-form
rank-1 update, and the inverse is taken afresh every REFACTOR_INTERVAL
updates. A fresh inverse inverts only the basis kernel (``basis_inverse``,
Bixby 1992): the rows whose slacks are not basic, on the basic structural
columns, about half of the rows on the generated cases; the rest of B^-1
is that inverse times a block of A, and I. A verdict reached on an
updated inverse is checked by its residuals instead: an Optimal one by
max|Ax - b| against FEAS_TOL and max|yB - c_B| against OPT_TOL, an
Infeasible one by max|Ax - b| alone. Only a failed check takes a fresh
inverse and prices again. A basis found singular at a refactorization
sends its dependent columns nonbasic and gives their rows their slacks
(``repair_basis``), and the solve goes on in the dual phase, which repairs
what that moves. Across pivots the iteration keeps the state a pivot
changes in one or two entries: the nonbasic values with the basic ones
zeroed; the basic columns' bounds; a pricing sign per column (+1 at a
lower bound, -1 at an upper one, 0 if basic or fixed); and the nonbasic
free columns. One rule (``place``) sets a column nonbasic at a bound, for
the leaving column of an exchange and for a bound flip alike. It rebuilds
that state only at the start and after a ``repair_basis``. The clean-up's
pivot rules are those of the textbook primal iteration: the entering
column has the largest reduced cost times its sign (|d| if free), or under
Bland's rule the first one above OPT_TOL; the ratio test runs over every
basic row, where an infinite bound gives an infinite ratio. Bland's rule
engages after STALL_LIMIT degenerate pivots in a row, which guarantees
termination (e.g. on the Beale cycling example). Duals come straight out
of the terminal basis, signed so that for a maximization model the dual
of a binding <= row is nonnegative. The row slacks come
with them (``LpSolution.slacks``): b - Ax in the model's units, a basic
one computed through the inverse and a nonbasic one exactly 0, its bound.
So no caller reads the form to find which rows bind.

No product of an iteration multiplies the slack block, which is I: every
nonbasic slack sits at exactly 0, since each slack's finite bound is 0 and
its other bound is infinite or 0 too. So A x_N runs over the structural
columns A[:, :n], y A and a row of B^-1 A take their slack part as y and
the row itself, B^-1 a_j of a slack column is a column of B^-1, and the
verdict's residual Ax - b is A[:, :n] x[:n] + x[n:] - b. A product
over A[:, :n] may sum its terms in another order than one over all of A,
and differ from it in the last bits. That is no fault: the contract of
this layer is each LP's answer (its status, and for an optimum the
objective and the KKT residuals, against an independent solver: the
answer ladder, ``tests/ladder.py``), and byte parity of artifacts with an
earlier tree is a report.

Every solve starts in the dual phase, the one route to primal
feasibility: a bounded dual simplex (Koberstein & Suhl 2007) on the same
inverse and per-basis state, which shares the clean-up's basis exchange.
It prices costs of its own, the true ones shifted: wherever a score lies
above OPT_TOL (the wrong sign for a dual simplex), at the start, after a
refactorization (one that repaired the basis too) or after a pivot that
let it drift, that column's cost moves by just enough to make its reduced
cost 0 (dual phase 1 by cost modification: Koberstein 2005, PhD thesis,
Paderborn; Huangfu & Hall 2018). So it needs no dual-feasible start. It
prices afresh only at its start and after a refactorization; each pivot
moves the duals, the reduced costs and the basic values along it instead
(y += theta_d rho_r, d -= theta_d alpha, x_B -= theta_p w), and the
scores follow from d. The leaving row has the largest violation squared
over the squared norm of its row of the inverse (dual steepest edge,
Forrest & Goldfarb 1992, with exact norms); the entering column comes from
Harris' two-pass ratio test over that row of B^-1 A, with OPT_TOL as the
first pass's slack and ties to the largest |alpha|; only nonbasic columns
that are not fixed may enter, a free one in either direction. After
STALL_LIMIT degenerate dual pivots in a row it perturbs: each nonbasic
column at a bound that is not fixed has its cost moved toward dual
feasibility by OPT_TOL (1 + |c_j|) times a factor in [1, 2) fixed per
column, which guards it against cycling. A row that no column can repair
is a dual ray: if that row's violation exceeds FEAS_TOL it proves the LP
Infeasible, once the residual check passes; within FEAS_TOL it gives way
to the next row in the order. The dual phase ends once every basic value
is within DUAL_STOP_TOL of its bounds, or only such rows are left.
DUAL_STOP_TOL sits far below FEAS_TOL because a nearly degenerate LP left
with a cut slack basic at -1e-8 is at another vertex, whose prices can
differ from the optimum's by 0.025 $/MWh. Stopped there by the deadline,
the solve returns the y and d of the shifted costs.

Then the clean-up, a primal loop, restores the true costs and prices
afresh at each iteration, so each verdict, and its residual check, reads
a fresh pricing. The basis it starts from is primal feasible, so it runs
phase 2 only, and its only verdicts are Optimal and Unbounded. It pivots
only where a shift or a perturbation left a score above OPT_TOL: a start
that needs no shift, in a dual phase that never perturbs, leaves it none.
A refactorization that repairs a singular basis sends the solve back to
the dual phase.

A cold start prices the crash basis once and starts each column with two
finite bounds at the bound its reduced cost prefers; the crash takes the
free columns in, so that start is dual feasible and needs no shift (on
every cold LP of the generated 4-bus CP/CH and 12-bus DC/IP cases). The
same placement on a warm outage's stored basis raised its first LP's
pivots (226 to 417 over 18 outages), so a hint keeps its own statuses.

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
and the form is always its model's. ``solve_milp`` solves the root on its
carry itself and each other node on a shallow copy of its parent, which
shares the form, owns copies of its parent's bounds with one binary
fixed, and starts from its parent's statuses and factor; the incumbent
node's are left on the carry, from which the fixed-binary LP starts. So
only a solve whose carry holds no factor inverts its start basis, and the
updates since the last fresh inverse count on across solves. No
``LpSolution`` or ``MilpSolution`` holds a carry. The dual phase repairs
the primal infeasibility that new rows or changed bounds create. A solve that starts from a
carried factor takes the carry's statuses as already placed, and only
sets each nonbasic column at its bound: they are the last solve's
terminal statuses, the basic slacks ``edit_rows`` appends, and the pins
of ``fix_binaries`` or of a branch, which lie inside their bounds. Only
statuses from outside go through ``_start``: a hint (a cut store's stored
basis among them) and the statuses of a basis found singular at a
refactorization. One rule serves them all: statuses over the form are
repaired to a basis (``repair_basis``, which returns a usable one
unchanged), and only a solve without them, or with statuses of another
length, starts cold, from the crash basis (``crash``), whose inverse is
taken once. Either way each nonbasic column starts at its upper bound if
the statuses ask for it and that bound is finite, else at a finite
bound, lower first, else free at zero: the one placement rule
(``_at_bound``), which a carried start's statuses already obey. A cold
start asks for the upper bound where the crash basis prices a column's
reduced cost positive. A fixed structural column (lb == ub) is reported
at its bound, where a basic one's value, computed through the inverse,
can be an ulp off. A MILP's ``bound`` is the largest of the incumbent's
objective, every open node's bound and every node dropped within MILP_GAP
of the incumbent.

``crash`` is the initial-basis crash of Bixby (1992, "Implementing the
simplex method: the initial basis"): it walks the free columns, then
those that straddle zero, then the other columns that are not fixed, and
gives each open equality row a structural column in place of its fixed
slack. A taken column closes every row it touches, so the crashed block is
triangular and the basis nonsingular. It brings in free flows and defined
columns that the simplex would otherwise pivot in one by one, and about halves
the first LP's pivots on the generated cases. Only a cold start computes
it: a carried start, a hint and a stored basis never do.

``repair_basis`` makes a usable hint of statuses that may hold too many,
too few or dependent basic columns, after the usual repair of a start
basis (Bixby 1992): it keeps the basic slacks, keeps each basic structural
column that is independent, on the rows left, of those kept before it,
sends a dependent one nonbasic, and gives the rows still uncovered their
slacks.

``simplex`` and ``solve_lp`` take a ``time.perf_counter()`` deadline, and
``simplex`` checks it at each refactorization, in the dual phase or the
clean-up, the periodic ones and the one a verdict's residual check asks
for; once it has passed the solve stops with status TimeLimit. The
iteration count ``simplex`` returns counts the iterations of both. A solve that
reaches ITERATION_FACTOR iterations per standard-form row and column
raises ``SolverError``: the cap is a fault, not a verdict, so a run ends in
an error and no branch-and-bound node is pruned as if infeasible.
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
STALL_LIMIT = 50  # degenerate pivots in a row before a perturbation, or Bland's rule
REFACTOR_INTERVAL = 50  # product-form updates between fresh inverses
ITERATION_FACTOR = 50  # simplex iteration cap: this many per standard-form row and column
NODE_LIMIT = 10**6  # branch-and-bound nodes before solve_milp gives up
MILP_GAP = 1e-6  # solve_milp: relative gap, to max(1, |incumbent|), that closes a node
DUAL_STOP_TOL = 1e-11  # dual phase: the basic bound violation it leaves to the clean-up

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"
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
    slacks: np.ndarray = None   # one per row, b - Ax; exactly 0 where nonbasic
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
    solve: statuses (a hint, which a start without a factor repairs to a
    basis, or the last solve's terminal ones) and the last solve's
    terminal factor, which ``solve`` writes back. The form is private to
    this module: callers read a solve's answer, slacks included. Only
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
                          objective=obj, slacks=x[n:], basis_status=self.status, iterations=it)

    def edit_rows(self, drop, rows):
        """Delete the rows at indices ``drop``, each with its slack basic,
        and append the model rows ``rows`` with their slacks basic.

        The carry takes a new model that holds the kept rows, then the
        appended ones, so a model handed to an earlier solve never changes.
        One mask over the columns (every structural one, the kept rows'
        slacks) and the index array of the kept rows select what stays of
        the form, the statuses and the factor. A row deleted with its slack
        basic takes the slack's row and its own column out of B^-1 exactly.
        Appended rows, whose coefficients on the basic columns are a_B,
        border it as [[B^-1, 0], [-a_B B^-1, I]] (Koberstein & Suhl 2007);
        their slack columns come last, so the basis stays in increasing
        order."""
        m, n, k = self.b.size, self.n, len(rows)
        keep = np.ones(n + m, dtype=bool)
        keep[np.add(drop, n)] = False
        kept = keep[n:].nonzero()[0]
        m_kept, m_new = kept.size, kept.size + k
        self.model = copy.copy(self.model)
        self.model.rows = [self.model.rows[i] for i in kept.tolist()] + rows
        A = np.eye(m_new, n + m_new, n)  # each row's slack
        A[:m_kept, :n] = self.A[kept, :n]
        b_new, lb_new, ub_new = _fill_rows(A[m_kept:], rows)
        self.A = A
        self.b = np.concatenate([self.b[kept], b_new])
        self.c = np.concatenate([self.c[keep], np.zeros(k)])
        self.lb = np.concatenate([self.lb[keep], lb_new])
        self.ub = np.concatenate([self.ub[keep], ub_new])
        self.status = np.concatenate([self.status[keep], np.full(k, BASIC, dtype=np.int8)])

        basis, Binv, fresh = self.factor
        stays = keep[basis]
        if basis.size - np.count_nonzero(stays) != m - m_kept:
            raise SolverError("a deleted row's slack is not basic")
        basis = (np.cumsum(keep) - 1)[basis[stays]]
        bordered = np.eye(m_new)
        bordered[:m_kept, :m_kept] = Binv[stays][:, kept]
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


def _row_times(r, As):
    """r @ A, with the structural columns As = A[:, :n]: the slack block is
    I, so its part is r itself."""
    return np.concatenate([r @ As, r])


def _column(Binv, A, j, n):
    """B^-1 A[:, j]: a slack column's is a column of B^-1 (+ 0.0 copies it
    and turns a -0.0 into the 0.0 the product gives)."""
    return Binv @ A[:, j] if j < n else Binv[:, j - n] + 0.0


def _at_bound(lb, ub, upper):
    """Nonbasic statuses: at the upper bound where ``upper`` asks for it
    and it is finite, else at a finite bound, lower first, else free."""
    up = (upper | (lb == -INF)) & (ub < INF)
    return np.where(up, AT_UPPER, np.where(lb > -INF, AT_LOWER, FREE)).astype(np.int8)


def _values(status, lb, ub):
    """Each column's value under placed statuses: its bound if at one, else
    zero (a basic column's is computed through the inverse)."""
    return np.where(status == AT_LOWER, lb, np.where(status == AT_UPPER, ub, 0.0))


def crash(A, lb, ub):
    """Statuses of the triangular crash basis (Bixby 1992), every nonbasic
    column AT_LOWER. Structural columns are taken free ones first, then
    those with lb < 0 < ub, then the others that are not fixed, each class
    in index order. A column takes the open equality row where its |a_ij|
    is largest (ties to the row with the fewest structural nonzeros, then
    the lowest), unless that entry is below 1% of its largest; the row's
    slack leaves the basis, and every row the column touches closes. So
    each row is covered by one basic column, and the crashed block is
    triangular, hence nonsingular. Inequality rows keep their slacks."""
    m, N = A.shape
    n = N - m
    cols, rows = np.nonzero(A[:, :n].T)  # by column, then row
    mag = np.abs(A[rows, cols]).tolist()
    count = np.bincount(rows, minlength=m).tolist()
    ends = np.searchsorted(cols, np.arange(n + 1)).tolist()
    rows = rows.tolist()
    is_open = (lb[n:] == ub[n:]).tolist()  # equality rows: slack fixed at 0
    l, u = lb[:n], ub[:n]
    free = (l == -INF) & (u == INF)
    order = np.argsort(np.where(free, 0, np.where((l < 0) & (u > 0), 1, 2)), kind="stable")
    status = np.full(N, AT_LOWER, dtype=np.int8)
    status[n:] = BASIC
    for j in order[(u > l)[order]].tolist():
        span = range(ends[j], ends[j + 1])
        best = max(((mag[k], -count[rows[k]], -rows[k]) for k in span if is_open[rows[k]]),
                   default=None)
        if best is None or best[0] < 0.01 * max(mag[k] for k in span):
            continue
        status[j], status[n - best[2]] = BASIC, AT_LOWER  # best[2] is -i
        for k in span:
            is_open[rows[k]] = False
    return status


def _start(hint, A, c, lb, ub):
    """Starting (status, x, basis, B^-1) from statuses from outside the
    solve: a hint over the form, repaired to a basis (``repair_basis``,
    which returns a usable one unchanged), else, without a hint or with one
    of another length, the crash basis (``crash``). Every nonbasic column
    sits at its upper bound where the hint asks for it and that bound is
    finite, else at a finite bound, lower first, else free at zero
    (``_at_bound``). A cold start prices the crash basis once and asks for
    the upper bound where a column's reduced cost is positive: so each
    column with two finite bounds starts at the bound its reduced cost
    prefers."""
    n = A.shape[1] - A.shape[0]
    fits = hint is not None and len(hint) == A.shape[1]
    hint = repair_basis(A, hint) if fits else crash(A, lb, ub)
    basis = (hint == BASIC).nonzero()[0]
    Binv = basis_inverse(A, basis)
    upper = hint == AT_UPPER
    if not fits:  # cold: each column's upper bound where its reduced cost is positive
        upper = c - _row_times(c[basis] @ Binv, A[:, :n]) > 0.0
    status = np.where(hint == BASIC, BASIC, _at_bound(lb, ub, upper)).astype(np.int8)
    return status, _values(status, lb, ub), basis, Binv


def basis_inverse(A, basis):
    """B^-1 for B = A[:, basis], from the inverse of its kernel alone
    (Bixby 1992). The basic slacks cover the rows S and the basic
    structural columns C the rows R left; so ordered, B is
    [[K, 0], [A[S, C], I]] with the kernel K = A[R, C], and B^-1 is
    [[K^-1, 0], [-A[S, C] K^-1, I]], scattered back to the basis's
    positions and the rows' order. A singular K, or one that is not
    square, raises SingularBasisError."""
    n = A.shape[1] - A.shape[0]
    slack = basis >= n
    C, S = basis[~slack], basis[slack] - n
    R = np.ones(A.shape[0], dtype=bool)
    R[S] = False
    R = R.nonzero()[0]
    try:
        Kinv = np.linalg.inv(A[np.ix_(R, C)])
    except np.linalg.LinAlgError as exc:
        raise SingularBasisError("singular basis") from exc
    Binv = np.zeros((A.shape[0],) * 2)
    at_C, at_S = (~slack).nonzero()[0], slack.nonzero()[0]
    Binv[np.ix_(at_C, R)] = Kinv
    Binv[np.ix_(at_S, R)] = -A[np.ix_(S, C)] @ Kinv
    Binv[at_S, S] = 1.0
    return Binv


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
    """A basis made from candidate statuses over the standard form with
    matrix A that may hold too many or too few basic columns, or a
    dependent set of them; a usable basis comes back unchanged.

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
    dual phase, on costs shifted where a score has the wrong sign, until
    the basis is primal feasible or a dual ray on a row violated by more
    than FEAS_TOL proves the LP Infeasible, then the clean-up, a primal
    loop on the true costs that prices at each iteration. The dual phase prices afresh
    only at its start and after a refactorization; a refactorization that
    repairs a singular basis sends the solve back to it. The last m
    columns of A are the slacks, whose block is I. Without a usable
    ``basis_hint`` the solve starts cold, from the crash basis
    (``crash``). Returns (status, x, y, d, status_arr, factor, iterations)
    over the standard form; ``factor`` is the terminal (basis, inverse,
    updates since it was last inverted afresh), basis in increasing order.
    Given a ``factor`` of the hint's basic columns, the solve starts from a
    copy of it instead of inverting, and takes the hint's statuses as
    placed, as a carried start's are (module docstring). ``deadline``, a
    ``time.perf_counter()`` value, is checked at each refactorization;
    stopped inside the dual phase, y and d are those of the shifted costs.
    ``iterations`` counts those of both phases; reaching the iteration cap
    raises ``SolverError``."""
    m, N = A.shape
    n = N - m
    As = A[:, :n]  # no product multiplies the slack block (module docstring)
    iteration_limit = ITERATION_FACTOR * (m + N)
    fixed = (ub - lb) <= 0.0
    cost = c.copy()  # the dual phase's costs: c, shifted and perturbed
    dual = True  # the dual phase, else the clean-up

    def load():
        """The state a pivot changes in one or two entries: the nonbasic
        values with the basic ones zeroed, each column's pricing sign (+1
        at a lower bound, -1 at an upper one, 0 if basic, free or fixed),
        the nonbasic free columns, and the basic columns' bounds."""
        xN = x.copy()
        xN[basis] = 0.0
        sgn = np.array([1.0, -1.0, 0.0, 0.0])[status]  # AT_LOWER, AT_UPPER, BASIC, FREE
        sgn[fixed] = 0.0
        return xN, sgn, (status == FREE).nonzero()[0], lb[basis], ub[basis]

    def price():
        """Basic values, duals, reduced costs and scores (``scores``): in
        the dual phase of the shifted costs, in the clean-up of the true
        ones."""
        xB = Binv @ (b - As @ xN[:n])
        x[basis] = xB
        costs = cost if dual else c
        y = costs[basis] @ Binv
        d = costs - _row_times(y, As)
        return xB, y, d, scores(d)

    def scores(d):
        """Each column's reduced cost times its pricing sign, |d| if free;
        a column improves iff its score exceeds OPT_TOL. In the dual phase
        such a score has the wrong sign: the column's cost is shifted so
        that its reduced cost, and its score, are 0. Only nonbasic columns
        have a score."""
        score = d * sgn
        if free.size:
            score[free] = np.abs(d[free])
        if dual and score.max() > OPT_TOL:
            wrong = (score > OPT_TOL).nonzero()[0]
            cost[wrong] -= d[wrong]
            d[wrong] = score[wrong] = 0.0
        return score

    def residual():
        """The verdicts' primal residual max|Ax - b|."""
        return np.abs(As @ x[:n] + x[n:] - b).max(initial=0.0)

    def done(verdict, it):
        order = np.argsort(basis)
        return verdict, x, y, d, status, (basis[order], Binv[order], fresh), it

    def place(j, upper):
        """Nonbasic column j at its upper bound if ``upper``, else at its
        lower one: its status, its value and its pricing sign."""
        status[j] = AT_UPPER if upper else AT_LOWER
        x[j] = xN[j] = ub[j] if upper else lb[j]
        sgn[j] = 0.0 if fixed[j] else (-1.0 if upper else 1.0)

    def exchange(leave, j, upper, w):
        """Column j enters the basis at row ``leave``, whose column leaves
        at its upper bound if ``upper``, else at its lower one; ``w`` is
        B^-1 A[:, j]. Price recomputes every basic value from the nonbasic
        ones."""
        nonlocal Binv, fresh, free
        place(basis[leave], upper)
        if status[j] == FREE:  # a basic free column never leaves
            free = free[free != j]
        basis[leave] = j
        status[j] = BASIC
        xN[j] = sgn[j] = 0.0
        lB[leave], uB[leave] = lb[j], ub[j]
        # product-form update: B_new^-1 = E B^-1 with the eta column of w
        pivot_row = Binv[leave] / w[leave]
        Binv -= np.einsum("i,j->ij", w, pivot_row, out=update)
        Binv[leave] = pivot_row
        fresh += 1

    if factor is not None:  # a carried start, whose statuses are placed
        status = np.array(basis_hint, dtype=np.int8)
        x = _values(status, lb, ub)
        basis, Binv, fresh = factor[0].copy(), factor[1].copy(), factor[2]
    else:  # statuses from outside, repaired by _start
        status, x, basis, Binv = _start(basis_hint, A, c, lb, ub)
        fresh = 0  # pivots applied since Binv was inverted
    xN, sgn, free, lB, uB = load()
    update = np.empty((m, m))  # each pivot's rank-1 term, written in place

    def refresh():
        """A fresh inverse, the periodic one or the one a verdict's
        residual check asks for, and a fresh pricing of it; False instead
        once the deadline has passed, and the solve stops with TimeLimit.
        Pivots on a drifted inverse can make the basis singular: then
        ``_start`` repairs it as it does any outside start (its dependent
        columns go nonbasic, their rows get their slacks), and the solve
        goes back to the dual phase."""
        nonlocal status, x, basis, Binv, fresh, xN, sgn, free, lB, uB, dual, xB, y, d, score
        if deadline is not None and time.perf_counter() > deadline:
            return False
        try:
            Binv = basis_inverse(A, basis)
        except SingularBasisError:
            status, x, basis, Binv = _start(status, A, c, lb, ub)
            xN, sgn, free, lB, uB = load()
            dual = True
        fresh = 0
        xB, y, d, score = price()
        return True

    # One loop, in two modes (module docstring). The dual phase prices at
    # its start and after a refactorization, and moves y, d and x_B along
    # each pivot in between; the clean-up prices at each iteration, so each
    # of its verdicts, and its residual check, reads a fresh pricing.
    xB, y, d, score = price()
    it = 1  # the iteration in progress, over both modes
    stall = 0
    bland = False
    while it <= iteration_limit:
        if fresh >= REFACTOR_INTERVAL and not refresh():
            return done(TIME_LIMIT, it)
        if dual:
            # leaving row by dual steepest edge: the largest violation
            # squared over the squared norm of its row of the inverse, the
            # rows taken in that order
            violation = np.maximum(lB - xB, xB - uB)
            rows = (violation > DUAL_STOP_TOL).nonzero()[0]
            R, v = Binv[rows], violation[rows]
            key = v * v / np.einsum("ij,ij->i", R, R)
            for _ in rows:
                k = int(key.argmax())
                leave, key[k] = int(rows[k]), -1.0
                upper = bool(xB[leave] > uB[leave])
                # x[basis[leave]] falls by alpha[j] per unit that column j
                # rises: j may enter iff moving it off its bound (either
                # way if free) pushes x[basis[leave]] toward the bound it
                # violates
                alpha = _row_times(Binv[leave], As)
                push = alpha * sgn if upper else -alpha * sgn
                if free.size:
                    push[free] = np.abs(alpha[free])
                cols = (push > PIVOT_TOL).nonzero()[0]
                # a row no column can repair (a dual ray) gives way to the
                # next if its violation is within FEAS_TOL
                if cols.size or violation[leave] > FEAS_TOL:
                    break
            else:  # primal feasible: the clean-up takes over
                dual, stall = False, 0
        if dual and not cols.size:  # a dual ray: the LP is infeasible
            x[basis] = xB
            if fresh and residual() > FEAS_TOL:  # a drifted inverse: take it afresh first
                if not refresh():
                    return done(TIME_LIMIT, it)
                continue
            return done(INFEASIBLE, it)
        if dual:
            if stall >= STALL_LIMIT:
                # perturb: move every movable nonbasic cost toward dual
                # feasibility, by factors that the golden ratio's
                # multiples spread over [1, 2)
                spread = 1.0 + np.arange(N) * 0.6180339887 % 1.0
                move = sgn * OPT_TOL * (1.0 + np.abs(c)) * spread
                cost -= move
                d -= move
                score = scores(d)
                stall = 0
            # Harris' two passes: the largest dual step that leaves no
            # score above OPT_TOL, then the largest |alpha| within it
            slack, mag = -score[cols], push[cols]
            within = slack <= ((slack + OPT_TOL) / mag).min() * mag
            k = int(np.where(within, mag, -1.0).argmax())
            stall = stall + 1 if slack[k] <= 1e-12 * mag[k] else 0
            j = int(cols[k])
            # the duals and basic values move along the pivot (Koberstein &
            # Suhl 2007) instead of being priced afresh: rho = Binv[leave]
            # before the exchange, alpha its row of B^-1 A, w = B^-1 A[:, j]
            w = _column(Binv, A, j, n)
            step = d[j] / alpha[j]
            y += step * Binv[leave]
            d -= step * alpha
            d[j] = 0.0
            step = (xB[leave] - (uB[leave] if upper else lB[leave])) / w[leave]
            xB -= step * w
            xB[leave] = x[j] + step
            exchange(leave, j, upper, w)
            score = scores(d)  # shifts a score that drifted past OPT_TOL
            it += 1
            continue

        xB, y, d, score = price()
        j = int(score.argmax())
        if score[j] <= OPT_TOL:
            if fresh and (residual() > FEAS_TOL or np.abs(d[basis]).max(initial=0.0) > OPT_TOL):
                # the verdict's residuals, max|Ax - b| and max|yB - c_B|,
                # show a drifted inverse: take it afresh and price again
                if not refresh():
                    return done(TIME_LIMIT, it)
                continue
            return done(OPTIMAL, it)
        if bland:
            j = int((score > OPT_TOL).argmax())
        direction = 1.0 if (status[j] == AT_LOWER or
                            (status[j] == FREE and d[j] > 0)) else -1.0

        w = _column(Binv, A, j, n)
        delta = -w if direction > 0 else w  # rate of change of x[basis] per unit step

        # ratio test: each basic variable runs toward the bound it meets;
        # an infinite bound gives an infinite ratio
        up = delta > 0.0
        ratios = np.full(m, INF)
        np.divide(np.where(up, uB, lB) - xB, delta, out=ratios, where=np.abs(delta) > PIVOT_TOL)
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
            return done(UNBOUNDED, it)
        # Bland's rule from the STALL_LIMIT-th degenerate pivot in a row on
        stall = stall + 1 if t_best <= 1e-12 else 0
        bland = bland or stall >= STALL_LIMIT
        if leave < 0:
            place(j, direction > 0)  # bound flip of the entering variable
        else:
            exchange(leave, j, bool(up[leave]), w)  # at the bound it ran to
        it += 1

    raise SolverError(f"iteration limit {iteration_limit} reached")


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

    The root is ``carry``, a ``CarriedLp`` of the model (else a new one),
    as it stands: ``ModelIR.add_var`` keeps every binary's bounds inside
    [0, 1]. Each other node is a shallow copy of its parent: it shares the
    standard form, owns copies of its parent's bounds with one binary
    fixed, and starts from its parent's terminal statuses and factor.
    Branching: most-fractional binary, ties to the lowest variable index.
    The incumbent node's terminal statuses and factor are left on the
    carry. The search stops when the best open node is within MILP_GAP of
    the incumbent, when no node is open, or when ``deadline``, a
    ``time.perf_counter()`` value checked before each node and inside each
    node's LP, has passed (status TimeLimit; the node it cut short stays
    open). Deterministic given identical input.
    """
    carry = carry or CarriedLp(model)
    bins = np.array(model.binary_indices(), dtype=int)
    best = incumbent = None  # the incumbent's LpSolution and node
    dropped = -INF       # highest bound of a node dropped within the gap
    nodes = iterations = seq = 0

    def closed(bound):
        """No node of this bound can beat the incumbent by over MILP_GAP."""
        return best is not None and (
            bound - best.objective <= MILP_GAP * max(1.0, abs(best.objective)))

    heap = [(-INF, seq, carry)]  # open nodes: (-bound, seq, node); the root's bound is unknown
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
