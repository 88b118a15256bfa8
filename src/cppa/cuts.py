"""Cone violation scoring, maximum-distance separating hyperplanes, and
the cut pool (selection, parallelism filtering, aging, persistence).

Every registered cone is handled in its 3- or 4-dimensional SOC rewrite
x^2 + y^2 <= wz  <=>  ||(2x, 2y, w-z)|| <= w+z; the deepest separating
hyperplane for a violated point (x', s') is (x')^T x <= ||x'|| s, mapped
back to model variables. Cut coefficients stay in model (p.u.) scale; a
cut's unit normal serves only the parallelism test, and lives only in the
pool's array of normals. Cut stores ("cppa-cuts-v1") are read and written
by ``netio.CUT_SCHEMA``, and a malformed one raises ``CutError``.

The arithmetic runs on arrays, one row per cone or cut. A ``ConeTable``,
built once per model, holds each cone's role columns, multiplier, kind and
key (its branch and kind). One cut round is a fixed number of numpy calls
however many cones there are: every cone's violation, the selection, the
deepest cut of each cone selected and its unit normal, and the parallel
test against the pool's normals of the same cone. The pool keeps its cuts'
keys and unit normals as arrays aligned with ``cuts``, and makes ``Cut``
objects only of the cuts it admits; a ``Cut`` holds no normal. The pool
takes the normals of cuts it did not cut itself (at its construction, as
``load_cuts`` builds it, after ``cuts`` changed from outside, and in
``admit``) from their coefficient rows (``_cut_normals``). A cone gives at
most one cut a round and the parallel test compares cuts of one cone
only, so the cuts of one round never decide each other's admission, and
the batch admits what one cut at a time would. ``cone_violation``,
``soc_point``, ``max_distance_cut``, ``select_cuts`` and ``CutPool.admit``
run the same arithmetic on one cone or cut.

A pool carries the statuses its run's cut loop ended with: ``basis`` maps
each base-model variable and row name to its simplex status, and each cut
holds its slack's ``status`` (basic for a cut admitted after the last
solve). Cuts age by their rows' slacks in the solved LP. A store
keeps both as optional fields; a store without the basis starts the next
run's first LP cold, and a stored cut without a status reads as basic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress
from types import SimpleNamespace

import numpy as np

from . import netio, solver
from .model import CURRENT_FROM, CURRENT_TO, JABR, Row, SENSE_LE

EPS_VIOL = 1e-5
EPS_PAR = 1e-5
T_AGE = 5
TIGHT_TOL = 1e-6  # a cut whose slack is at most this is tight

# fixed coefficient ordering per cone kind, used for unit normals and the
# portable (role, value) serialization
ROLE_ORDER = {
    JABR: ("c", "s", "v2_from", "v2_to"),
    CURRENT_FROM: ("P_from", "Q_from", "v2_from"),
    CURRENT_TO: ("P_to", "Q_to", "v2_to"),
}
KINDS = tuple(ROLE_ORDER)
WIDTH = 4  # coefficients in a cut's array row; a current cut's fourth is 0
# each cone kind's roles in a ConeDescriptor, in the order of its table row;
# a current cone repeats v2 to fill the row
CONE_ROLES = {JABR: ("c", "s", "v2_from", "v2_to"),
              CURRENT_FROM: ("P", "Q", "v2", "v2"), CURRENT_TO: ("P", "Q", "v2", "v2")}


class CutError(ValueError):
    pass


class DegenerateCutError(CutError):
    """Separation attempted at the cone apex (zero-norm SOC vector)."""


def cone_key(branch_id, kind):
    """One integer per cone: its branch and its kind."""
    return branch_id * len(KINDS) + KINDS.index(kind)


def unit_normals(V):
    """Each coefficient row over its Euclidean norm; a zero row is no cut."""
    norm = np.sqrt(np.einsum("ij,ij->i", V, V))
    if not norm.all():
        raise CutError("cut with zero coefficient vector")
    return V / norm[:, None]


def _parallel(keys, normals, pool_keys, pool_normals, eps_par):
    """Which of the candidate cuts (keys, padded unit normals) a pooled cut
    of the same cone is nearly parallel to: cosine similarity of unit
    normals >= 1 - eps_par."""
    i, j = (keys[:, None] == pool_keys).nonzero()
    out = np.zeros(keys.size, dtype=bool)
    out[i[np.einsum("ij,ij->i", normals[i], pool_normals[j]) >= 1.0 - eps_par]] = True
    return out


def _ranked(viol, index, eps_viol, rho):
    """Positions of the violations above eps_viol, by violation descending,
    ties to the lower index, cut to the first ceil(rho * count)."""
    eligible = (viol > eps_viol).nonzero()[0]
    order = eligible[np.lexsort((index[eligible], -viol[eligible]))]
    return order[:math.ceil(rho * eligible.size)]


@dataclass
class Cut:
    coefficients: dict          # role -> coefficient
    rhs: float
    branch_id: int
    cone_kind: str
    birth_round: int = 0
    last_tight_round: int = 0
    status: int = solver.BASIC  # its slack's status when the pool's loop ended

    @property
    def key(self):
        return cone_key(self.branch_id, self.cone_kind)

    def to_row(self, model):
        """Bind to a model over the same case: role tags -> variable ids."""
        if self.branch_id not in model.branch_vars:
            raise CutError(f"cut references unknown branch {self.branch_id}")
        roles = model.branch_vars[self.branch_id]
        coeffs = {}
        for role, coeff in self.coefficients.items():
            if role not in roles:
                raise CutError(
                    f"cut for branch {self.branch_id}: role {role!r} "
                    "not present in model")
            coeffs[roles[role]] = coeff
        name = f"cut_{self.cone_kind}_b{self.branch_id}_r{self.birth_round}"
        return Row(name, coeffs, SENSE_LE, self.rhs)


class ConeTable:
    """A model's cones as arrays, built once per model: each cone's role
    columns in a row of ``cols`` (in CONE_ROLES order), its multiplier,
    whether it is a Jabr cone, and its key."""

    def __init__(self, cones):
        self.cones = cones
        self.cols = np.array([[c.vars[r] for r in CONE_ROLES[c.kind]] for c in cones],
                             dtype=np.intp).reshape(-1, WIDTH)
        self.mu = np.array([c.multiplier for c in cones], dtype=float)
        self.jabr = np.array([c.kind == JABR for c in cones], dtype=bool)
        self.keys = np.array([cone_key(c.branch_id, c.kind) for c in cones], dtype=np.int64)
        self.index = np.arange(len(cones))

    def violations(self, primal):
        """Each cone's quadratic-form violation at the point; positive =
        violated: c^2 + s^2 - v2_from v2_to, or P^2 + Q^2 - mu v2."""
        X = primal[self.cols]
        return X[:, 0] ** 2 + X[:, 1] ** 2 - np.where(
            self.jabr, X[:, 2] * X[:, 3], self.mu * X[:, 2])

    def select(self, primal, eps_viol=EPS_VIOL, rho=1.0):
        """The cones to cut this round, as ``select_cuts`` ranks them."""
        return _ranked(self.violations(primal), self.index, eps_viol, rho)

    def soc_points(self, primal, sel):
        """The selected cones' role values, and the x' of their SOC
        rewrites, one row each: (2c, 2s, w - z), or (2P, 2Q, mu v2 - 1)."""
        X = primal[self.cols[sel]]
        xv = 2.0 * X[:, :3]
        xv[:, 2] = np.where(self.jabr[sel], X[:, 2] - X[:, 3], self.mu[sel] * X[:, 2] - 1.0)
        return X, xv

    def deepest_cuts(self, primal, sel):
        """The deepest separating hyperplane of each selected cone:
        coefficient rows in ROLE_ORDER (a current cut's padded with 0), the
        right-hand sides, and a mask of the cones at their apex, whose rows
        are no cut. With n = ||x'||: (4c, 4s, w - z - n, z - w - n) <= 0,
        or (4P, 4Q, mu (mu v2 - 1 - n)) <= mu v2 - 1 + n."""
        X, xv = self.soc_points(primal, sel)
        norm = np.sqrt(np.einsum("ij,ij->i", xv, xv))
        jabr, last = self.jabr[sel], xv[:, 2]
        V = 4.0 * X
        V[:, 2] = np.where(jabr, last - norm, self.mu[sel] * (last - norm))
        V[:, 3] = np.where(jabr, -last - norm, 0.0)
        return V, np.where(jabr, 0.0, last + norm), norm < 1e-12

    def cut(self, i, values, rhs, round_no):
        """The Cut of cone i with the coefficient row ``values``."""
        cone = self.cones[i]
        return Cut(dict(zip(ROLE_ORDER[cone.kind], values)), rhs, cone.branch_id, cone.kind,
                   round_no, round_no)


def cone_violation(primal, cone):
    """Quadratic-form violation of one registered cone; positive = violated."""
    return ConeTable([cone]).violations(primal)[0]


def soc_point(primal, cone):
    """(x', s') of the SOC rewrite at the given point: s' is w + z, or
    mu v2 + 1."""
    table = ConeTable([cone])
    X, xv = table.soc_points(primal, [0])
    s = np.where(table.jabr, X[:, 2] + X[:, 3], table.mu * X[:, 2] + 1.0)
    return xv[0].copy(), s[0]


def max_distance_cut(primal, cone, round_no=0, eps_viol=EPS_VIOL):
    """Deepest separating hyperplane for a point violating the cone."""
    table = ConeTable([cone])
    if table.violations(primal)[0] <= eps_viol:
        raise CutError("no cut for a satisfied cone")
    V, rhs, apex = table.deepest_cuts(primal, [0])
    if apex[0]:
        raise DegenerateCutError("separation at the cone apex")
    return table.cut(0, V[0].tolist(), float(rhs[0]), round_no)


def select_cuts(violations, eps_viol=EPS_VIOL, rho=1.0, k_max=None):
    """Keep violations above threshold, sorted descending with cone-index
    tie-break; return the top fraction rho, capped at k_max per round.

    ``violations`` is a list of (cone_index, cone, violation).
    """
    keep = _ranked(np.array([t[2] for t in violations], dtype=float),
                   np.array([t[0] for t in violations], dtype=np.int64), eps_viol, rho)
    return [violations[i] for i in keep[:k_max]]


def _cut_normals(cuts):
    """The cuts' unit normals, from their coefficient rows in ROLE_ORDER
    padded to WIDTH (a current cut's with a trailing 0)."""
    rows = [[cut.coefficients.get(r, 0.0) for r in ROLE_ORDER[cut.cone_kind]] for cut in cuts]
    return unit_normals(np.array([row + [0.0] * (WIDTH - len(row)) for row in rows])
                        .reshape(-1, WIDTH))


@dataclass
class CutPool:
    """Active cuts plus per-round admission/drop statistics, and the
    terminal statuses of the base model's columns and rows by name.

    The active cuts' cone keys and padded unit normals are kept as arrays
    aligned with ``cuts``, the normals flat. They are built with the pool,
    which so refuses a cut of all-zero coefficients, follow ``admit``,
    ``admit_cones`` and ``prune_aged``, and are rebuilt when ``cuts`` was
    replaced or grown from outside. ``kept`` masks the cuts the last
    ``prune_aged`` kept, over the cuts it found."""

    cuts: list = field(default_factory=list)
    basis: dict = None
    added: int = 0
    dropped_parallel: int = 0
    dropped_aged: int = 0

    def __post_init__(self):
        self.kept = None
        self._of = None  # the list the arrays were built from
        self._arrays()

    def _arrays(self):
        """The active cuts' keys and padded unit normals, one row each."""
        if self._of is not self.cuts or self._keys.size != len(self.cuts):
            self._of = self.cuts
            self._keys = np.array([cut.key for cut in self.cuts], dtype=np.int64)
            self._normals = _cut_normals(self.cuts).ravel()
        return self._keys, self._normals.reshape(-1, WIDTH)

    def _append(self, cuts, keys, normals):
        self._arrays()
        self.cuts.extend(cuts)
        self._keys = np.concatenate([self._keys, keys])
        self._normals = np.concatenate([self._normals, normals.ravel()])
        self.added += len(cuts)

    def admit(self, cut, round_no, eps_par=EPS_PAR):
        """Reject iff an active cut from the same cone is nearly parallel
        (cosine similarity of unit normals >= 1 - eps_par)."""
        keys, normals = np.array([cut.key]), _cut_normals([cut])
        if _parallel(keys, normals, *self._arrays(), eps_par)[0]:
            self.dropped_parallel += 1
            return False
        cut.birth_round = round_no
        cut.last_tight_round = round_no
        self._append([cut], keys, normals)
        return True

    def admit_cones(self, table, sel, primal, round_no, eps_par=EPS_PAR):
        """Cut each selected cone of the table at the point and admit the
        cuts as ``admit`` would, one by one in order; a cone at its apex
        gives no cut and no count. Returns the number admitted."""
        V, rhs, apex = table.deepest_cuts(primal, sel)
        if apex.any():
            sel, V, rhs = sel[~apex], V[~apex], rhs[~apex]
        normals = unit_normals(V)
        keys = table.keys[sel]
        parallel = _parallel(keys, normals, *self._arrays(), eps_par)
        if parallel.any():
            self.dropped_parallel += int(np.count_nonzero(parallel))
            sel, V, rhs, normals, keys = (a[~parallel] for a in (sel, V, rhs, normals, keys))
        self._append([table.cut(i, values, r, round_no)
                      for i, values, r in zip(sel.tolist(), V.tolist(), rhs.tolist())],
                     keys, normals)
        return len(sel)

    def prune_aged(self, slacks, round_no, t_age=T_AGE):
        """Refresh tightness stamps from ``slacks``, the cut rows' slacks
        (rhs minus left-hand side) in the solved LP, one per cut it held,
        in pool order; the cuts admitted since follow those, stamped at
        admission. Then drop cuts that have not been tight for t_age rounds
        (never, if it is infinite). Returns the drop count."""
        for i in (np.asarray(slacks) <= TIGHT_TOL).nonzero()[0]:
            self.cuts[i].last_tight_round = round_no
        keys, _ = self._arrays()
        kept = [round_no - cut.last_tight_round < t_age for cut in self.cuts]
        self.kept = np.array(kept, dtype=bool)
        self.cuts = self._of = list(compress(self.cuts, kept))
        self._keys = keys[self.kept]
        self._normals = self._normals[np.repeat(self.kept, WIDTH)]
        dropped = len(kept) - len(self.cuts)
        self.dropped_aged += dropped
        return dropped


def save_cuts(pool, path, case):
    """Persist active cuts with branch/cone provenance for warm starts."""
    store = SimpleNamespace(bus_count=len(case.buses), cuts=pool.cuts, basis=pool.basis)
    netio.write_json(path, netio.to_json(store, netio.CUT_SCHEMA))


def load_cuts(path, case):
    """Load a cut store onto a (possibly contingency-modified) case.

    A cut whose rhs or a coefficient is not finite is an error. Cuts whose
    branch is out of service are dropped, their statuses with them; a cut
    without a status gets a basic slack, as a new cut does; ages reset to
    round 0. The pool computes the unit normals, so a cut of all-zero
    coefficients is refused here. Returns (pool, loaded_count,
    dropped_count).
    """
    store = netio.from_json(netio.read_json(path, CutError, "cut store"),
                            netio.CUT_SCHEMA, CutError)
    if store["bus_count"] != len(case.buses):
        raise CutError(
            f"cut store was built for a {store['bus_count']}-bus case, "
            f"got {len(case.buses)} buses")
    in_service = {b.id for b in case.branches if b.status}
    known = {b.id for b in case.branches}
    statuses = (solver.AT_LOWER, solver.AT_UPPER, solver.BASIC, solver.FREE)
    basis = store["basis"]
    if basis is not None and any(st not in statuses for st in basis.values()):
        raise CutError("cut store: basis holds an unknown status")
    cuts = []
    dropped = 0
    for rec in store["cuts"]:
        bid = rec["branch_id"]
        if bid not in known:
            raise CutError(f"cut references unknown branch {bid}")
        if rec["cone_kind"] not in ROLE_ORDER:
            raise CutError(f"cut: unknown cone kind {rec['cone_kind']!r}")
        foreign = sorted(set(rec["coefficients"]) - set(ROLE_ORDER[rec["cone_kind"]]))
        if foreign:
            raise CutError(f"cut: role {foreign[0]!r} is not a {rec['cone_kind']} role")
        for name, value in (("rhs", rec["rhs"]), *(
                (f"coefficient {role!r}", v) for role, v in rec["coefficients"].items())):
            if not math.isfinite(value):
                raise CutError(f"cut: {name} must be finite, got {value}")
        if rec["status"] not in (None, *statuses):
            raise CutError(f"cut: unknown status {rec['status']!r}")
        if bid not in in_service:
            dropped += 1
            continue
        if rec["status"] is None:
            rec["status"] = solver.BASIC
        cuts.append(Cut(**rec))
    pool = CutPool(cuts, None if basis is None else {name: int(st) for name, st in basis.items()})
    return pool, len(pool.cuts), dropped
