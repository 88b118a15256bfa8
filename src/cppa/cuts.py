"""Cone violation scoring, maximum-distance separating hyperplanes, and
the cut pool (selection, parallelism filtering, aging, persistence).

Every registered cone is handled in its 3- or 4-dimensional SOC rewrite
x^2 + y^2 <= wz  <=>  ||(2x, 2y, w-z)|| <= w+z; the deepest separating
hyperplane for a violated point (x', s') is (x')^T x <= ||x'|| s, mapped
back to model variables. Cut coefficients stay in model (p.u.) scale; the
cached unit normal is used only for the parallelism test. Cut stores
("cppa-cuts-v1") are read and written by ``netio.CUT_SCHEMA``, and a
malformed one raises ``CutError``.

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


class CutError(ValueError):
    pass


class DegenerateCutError(CutError):
    """Separation attempted at the cone apex (zero-norm SOC vector)."""


@dataclass
class Cut:
    coefficients: dict          # role -> coefficient
    rhs: float
    branch_id: int
    cone_kind: str
    birth_round: int = 0
    last_tight_round: int = 0
    unit_normal: np.ndarray = None
    status: int = solver.BASIC  # its slack's status when the pool's loop ended

    def __post_init__(self):
        if self.unit_normal is None:
            vec = np.array([self.coefficients.get(r, 0.0)
                            for r in ROLE_ORDER[self.cone_kind]])
            norm = np.linalg.norm(vec)
            if norm == 0.0:
                raise CutError("cut with zero coefficient vector")
            self.unit_normal = vec / norm

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


def cone_violation(primal, cone):
    """Quadratic-form violation of one registered cone; positive = violated."""
    v = cone.vars
    if cone.kind == JABR:
        return (primal[v["c"]] ** 2 + primal[v["s"]] ** 2
                - primal[v["v2_from"]] * primal[v["v2_to"]])
    return (primal[v["P"]] ** 2 + primal[v["Q"]] ** 2
            - cone.multiplier * primal[v["v2"]])


def soc_point(primal, cone):
    """(x', s') of the SOC rewrite at the given point."""
    v = cone.vars
    if cone.kind == JABR:
        w, z = primal[v["v2_from"]], primal[v["v2_to"]]
        xv = np.array([2.0 * primal[v["c"]], 2.0 * primal[v["s"]], w - z])
        return xv, w + z
    mu = cone.multiplier
    wz = mu * primal[v["v2"]]
    xv = np.array([2.0 * primal[v["P"]], 2.0 * primal[v["Q"]], wz - 1.0])
    return xv, wz + 1.0


def max_distance_cut(primal, cone, round_no=0, eps_viol=EPS_VIOL):
    """Deepest separating hyperplane for a point violating the cone."""
    if cone_violation(primal, cone) <= eps_viol:
        raise CutError("no cut for a satisfied cone")
    xv, _ = soc_point(primal, cone)
    norm = float(np.linalg.norm(xv))
    if norm < 1e-12:
        raise DegenerateCutError("separation at the cone apex")
    v = cone.vars
    if cone.kind == JABR:
        w_minus_z = xv[2]
        values = (4.0 * primal[v["c"]], 4.0 * primal[v["s"]],
                  w_minus_z - norm, -w_minus_z - norm)
        rhs = 0.0
    else:
        wz1 = xv[2]  # mu*v2' - 1
        values = (4.0 * primal[v["P"]], 4.0 * primal[v["Q"]],
                  cone.multiplier * (wz1 - norm))
        rhs = wz1 + norm
    coeffs = dict(zip(ROLE_ORDER[cone.kind], values))
    return Cut(coefficients=coeffs, rhs=rhs, branch_id=cone.branch_id,
               cone_kind=cone.kind, birth_round=round_no,
               last_tight_round=round_no)


def select_cuts(violations, eps_viol=EPS_VIOL, rho=1.0, k_max=None):
    """Keep violations above threshold, sorted descending with cone-index
    tie-break; return the top fraction rho, capped at k_max per round.

    ``violations`` is a list of (cone_index, cone, violation).
    """
    eligible = [t for t in violations if t[2] > eps_viol]
    eligible.sort(key=lambda t: (-t[2], t[0]))
    keep = math.ceil(rho * len(eligible))
    if k_max is not None:
        keep = min(keep, k_max)
    return eligible[:keep]


@dataclass
class CutPool:
    """Active cuts plus per-round admission/drop statistics, and the
    terminal statuses of the base model's columns and rows by name."""

    cuts: list = field(default_factory=list)
    basis: dict = None
    added: int = 0
    dropped_parallel: int = 0
    dropped_aged: int = 0

    def admit(self, cut, round_no, eps_par=EPS_PAR):
        """Reject iff an active cut from the same cone is nearly parallel
        (cosine similarity of unit normals >= 1 - eps_par)."""
        for other in self.cuts:
            if (other.branch_id == cut.branch_id
                    and other.cone_kind == cut.cone_kind
                    and float(other.unit_normal @ cut.unit_normal) >= 1.0 - eps_par):
                self.dropped_parallel += 1
                return False
        cut.birth_round = round_no
        cut.last_tight_round = round_no
        self.cuts.append(cut)
        self.added += 1
        return True

    def prune_aged(self, slacks, round_no, t_age=T_AGE):
        """Refresh tightness stamps from ``slacks``, the cut rows' slacks
        (rhs minus left-hand side) in the solved LP, one per cut it held,
        in pool order; the cuts admitted since follow those, stamped at
        admission. Then drop cuts that have not been tight for t_age rounds
        (never, if it is infinite). Returns the drop count."""
        for i in np.flatnonzero(np.asarray(slacks) <= TIGHT_TOL):
            self.cuts[i].last_tight_round = round_no
        kept = [cut for cut in self.cuts if round_no - cut.last_tight_round < t_age]
        dropped = len(self.cuts) - len(kept)
        self.cuts = kept
        self.dropped_aged += dropped
        return dropped


def save_cuts(pool, path, case):
    """Persist active cuts with branch/cone provenance for warm starts."""
    store = SimpleNamespace(scenario_name=case.scenario_name,
                            bus_count=len(case.buses), cuts=pool.cuts,
                            basis=pool.basis)
    netio.write_json(path, netio.to_json(store, netio.CUT_SCHEMA))


def load_cuts(path, case):
    """Load a cut store onto a (possibly contingency-modified) case.

    A cut whose rhs or a coefficient is not finite is an error. Cuts whose
    branch is out of service are dropped, their statuses with them; a cut
    without a status gets a basic slack, as a new cut does; ages reset to
    round 0 and unit normals recomputed. Returns (pool, loaded_count,
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
    pool = CutPool(basis=None if basis is None else
                   {name: int(st) for name, st in basis.items()})
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
        pool.cuts.append(Cut(**rec))
    return pool, len(pool.cuts), dropped
