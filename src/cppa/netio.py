"""Network case files, the immutable market data model, and all JSON files.

All physical quantities are per-unit on ``base_mva``; bid prices stay in
$/MWh ($/MVArh). Two case formats are supported: a versioned JSON schema
("cppa-case-v1") and a MATPOWER .m subset with loads synthesized from bus
Pd/Qd at a configurable value-of-lost-load marginal benefit.

Every JSON file cppa reads or writes goes through ``read_json`` and
``write_json``, and one field table per record type (``Record``) drives
both ``from_json`` and ``to_json``: a malformed file raises the caller's
error class naming the record, never a traceback.
"""

from __future__ import annotations

import cmath
import json
import math
import re
from collections import namedtuple
from dataclasses import dataclass, fields, replace


class CaseError(ValueError):
    """Malformed case file or violated data invariant."""


@dataclass(frozen=True)
class Admittance:
    """2x2 complex branch admittance, split into conductance/susceptance parts."""

    g_ff: float
    b_ff: float
    g_ft: float
    b_ft: float
    g_tf: float
    b_tf: float
    g_tt: float
    b_tt: float


@dataclass(frozen=True)
class Bus:
    id: int
    vmin: float
    vmax: float


@dataclass(frozen=True)
class Branch:
    id: int
    from_bus: int
    to_bus: int
    r: float
    x: float
    b_c: float
    tap: float
    shift: float
    max_angle_diff: float
    current_limit_sq: float
    status: bool
    admittance: Admittance


@dataclass(frozen=True)
class Generator:
    id: int
    bus: int
    pmin: float
    pmax: float
    qmin: float
    qmax: float
    cost_segments: tuple  # ((breakpoint p.u., marginal cost $/MWh), ...)
    no_load_cost: float
    startup_cost: float
    shutdown_cost: float
    initial_on: bool


@dataclass(frozen=True)
class Load:
    id: int
    bus: int
    pmax: float
    benefit_segments: tuple  # ((breakpoint p.u., marginal benefit $/MWh), ...)
    power_factor_ratio: float


@dataclass(frozen=True)
class CaseData:
    base_mva: float
    buses: tuple
    branches: tuple
    generators: tuple
    loads: tuple
    scenario_name: str
    islanded: bool = False

    def bus_map(self):
        return {b.id: b for b in self.buses}


def branch_admittance(r, x, b_c=0.0, tap=1.0, shift=0.0):
    """Pi-model admittance entries for one branch.

    Y_ff = (y_s + j b_c/2) / tap^2, Y_ft = -y_s e^{-j shift} / tap,
    Y_tf = -y_s e^{+j shift} / tap, Y_tt = y_s + j b_c/2,
    with y_s = 1 / (r + jx). Every parameter must be finite.
    """
    for name, value in (("r", r), ("x", x), ("b_c", b_c), ("tap", tap), ("shift", shift)):
        if not math.isfinite(value):
            raise CaseError(f"{name} must be finite, got {value}")
    if x == 0.0:
        raise CaseError("zero reactance")
    if tap <= 0.0:
        raise CaseError("tap ratio must be positive")
    y_s = 1.0 / complex(r, x)
    y_sh = complex(0.0, b_c / 2.0)
    y_ff = (y_s + y_sh) / tap**2
    y_ft = -y_s * cmath.exp(complex(0.0, -shift)) / tap
    y_tf = -y_s * cmath.exp(complex(0.0, shift)) / tap
    y_tt = y_s + y_sh
    return Admittance(
        g_ff=y_ff.real, b_ff=y_ff.imag,
        g_ft=y_ft.real, b_ft=y_ft.imag,
        g_tf=y_tf.real, b_tf=y_tf.imag,
        g_tt=y_tt.real, b_tt=y_tt.imag,
    )


def monotone_bid(segments, nondecreasing):
    """False when a marginal value falls (``nondecreasing``: a convex
    cost) or rises (a concave benefit) by more than 1e-12 from one
    segment to the next."""
    mvs = [mv for _, mv in segments]
    return not any(b < a - 1e-12 if nondecreasing else b > a + 1e-12
                   for a, b in zip(mvs, mvs[1:]))


def _check_pwl(segments, pmax, nondecreasing, entity):
    """Validate a piecewise-linear bid: increasing breakpoints covering
    [0, pmax], marginal values monotone in the required direction."""
    if not segments:
        raise CaseError(f"{entity}: empty bid segments")
    bps = [0.0, *(bp for bp, _ in segments)]
    if any(b <= a + 1e-15 for a, b in zip(bps, bps[1:])):
        raise CaseError(f"{entity}: breakpoints must be strictly increasing")
    if not monotone_bid(segments, nondecreasing):
        raise CaseError(f"{entity}: " + (
            "marginal costs must be nondecreasing (convexity)" if nondecreasing
            else "marginal benefits must be nonincreasing (concavity)"))
    if bps[-1] < pmax - 1e-9:
        raise CaseError(f"{entity}: bid segments do not cover [0, pmax]")


def _is_islanded(buses, branches, generators, loads):
    """True when any bus with attached agents is cut off from the largest
    in-service component; of equal-size ones, the component holding the
    lowest bus id is the largest. One pass over the branches merges each
    in-service branch's two components, the smaller into the larger."""
    comp = {b.id: {b.id} for b in buses}  # bus id -> its component
    for br in branches:
        big, small = comp[br.from_bus], comp[br.to_bus]
        if br.status and big is not small:
            if len(big) < len(small):
                big, small = small, big
            big |= small
            for k in small:
                comp[k] = big
    # max keeps the first largest, met at its lowest bus id
    main = max((comp[k] for k in sorted(comp)), key=len)
    agent_buses = {g.bus for g in generators} | {l.bus for l in loads}
    return any(k not in main for k in agent_buses)


# numbers that must be finite; any other may be infinite (a limit), and
# none may be NaN. A branch's parameters, its reactance and tap included,
# are checked where its admittance is computed (``branch_admittance``).
FINITE_FIELDS = ("pmin", "cost_segments", "benefit_segments", "no_load_cost",
                 "startup_cost", "shutdown_cost", "power_factor_ratio")


# record class -> the names of its float fields, and of its bids' segment pairs
_NUMBER_FIELDS = {cls: tuple(tuple(f.name for f in fields(cls) if f.type in kind)
                             for kind in (("float", float), ("tuple", tuple)))
                  for cls in (Bus, Branch, Generator, Load)}


def _check_numbers(entity, item):
    """No number of ``item``, bid segments included, is NaN, and those
    named in FINITE_FIELDS are finite. Numbers whose sum is finite hold no
    NaN or infinity, and the sum raises on neither, nor on an overflow: so
    only a record whose sum is not finite is walked, to name the culprit."""
    scalars, bids = _NUMBER_FIELDS[type(item)]
    if math.isfinite(sum([getattr(item, name) for name in scalars]) +
                     sum([v for name in bids for pair in getattr(item, name) for v in pair])):
        return
    for name in scalars + bids:
        value = getattr(item, name)
        finite = name in FINITE_FIELDS
        for v in [v for pair in value for v in pair] if name in bids else [value]:
            if isinstance(v, float) and (math.isnan(v) or finite and math.isinf(v)):
                raise CaseError(f"{entity}: {name} must be "
                                f"{'finite' if finite else 'a number'}, got {v}")


def make_case(base_mva, buses, branches, generators, loads, scenario_name="case"):
    """Assemble and validate a CaseData from already-built components."""
    if not 0 < base_mva < math.inf:
        raise CaseError(f"base_mva must be positive and finite, got {base_mva}")
    if not buses:
        raise CaseError("case has no buses")
    for name, items in (("bus", buses), ("branch", branches),
                        ("generator", generators), ("load", loads)):
        seen = set()
        for it in items:
            if it.id in seen:
                raise CaseError(f"duplicate {name} id {it.id}")
            seen.add(it.id)
            _check_numbers(f"{name} {it.id}", it)
    bus_ids = {b.id for b in buses}
    for b in buses:
        if not (0.0 < b.vmin <= b.vmax):
            raise CaseError(f"bus {b.id}: requires 0 < vmin <= vmax")
    for br in branches:
        if br.from_bus not in bus_ids or br.to_bus not in bus_ids:
            raise CaseError(f"branch {br.id}: unknown endpoint bus")
        if br.from_bus == br.to_bus:
            raise CaseError(f"branch {br.id}: from and to bus are the same")
        if not (0.0 < br.max_angle_diff < math.pi / 2):
            raise CaseError(f"branch {br.id}: max_angle_diff must be in (0, pi/2)")
        if br.current_limit_sq <= 0.0:
            raise CaseError(f"branch {br.id}: current_limit_sq must be positive")
    for g in generators:
        if g.bus not in bus_ids:
            raise CaseError(f"generator {g.id}: unknown bus {g.bus}")
        if g.pmin > g.pmax:
            raise CaseError(f"generator {g.id}: pmin > pmax")
        if g.qmin > g.qmax:
            raise CaseError(f"generator {g.id}: qmin > qmax")
        _check_pwl(g.cost_segments, g.pmax, True, f"generator {g.id}")
    for l in loads:
        if l.bus not in bus_ids:
            raise CaseError(f"load {l.id}: unknown bus {l.bus}")
        if l.pmax < 0.0:
            raise CaseError(f"load {l.id}: pmax must be nonnegative")
        if l.pmax > 0.0:
            _check_pwl(l.benefit_segments, l.pmax, False, f"load {l.id}")
    return CaseData(
        base_mva=float(base_mva),
        buses=tuple(sorted(buses, key=lambda b: b.id)),
        branches=tuple(sorted(branches, key=lambda b: b.id)),
        generators=tuple(sorted(generators, key=lambda g: g.id)),
        loads=tuple(sorted(loads, key=lambda l: l.id)),
        scenario_name=scenario_name,
        islanded=_is_islanded(buses, branches, generators, loads),
    )


def _branch(**f):
    """A Branch with its admittance; a bad x or tap is an error naming it."""
    try:
        return Branch(**f, admittance=branch_admittance(
            f["r"], f["x"], f["b_c"], f["tap"], f["shift"]))
    except CaseError as exc:
        raise CaseError(f"branch {f['id']}: {exc}") from None


# --- JSON files -----------------------------------------------------------


class Record(namedtuple("Record", "name fields version make", defaults=(None, None))):
    """Field table of one JSON record type; a field is (key, type, default[,
    attribute]). A default of ``...`` marks it required, and of None
    optional: absent or null it reads as None, and None is not written. A
    float is any JSON number, a tuple a list of [number, number] pairs, a
    dict a list of [name, number] pairs, a Record a list of its records (in
    memory a list, or a dict keyed by the first field). ``make`` builds a
    record's object from its fields."""

    def __new__(cls, name, fields, version=None, make=None):
        fields = tuple((*f, f[0])[:4] for f in fields)  # attribute defaults to key
        return super().__new__(cls, name, fields, version, make)


def _constant(name):
    """``Infinity`` and ``-Infinity`` (``write_json`` writes infinite limits
    so); ``NaN`` is refused, as no field of any record may hold it."""
    if name == "NaN":
        raise ValueError("NaN is not a number")
    return float(name)


def read_json(path, error, what):
    """The parsed JSON file; invalid JSON, NaN included, raises ``error``
    naming it."""
    with open(path) as fh:
        try:
            return json.load(fh, parse_constant=_constant)
        except ValueError as exc:  # invalid JSON, or bytes that are not text
            raise error(f"{what} {path}: invalid JSON: {exc}") from exc


def write_json(path, data):
    """Write ``data`` as JSON: sorted keys, 2-space indent, final newline."""
    with open(path, "w") as fh:
        fh.write(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _convert(value, kind, error):
    """``value``, not of type ``kind``, read as one; None if it is not one."""
    if kind is float and type(value) is int:
        return float(value)
    if type(kind) is Record and type(value) is list:
        return [from_json(item, kind, error) for item in value]
    keys = {tuple: (int, float), dict: (str,)}.get(kind)
    if keys and type(value) is list and all(
            type(p) is list and len(p) == 2 and type(p[0]) in keys
            and type(p[1]) in (int, float) for p in value):
        return kind((p if kind is dict else float(p), float(v)) for p, v in value)
    return None


def from_json(data, record, error):
    """Attribute -> value of one parsed JSON record, by its field table;
    anything malformed raises ``error`` naming the record."""
    if type(data) is not dict:
        raise error(f"{record.name}: expected an object, got {data!r:.60}")
    if record.version and data.get("version") != record.version:
        raise error(f"unsupported {record.name} version {data.get('version')!r:.60}")
    out = {}
    for key, kind, default, attr in record.fields:
        value = data.get(key, default)
        bad = value is ...  # missing
        if type(value) is not kind and value is not default:
            value = _convert(value, kind, error)
            bad = value is None  # of the wrong type
        if bad:
            name = f"{record.name} {data['id']!r:.20}" if "id" in data else record.name
            raise error(f"{name}: missing field '{key}'" if key not in data else
                        f"{name}: field '{key}' has the wrong type: {data[key]!r:.60}")
        out[attr] = value
    return record.make(**out) if record.make else out


def to_json(obj, record, key=None):
    """One record as JSON, by its field table; ``key`` fills the first field."""
    out = {"version": record.version} if record.version else {}
    for i, (name, kind, default, attr) in enumerate(record.fields):
        value = key if i == 0 and key is not None else getattr(obj, attr)
        if value is None and default is None:
            continue
        if type(kind) is Record:
            value = ([to_json(v, kind, k) for k, v in sorted(value.items())]
                     if type(value) is dict else [to_json(v, kind) for v in value])
        elif kind in (tuple, dict):
            value = [list(p) for p in (sorted(value.items()) if kind is dict else value)]
        out[name] = bool(value) if kind is bool else value
    return out


CASE_SCHEMA = Record("case", (
    ("base_mva", float, ...),
    ("buses", Record("bus", (
        ("id", int, ...), ("vmin", float, ...), ("vmax", float, ...)), make=Bus), ...),
    ("branches", Record("branch", (
        ("id", int, ...), ("from", int, ..., "from_bus"), ("to", int, ..., "to_bus"),
        ("r", float, ...), ("x", float, ...), ("b_c", float, 0.0), ("tap", float, 1.0),
        ("shift", float, 0.0), ("max_angle_diff", float, ...),
        ("current_limit_sq", float, ...), ("status", bool, True)), make=_branch), ...),
    ("generators", Record("generator", (
        ("id", int, ...), ("bus", int, ...), ("pmin", float, ...), ("pmax", float, ...),
        ("qmin", float, ...), ("qmax", float, ...), ("cost_segments", tuple, ...),
        ("no_load_cost", float, 0.0), ("startup_cost", float, 0.0),
        ("shutdown_cost", float, 0.0), ("initial_on", bool, False)), make=Generator), ...),
    ("loads", Record("load", (
        ("id", int, ...), ("bus", int, ...), ("pmax", float, ...),
        ("benefit_segments", tuple, ...), ("power_factor_ratio", float, 0.0)), make=Load),
     ...),
), "cppa-case-v1")

CUT_SCHEMA = Record("cut store", (
    ("bus_count", int, ...),
    ("cuts", Record("cut", (("branch_id", int, ...), ("cone_kind", str, ...),
                            ("coefficients", dict, ...), ("rhs", float, ...),
                            ("status", int, None))), ...),
    ("basis", dict, None),
), "cppa-cuts-v1")

ALLOC_SCHEMA = Record("allocation", (
    ("generators", Record("generator allocation", (
        ("id", int, ...), ("p", float, ...), ("q", float, 0.0), ("on", float, 1.0),
        ("su", float, 0.0), ("sd", float, 0.0))), (), "gens"),
    ("loads", Record("load allocation", (
        ("id", int, ...), ("p", float, ...), ("q", float, 0.0))), ()),
), "cppa-alloc-v1")


def case_from_dict(data, scenario_name="case"):
    return make_case(**from_json(data, CASE_SCHEMA, CaseError), scenario_name=scenario_name)


def case_to_dict(case):
    return to_json(case, CASE_SCHEMA)


def save_case(case, path):
    write_json(path, case_to_dict(case))


def parse_case(path, voll=1000.0):
    """Parse a case file (JSON schema or MATPOWER .m by extension)."""
    path = str(path)
    name = re.sub(r"\.(json|m)$", "", path.rsplit("/", 1)[-1])
    if path.endswith(".m"):
        return parse_matpower(path, voll=voll)
    return case_from_dict(read_json(path, CaseError, "case file"), name)


def apply_contingency(case, out_branches):
    """Copy of the case with the listed branches taken out of service.
    ``out_branches`` is a list of integer branch ids, as read from a
    contingency file."""
    if not isinstance(out_branches, (list, tuple)) or any(
            isinstance(bid, bool) or not isinstance(bid, int)
            for bid in out_branches):
        raise CaseError(
            f"contingency must be a list of integer branch ids, got {out_branches!r}")
    known = {b.id for b in case.branches}
    for bid in out_branches:
        if bid not in known:
            raise CaseError(f"unknown branch id {bid}")
    out = set(out_branches)
    branches = tuple(replace(b, status=False) if b.id in out else b
                     for b in case.branches)
    return replace(
        case,
        branches=branches,
        islanded=_is_islanded(case.buses, branches, case.generators, case.loads),
    )


# --- MATPOWER subset reader ---------------------------------------------

_MAT_BLOCK = re.compile(r"mpc\.(\w+)\s*=\s*\[(.*?)\];", re.DOTALL)
_MAT_BASE = re.compile(r"mpc\.baseMVA\s*=\s*(\d+\.?\d*(?:[eE][-+]?\d+)?)\s*;")
_MAT_COLUMNS = {"bus": 4, "branch": 10, "gen": 10, "gencost": 4}


def _matrix(name, text):
    """Rows of mpc.<name>; a non-number or a short row is an error."""
    rows = []
    for line in re.split(r"[;\n]", text):
        line = line.split("%")[0].strip()
        if not line:
            continue
        try:
            row = [float(t) for t in line.replace(",", " ").split()]
        except ValueError as exc:
            raise CaseError(f"mpc.{name} row {len(rows) + 1}: {exc}") from None
        if len(row) < _MAT_COLUMNS[name]:
            raise CaseError(f"mpc.{name} row {len(rows) + 1}: too few columns")
        rows.append(row)
    return rows


def _integer(name, k, value):
    """An id or count column of row k of mpc.<name>, which must hold a
    finite integral value."""
    if not value.is_integer():
        raise CaseError(f"mpc.{name} row {k}: expected an integer, got {value!r}")
    return int(value)


def _no_nan(name, k, row, columns):
    """Refuse a NaN in any of the columns (index -> MATPOWER name) that row
    k of mpc.<name> holds, where the reader would default it or drop the
    record it sits in."""
    for col, field in columns.items():
        if col < len(row) and math.isnan(row[col]):
            raise CaseError(f"mpc.{name} row {k}: {field} is NaN")


def _quad_to_pwl(c2, c1, pmax_mw, base_mva):
    """Convert a quadratic cost c2 p^2 + c1 p ($/h, p in MW) to a 3-segment
    convex PWL over [0, pmax] via chord slopes; a constant term does not
    change the slopes."""
    if pmax_mw <= 0:
        return ((1e-6, max(c1, 0.0)),)
    bps = [pmax_mw / 3.0, 2.0 * pmax_mw / 3.0, pmax_mw]
    cost = lambda p: c2 * p * p + c1 * p
    segs = []
    prev = 0.0
    for bp in bps:
        mc = (cost(bp) - cost(prev)) / (bp - prev)
        segs.append((bp / base_mva, mc))
        prev = bp
    return tuple(segs)


def _pwl_points_to_segments(points, base_mva):
    """MATPOWER PWL points (MW, $/h), in increasing MW, to (breakpoint
    p.u., $/MWh) segments."""
    return tuple((x1 / base_mva, (y1 - y0) / (x1 - x0))
                 for (x0, y0), (x1, y1) in zip(points, points[1:]))


def parse_matpower(path, voll=1000.0):
    """Read a MATPOWER .m subset; bus Pd/Qd become elastic loads with a
    single value-of-lost-load benefit segment at ``voll`` $/MWh. A negative
    Pd, a fixed injection, is refused, and so is an in-service generator
    with a negative Pmin, no mpc.gencost row, or a cost row it cannot
    price: a negative NCOST, or a piecewise-linear cost of fewer than two
    points or with a point whose MW is not above the previous one's."""
    with open(path) as fh:
        text = fh.read()
    base = float(m.group(1)) if (m := _MAT_BASE.search(text)) else 0.0
    blocks = dict(_MAT_BLOCK.findall(text))
    if base <= 0.0:
        raise CaseError("MATPOWER file needs a positive mpc.baseMVA")
    for req in ("bus", "branch", "gen"):
        if req not in blocks:
            raise CaseError(f"MATPOWER file missing mpc.{req}")

    buses, loads = [], []
    load_id = 1
    for k, row in enumerate(_matrix("bus", blocks["bus"]), start=1):
        bid = _integer("bus", k, row[0])
        _no_nan("bus", k, row, {2: "Pd", 11: "Vmax", 12: "Vmin"})
        vmax = row[11] if len(row) > 11 and row[11] > 0 else 1.1
        vmin = row[12] if len(row) > 12 and row[12] > 0 else 0.9
        buses.append(Bus(id=bid, vmin=vmin, vmax=vmax))
        pd, qd = row[2], row[3]
        if pd < 0:
            # a fixed injection in MATPOWER's convention, which this reader
            # has no bid for: refused rather than dropped
            raise CaseError(f"mpc.bus row {k}: Pd is negative, got {pd}")
        if pd > 0:
            pmax = pd / base
            loads.append(Load(
                id=load_id, bus=bid, pmax=pmax,
                benefit_segments=((pmax, voll),),
                power_factor_ratio=(qd / pd),
            ))
            load_id += 1

    branches = []
    for i, row in enumerate(_matrix("branch", blocks["branch"]), start=1):
        _no_nan("branch", i, row,
                {5: "rateA", 8: "tap", 10: "status", 11: "angmin", 12: "angmax"})
        r, x, b_c = row[2], row[3], row[4]
        rate_a = row[5]
        tap = row[8] if row[8] > 0 else 1.0
        shift = math.radians(row[9])
        status = bool(row[10]) if len(row) > 10 else True
        angmin = row[11] if len(row) > 11 else 0.0
        angmax = row[12] if len(row) > 12 else 0.0
        if angmin < 0 and angmax > 0:
            ang = math.radians(min(-angmin, angmax))
            ang = min(ang, math.pi / 2 - 1e-6)
        else:
            ang = math.pi / 3
        flow_cap = rate_a / base if rate_a > 0 else 100.0
        branches.append(_branch(
            id=i, from_bus=_integer("branch", i, row[0]),
            to_bus=_integer("branch", i, row[1]),
            r=r, x=x, b_c=b_c, tap=tap, shift=shift,
            max_angle_diff=ang, current_limit_sq=flow_cap**2, status=status,
        ))

    gencost = _matrix("gencost", blocks["gencost"]) if "gencost" in blocks else []
    generators = []
    for i, row in enumerate(_matrix("gen", blocks["gen"]), start=1):
        _no_nan("gen", i, row, {7: "status"})
        if row[7] <= 0:  # out of service
            continue
        if row[9] < 0:
            # MATPOWER's dispatchable load, which this reader has no bid
            # for: refused rather than clamped to 0 and dropped
            raise CaseError(f"mpc.gen row {i}: Pmin is negative, got {row[9]}")
        if i > len(gencost):
            raise CaseError(f"mpc.gen row {i}: in service with no mpc.gencost row")
        pmax = row[8] / base
        pmin = row[9] / base
        qmax = row[3] / base
        qmin = row[4] / base
        crow = gencost[i - 1]
        model_kind = _integer("gencost", i, crow[0])
        if model_kind not in (1, 2):
            raise CaseError(f"mpc.gencost row {i}: cost model {model_kind} is not 1 or 2")
        n = _integer("gencost", i, crow[3])
        if n < 0:
            raise CaseError(f"mpc.gencost row {i}: NCOST is negative, got {n}")
        if len(crow) < 4 + (n if model_kind == 2 else 2 * n):
            raise CaseError(f"mpc.gencost row {i}: fewer cost terms than {n}")
        if model_kind == 2:
            coeffs = crow[4:4 + n]
            if any(coeffs[:-3]):
                raise CaseError(f"mpc.gencost row {i}: polynomial of degree above 2")
            c2 = coeffs[-3] if n >= 3 else 0.0
            c1 = coeffs[-2] if n >= 2 else 0.0
            no_load = coeffs[-1] if n >= 1 else 0.0
            segs = _quad_to_pwl(c2, c1, row[8], base)
        else:
            params = crow[4:4 + 2 * n]
            points = list(zip(params[0::2], params[1::2]))
            if n < 2:
                raise CaseError(f"mpc.gencost row {i}: a piecewise-linear cost needs "
                                f"two points, got {n}")
            if any(x1 <= x0 for (x0, _), (x1, _) in zip(points, points[1:])):
                raise CaseError(f"mpc.gencost row {i}: each point's MW must be above "
                                "the previous one's")
            segs = _pwl_points_to_segments(points, base)
            # the first segment's line extends down to 0 MW (MATPOWER's
            # max-of-lines form), so the cost at the first point is its own
            no_load = points[0][1] - segs[0][1] * points[0][0]
        if segs[-1][0] < pmax - 1e-9:  # a tail to Pmax at the last slope
            segs = segs + ((pmax, segs[-1][1]),)
        generators.append(Generator(
            id=i, bus=_integer("gen", i, row[0]), pmin=pmin, pmax=pmax,
            qmin=qmin, qmax=qmax, cost_segments=tuple(segs),
            no_load_cost=no_load, startup_cost=crow[1], shutdown_cost=crow[2],
            initial_on=True,
        ))

    name = re.sub(r"\.m$", "", str(path).rsplit("/", 1)[-1])
    return make_case(base, buses, branches, generators, loads, name)
