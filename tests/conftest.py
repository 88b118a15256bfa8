import copy
import importlib.util
import sys
import time
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from cppa import netio, solver
from cppa.netio import Branch, Bus, CaseData, Generator, Load, branch_admittance


def mk_branch(bid, f, t, r, x, b_c=0.0, tap=1.0, shift=0.0,
              max_angle_diff=0.6, current_limit_sq=25.0, status=True):
    return Branch(bid, f, t, r, x, b_c, tap, shift, max_angle_diff,
                  current_limit_sq, status,
                  branch_admittance(r, x, b_c, tap, shift))


def mk_gen(gid, bus, pmin, pmax, qmin, qmax, segments, no_load=0.0,
           startup=0.0, shutdown=0.0, initial_on=True):
    return Generator(gid, bus, pmin, pmax, qmin, qmax, tuple(segments),
                     no_load, startup, shutdown, initial_on)


def mk_load(lid, bus, pmax, segments, gamma=0.0):
    return Load(lid, bus, pmax, tuple(segments), gamma)


def condenser(gid, bus, qspan=3.0):
    """Zero-MW reactive slack unit."""
    return mk_gen(gid, bus, 0.0, 0.0, -qspan, qspan, [(1e-3, 0.0)])


@cache
def benchmark_module(name):
    """benchmarks/<name>.py, loaded by path and only read: the generator
    and the HiGHS oracle serve tier-1 tests too."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def with_cut_rows(model, pool):
    """A model of its own holding the model's rows, then the rows of the
    pool's cuts in pool order: the model a run's carried LP should hold
    while the pool holds those cuts."""
    out = copy.copy(model)
    out.rows = model.rows + [cut.to_row(model) for cut in pool.cuts]
    return out


def record_simplex(monkeypatch):
    """Wrap solver.simplex; returns the list of (basis_hint, iterations)
    of every call made while the patch lasts."""
    calls = []
    simplex = solver.simplex

    def recording(*args, basis_hint=None, **kw):
        out = simplex(*args, basis_hint=basis_hint, **kw)
        calls.append((basis_hint, out[-1]))
        return out

    monkeypatch.setattr(solver, "simplex", recording)
    return calls


def record_inverses(monkeypatch):
    """Wrap np.linalg.inv; returns, for every inverse solver.simplex takes
    while the patch lasts, why it took it, read off the simplex's frame:
    ("start",) before its first iteration, ("periodic",) after
    REFACTOR_INTERVAL product-form updates, else ("verdict", primal, dual)
    with the residuals max|Ax - b| and max|yB - c_B| of the verdict it
    checks."""
    inverses = []
    inv = np.linalg.inv

    def recording(M):
        frame = sys._getframe(1)
        while frame.f_code.co_name != "simplex":
            frame = frame.f_back
        at = frame.f_locals
        if "it" not in at:
            inverses.append(("start",))
        elif at["fresh"] >= solver.REFACTOR_INTERVAL:
            inverses.append(("periodic",))
        else:
            A, b, x, d, basis = (at[k] for k in ("A", "b", "x", "d", "basis"))
            inverses.append(("verdict", np.abs(A @ x - b).max(), np.abs(d[basis]).max()))
        return inv(M)

    monkeypatch.setattr(np.linalg, "inv", recording)
    return inverses


def record_pivots(monkeypatch):
    """Wrap solver._column, which solver.simplex calls once for each pivot
    or bound flip; returns the list of (it, dual, stall) read off the
    simplex's frame at each call made while the patch lasts: the
    iteration, whether the dual phase takes it (else the clean-up), and
    the count of degenerate pivots in a row (in the dual phase, this one
    included)."""
    pivots = []
    column = solver._column

    def recording(Binv, A, j, n):
        at = sys._getframe(1).f_locals
        pivots.append((at["it"], at["dual"], at["stall"]))
        return column(Binv, A, j, n)

    monkeypatch.setattr(solver, "_column", recording)
    return pivots


def record_solve_lp(monkeypatch):
    """Wrap solver.solve_lp; returns the list of (model, start statuses,
    solution) of every call made while the patch lasts. The start statuses
    are a copy of the carry's, taken at the call, else the hint (either may
    be None: a cold start)."""
    calls = []
    solve_lp = solver.solve_lp

    def recording(model, basis_hint=None, carry=None, **kw):
        start = basis_hint if carry is None or carry.status is None else carry.status.copy()
        sol = solve_lp(model, basis_hint=basis_hint, carry=carry, **kw)
        calls.append((model, start, sol))
        return sol

    monkeypatch.setattr(solver, "solve_lp", recording)
    return calls


def clock_jumps_at(monkeypatch, name):
    """Freeze time.perf_counter, then move it 1000 s ahead once
    ``solver.<name>`` is first called: at "simplex" the first LP's
    deadline passes while it runs, at "solve_milp" the MILP's before its
    root."""
    late = []
    now = time.perf_counter()
    monkeypatch.setattr(time, "perf_counter", lambda: now + (1e3 if late else 0.0))
    target = getattr(solver, name)

    def starting_late(*args, **kw):
        late.append(True)
        return target(*args, **kw)

    monkeypatch.setattr(solver, name, starting_late)


@pytest.fixture
def two_bus_lossless():
    """Lossless 2-bus economy: gen mc 10 at bus 1, load mb 50 at bus 2."""
    return netio.make_case(
        100.0,
        buses=[Bus(1, 0.95, 1.05), Bus(2, 0.95, 1.05)],
        branches=[mk_branch(1, 1, 2, 0.0, 0.1)],
        generators=[mk_gen(1, 1, 0.0, 1.0, -1.0, 1.0, [(1.0, 10.0)])],
        loads=[mk_load(1, 2, 0.5, [(0.5, 50.0)])],
        scenario_name="two_bus_lossless",
    )


@pytest.fixture
def two_bus_lossy():
    """Lossy 2-bus economy with a reactive slack unit at the load bus."""
    return netio.make_case(
        100.0,
        buses=[Bus(1, 0.95, 1.05), Bus(2, 0.95, 1.05)],
        branches=[mk_branch(1, 1, 2, 0.02, 0.1, b_c=0.02, max_angle_diff=0.3)],
        generators=[
            mk_gen(1, 1, 0.0, 1.5, -2.0, 2.0, [(1.5, 10.0)]),
            condenser(2, 2),
        ],
        loads=[mk_load(1, 2, 0.5, [(0.5, 50.0)])],
        scenario_name="two_bus_lossy",
    )


@pytest.fixture
def three_bus():
    """Lossy 3-bus ring: cheap gen at bus 1, mid-cost gen at bus 3, elastic
    loads at buses 2 and 3, reactive slack everywhere."""
    return netio.make_case(
        100.0,
        buses=[Bus(1, 0.95, 1.05), Bus(2, 0.95, 1.05), Bus(3, 0.95, 1.05)],
        branches=[
            mk_branch(1, 1, 2, 0.01, 0.10, b_c=0.02, max_angle_diff=0.4),
            mk_branch(2, 2, 3, 0.01, 0.08, b_c=0.02, max_angle_diff=0.4),
            mk_branch(3, 1, 3, 0.02, 0.20, b_c=0.02, max_angle_diff=0.4),
        ],
        generators=[
            mk_gen(1, 1, 0.0, 1.2, -2.0, 2.0, [(0.8, 10.0), (1.2, 14.0)]),
            mk_gen(2, 3, 0.0, 0.6, -2.0, 2.0, [(0.6, 30.0)]),
            condenser(3, 2),
        ],
        loads=[
            mk_load(1, 2, 0.6, [(0.4, 80.0), (0.6, 45.0)]),
            mk_load(2, 3, 0.4, [(0.4, 70.0)]),
        ],
        scenario_name="three_bus",
    )


@pytest.fixture
def three_bus_line():
    """3-bus radial feeder: one cheap gen, one far-end load, reactive
    slack at the passive buses."""
    return netio.make_case(
        100.0,
        buses=[Bus(1, 0.95, 1.05), Bus(2, 0.95, 1.05), Bus(3, 0.95, 1.05)],
        branches=[
            mk_branch(1, 1, 2, 0.01, 0.10, max_angle_diff=0.4),
            mk_branch(2, 2, 3, 0.01, 0.08, max_angle_diff=0.4),
        ],
        generators=[
            mk_gen(1, 1, 0.0, 1.2, -2.0, 2.0, [(1.2, 10.0)]),
            condenser(2, 2),
            condenser(3, 3),
        ],
        loads=[mk_load(1, 3, 0.5, [(0.5, 60.0)])],
        scenario_name="three_bus_line",
    )


@pytest.fixture
def one_bus_market():
    """Single-bus market whose commitment LP relaxation is integral."""
    return netio.make_case(
        1.0,
        buses=[Bus(1, 0.95, 1.05)],
        branches=[],
        generators=[mk_gen(1, 1, 0.0, 0.5, -0.5, 0.5, [(0.5, 10.0)],
                           initial_on=True)],
        loads=[mk_load(1, 1, 1.0, [(1.0, 50.0)])],
        scenario_name="one_bus",
    )


@pytest.fixture
def block_unit_market():
    """Single-bus market with a must-run-size block unit: the commitment
    LP relaxation is fractional."""
    return netio.make_case(
        1.0,
        buses=[Bus(1, 0.95, 1.05)],
        branches=[],
        generators=[
            mk_gen(1, 1, 0.0, 0.3, -0.5, 0.5, [(0.3, 10.0)], initial_on=True),
            mk_gen(2, 1, 0.4, 0.4, -0.5, 0.5, [(0.4, 5.0)], no_load=10.0,
                   initial_on=False),
        ],
        loads=[mk_load(1, 1, 0.6, [(0.6, 100.0)])],
        scenario_name="block_unit",
    )
