"""Seeded synthetic market cases: a ring of buses plus random chords,
two-segment PWL generator and load bids, reactive condensers at load
buses, optional commitment block units, and the N-1 outage list.

Case ``index`` of a shape is one member of a fixed family: its topology,
unit placement and nominal numbers come from the shape and the index
alone. The workload seed jitters every number by up to JITTER (relative).
Seeds therefore give different cases of about the same difficulty, which
keeps one run's figures comparable with another's: B&B node counts and
cut rounds swing several-fold between unrelated random cases. One seed
always gives byte-identical ``cppa-case-v1`` files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from cppa import model, netio
from cppa.netio import Branch, Bus, Generator, Load, branch_admittance

BASE_MVA = 100.0
JITTER = 0.01


@dataclass(frozen=True)
class CaseSpec:
    """Shape of one generated case; the seed fills in the numbers."""

    buses: int
    chords: int
    blocks: int = 0          # commitment block units (pmin == pmax)
    condensers: bool = True  # zero-MW reactive units at load buses


class _Draw:
    """Nominal values from the family's stream, jittered by the seed's."""

    def __init__(self, spec, seed, index):
        self.shape = random.Random(f"cppa-bench:{spec}:{index}")
        self.jitter = random.Random(f"cppa-bench:{seed}:{index}")

    def __call__(self, lo, hi):
        nominal = self.shape.uniform(lo, hi)
        return round(nominal * (1.0 + self.jitter.uniform(-JITTER, JITTER)), 4)


def _branch(bid, f, t, draw):
    r = draw(0.005, 0.02)
    x = draw(0.05, 0.15)
    b_c = draw(0.0, 0.03)
    return Branch(bid, f, t, r, x, b_c, 1.0, 0.0, 0.5, draw(0.8, 2.5) ** 2, True,
                  branch_admittance(r, x, b_c, 1.0, 0.0))


def _ring_and_chords(n, chords, draw):
    pairs = [(k, k % n + 1) for k in range(1, n + 1)] if n > 2 else [(1, 2)]
    taken = {frozenset(p) for p in pairs}
    free = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
            if frozenset((a, b)) not in taken]
    draw.shape.shuffle(free)
    pairs += sorted(free[:chords])
    return [_branch(i, f, t, draw) for i, (f, t) in enumerate(pairs, start=1)]


def make_case(spec, seed, index):
    """One validated CaseData for ``spec`` from (workload seed, case index)."""
    draw = _Draw(spec, seed, index)
    n = spec.buses
    buses = [Bus(k, 0.95, 1.05) for k in range(1, n + 1)]
    branches = _ring_and_chords(n, spec.chords, draw)

    # odd buses generate, even buses consume; bus 1 always generates
    gen_buses = [k for k in range(1, n + 1) if k % 2 == 1]
    load_buses = [k for k in range(1, n + 1) if k % 2 == 0]
    generators = []
    for k in gen_buses:
        pmax = draw(0.8, 1.6)
        mc = draw(15.0, 40.0)
        segs = ((round(0.6 * pmax, 4), mc), (pmax, round(mc + draw(2, 12), 4)))
        generators.append(Generator(len(generators) + 1, k, 0.0, pmax,
                                    -1.0, 1.0, segs, 0.0, 0.0, 0.0, True))
    loads = []
    for k in load_buses:
        pmax = draw(0.4, 1.0)
        mb = draw(60.0, 95.0)
        segs = ((round(0.5 * pmax, 4), mb), (pmax, round(mb - draw(10, 30), 4)))
        loads.append(Load(len(loads) + 1, k, pmax, segs, draw(0.1, 0.3)))

    # Block units are the cheapest energy and together exceed total load,
    # so the LP relaxation always runs the marginal block part-loaded and
    # the commitment MILP has to branch.
    weights = [draw(0.5, 1.5) for _ in range(spec.blocks)]
    scale = sum(l.pmax for l in loads) * draw(1.2, 1.5) / sum(weights or [1])
    for w in weights:
        size = round(w * scale, 4)
        generators.append(Generator(
            len(generators) + 1, draw.shape.randint(1, n), size, size, 0.0, 0.0,
            ((size, draw(3.0, 8.0)),), round(size * draw(50, 300), 4),
            round(size * draw(0, 200), 4), 0.0, False))
    if spec.condensers:
        for k in load_buses:
            generators.append(Generator(len(generators) + 1, k, 0.0, 0.0,
                                        -1.0, 1.0, ((1e-3, 0.0),),
                                        0.0, 0.0, 0.0, True))
    return netio.make_case(BASE_MVA, buses, branches, generators, loads,
                           scenario_name=f"ring{n}_s{seed}_i{index}")


def n1_outages(case):
    """Branch ids whose single outage leaves the case connected."""
    return [br.id for br in case.branches
            if not netio.apply_contingency(case, [br.id]).islanded]


def describe(case, model_name):
    """Buses, in-service branches, and vars x rows of the welfare LP."""
    build = model.build_dc_welfare if model_name == "dc" else model.build_cp_welfare
    m = build(case)
    return {"buses": len(case.buses),
            "branches": sum(1 for b in case.branches if b.status),
            "vars": len(m.variables), "rows": len(m.rows)}
