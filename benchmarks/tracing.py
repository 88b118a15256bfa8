"""Spans around the public functions of each cppa module, recorded from
outside by swapping module (and class) attributes.

The package resolves its collaborators through module attributes at call
time (``solver.solve_lp``, ``cutmod.max_distance_cut``, ``np.linalg.solve``,
...), so replacing an attribute with a timing wrapper traces every call
without touching ``src/``. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

import numpy as np

from cppa import algorithm, cli, cuts, econ, model, netio, solver

# span slots: name, start, end, parent span index, case id
NAME, START, END = range(3)


def _linalg_flops(counts, args, out):
    n = args[0].shape[0]
    rhs = 1 if np.ndim(args[1]) == 1 else args[1].shape[1]
    # LU factorization plus forward/back substitution
    counts["linalg_flop"] += 2.0 / 3.0 * n ** 3 + 2.0 * n * n * rhs


def _lp_size(counts, args, out):
    counts["lp_rows_max"] = max(counts["lp_rows_max"], len(args[0].rows))
    counts["lp_cols_max"] = max(counts["lp_cols_max"], len(args[0].variables))


def _count(key, value):
    def hook(counts, args, out):
        counts[key] += value(out)
    return hook


# (owner, attribute, span name, counter hook run on each return)
TARGETS = [
    (cli, "main", "cli.main", None),
    (cli, "run_scenario", "cli.run_scenario", None),
    (netio, "parse_case", "netio.parse", None),
    (netio, "apply_contingency", "netio.contingency", None),
    (cuts, "load_cuts", "cuts.io_load", None),
    (cuts, "save_cuts", "cuts.io_save", None),
    (algorithm, "run_cppa", "algorithm.run_cppa", None),
    (model, "build_cp_welfare", "model.build", None),
    (model, "build_dc_welfare", "model.build", None),
    (model.ModelIR, "copy", "model.copy", None),
    (solver, "solve_lp", "solver.lp", _lp_size),
    (solver, "solve_milp", "solver.milp", _count("milp_nodes", lambda o: o.nodes)),
    (solver, "standard_form", "solver.standard_form", None),
    (solver, "simplex", "solver.simplex", _count("simplex_iters", lambda o: o[-1])),
    (np.linalg, "solve", "solver.linalg_solve", _linalg_flops),
    (cuts, "cone_violation", "cuts.violation", None),
    (cuts, "select_cuts", "cuts.select", None),
    (cuts, "max_distance_cut", "cuts.cutgen", _count("generated", lambda o: 1)),
    (cuts.CutPool, "admit", "cuts.admit", _count("admitted", bool)),
    (cuts.CutPool, "prune_aged", "cuts.prune", _count("aged_out", int)),
    (econ, "allocation_from_result", "econ.metrics", None),
    (econ, "efficiency_metrics", "econ.metrics", None),
]


class Tracer:
    """Installs the wrappers while active; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.case = None
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.case]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, out)
            return out
        return traced

    def __enter__(self):
        for owner, attr, name, hook in TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, hook))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        return False


def summarize(spans):
    """Per span name: calls, inclusive seconds, self seconds. Self time is
    a span's duration minus that of its direct children, so the self times
    of one case sum to its root span's duration."""
    calls, total, self_s = Counter(), Counter(), Counter()
    for name, start, end, parent, _case in spans:
        dur = end - start
        calls[name] += 1
        total[name] += dur
        self_s[name] += dur
        if parent >= 0:
            self_s[spans[parent][NAME]] -= dur
    return calls, total, self_s
