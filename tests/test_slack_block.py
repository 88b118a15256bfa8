"""The simplex never multiplies the slack block of its standard form: the
block is I, and every nonbasic slack sits at exactly 0, because each
slack's finite bound is 0 and its other bound is infinite or 0 too. So
``A @ xN`` runs over the structural columns alone, ``r @ A`` takes r as
its slack part and ``B^-1 a_j`` of a slack column is a column of B^-1.
These tests pin the invariant those products rest on, and that each
shortcut gives what the dense product gives: the slack parts exactly, the
structural parts to rounding, since a product over A[:, :n] may sum its
terms in another order than one over all of A. A change to the slack
bounds or to the placement of nonbasic columns fails here, not as a
silently wrong pivot."""

from functools import cache

import numpy as np
import pytest

from cppa import solver
from cppa.model import SENSE_EQ, SENSE_GE, SENSE_LE, build_cp_welfare, build_dc_welfare
from cppa.solver import AT_LOWER, AT_UPPER, BASIC, FREE, INF, SLACK_BOUNDS

from conftest import benchmark_module


def test_every_finite_slack_bound_is_zero():
    assert set(SLACK_BOUNDS) == {SENSE_LE, SENSE_GE, SENSE_EQ}
    for lo, hi in SLACK_BOUNDS.values():
        assert lo in (0.0, -INF) and hi in (0.0, INF) and (lo == 0.0 or hi == 0.0)


def _slack_bounds(rng, m):
    senses = rng.choice([SENSE_LE, SENSE_GE, SENSE_EQ], size=m)
    return (np.array([SLACK_BOUNDS[s][0] for s in senses]),
            np.array([SLACK_BOUNDS[s][1] for s in senses]))


def test_start_places_every_nonbasic_slack_at_zero():
    # any hint, AT_UPPER and FREE on <= and = rows included, and hints the
    # start refuses (the wrong number of basic columns)
    rng = np.random.default_rng(3)
    coefficients = np.random.default_rng(4)  # the structural block, which the crash reads
    for _ in range(300):
        n, m = rng.integers(1, 8), rng.integers(1, 8)
        lo = rng.choice([-INF, -1.0, 0.0, 2.0], size=n)
        hi = np.maximum(lo, 0.0) + rng.choice([0.0, 1.0, INF], size=n)
        slack_lo, slack_hi = _slack_bounds(rng, m)
        lb, ub = np.concatenate([lo, slack_lo]), np.concatenate([hi, slack_hi])
        hint = rng.choice([AT_LOWER, AT_UPPER, FREE], size=n + m).astype(np.int8)
        basic = m if rng.random() < 0.8 else rng.integers(0, n + m + 1)
        hint[rng.choice(n + m, size=basic, replace=False)] = BASIC
        As = coefficients.normal(size=(m, n)) * (coefficients.random((m, n)) < 0.5)
        status, x, basis, _ = solver._start(hint, np.hstack([As, np.eye(m)]), np.zeros(n + m), lb, ub)
        assert basis.size == m
        nonbasic = status[n:] != BASIC
        assert np.all(x[n:][nonbasic] == 0.0)
        assert np.all(np.isin(status[n:][nonbasic], (AT_LOWER, AT_UPPER)))


@cache
def _forms():
    """Standard forms of generated CP and DC models, and of dense random
    ones with 1-17 structural columns."""
    gen = benchmark_module("gen")
    forms = []
    for build in (build_cp_welfare, build_dc_welfare):
        for shape in ((4, 1), (6, 2), (12, 4)):
            A, _, _, _, _, n = solver.standard_form(build(gen.make_case(gen.CaseSpec(*shape), 1, 0)))
            forms.append((A, n))
    rng = np.random.default_rng(5)
    for n in range(1, 18):
        m = int(rng.integers(1, 40))
        A = np.eye(m, n + m, n)
        A[:, :n] = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.5)
        forms.append((A, n))
    return forms


@pytest.mark.parametrize("form", range(len(_forms())))
def test_the_slack_shortcuts_equal_the_dense_products(form):
    A, n = _forms()[form]
    m, N = A.shape
    assert np.array_equal(A[:, n:], np.eye(m))
    As = A[:, :n]
    rng = np.random.default_rng(form)
    for _ in range(20):
        Binv = np.linalg.inv(rng.normal(size=(m, m)) + 3.0 * np.eye(m))
        # nonbasic values: structural ones at bounds or zero, slacks at 0
        xN = rng.normal(size=N) * (rng.random(N) < 0.6)
        xN[n:] = 0.0
        np.testing.assert_allclose(As @ xN[:n], A @ xN, rtol=1e-12, atol=1e-12)
        for r in (rng.normal(size=m), Binv[rng.integers(m)]):
            product = solver._row_times(r, As)
            assert np.array_equal(product[n:], r)  # the slack part is r itself
            np.testing.assert_allclose(product, r @ A, rtol=1e-12, atol=1e-12)
        W = np.column_stack([solver._column(Binv, A, j, n) for j in range(N)])
        assert np.array_equal(W[:, n:], Binv)  # a slack column is a column of B^-1
        np.testing.assert_allclose(W, Binv @ A, rtol=1e-12, atol=1e-12)


def test_a_slack_column_of_the_inverse_is_a_copy():
    # exchange updates B^-1 in place while it reads the entering column
    Binv = np.arange(9.0).reshape(3, 3)
    Binv[0, 1] = -0.0
    A = np.eye(3, 5, 2)
    w = solver._column(Binv, A, 3, 2)
    Binv[:] = 7.0
    assert w.tolist() == [0.0, 4.0, 7.0] and np.signbit(w).sum() == 0
