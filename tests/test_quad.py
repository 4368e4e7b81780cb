"""Tests for the adaptive cubature engine and the Monte-Carlo cross-check."""

import heapq
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanhove_lab import quad
from vanhove_lab.errors import NonFiniteSample
from vanhove_lab.quad import (QuadResult, QuadSpec, combine, integrate,
                              integrate_mc, rule_pair)

UNIT = [(0.0, 1.0)]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_spec_rejects_bad_tolerances():
    with pytest.raises(ValueError):
        QuadSpec(abs_tol=0.0, rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadSpec(abs_tol=-1e-3)
    with pytest.raises(ValueError):
        QuadSpec(max_evaluations=0)
    with pytest.raises(ValueError):
        QuadSpec(abs_tol=math.nan, rel_tol=math.nan)
    with pytest.raises(ValueError):
        QuadSpec(abs_tol=math.inf)
    # A budget that is not a positive integer: NaN would never be reached.
    for budget in (math.nan, math.inf, 2.5, True):
        with pytest.raises(ValueError):
            QuadSpec(max_evaluations=budget)
    assert QuadSpec(max_evaluations=np.int64(1)).max_evaluations == 1


def test_bad_boxes_rejected():
    f = lambda P: P[:, 0]
    with pytest.raises(ValueError):
        rule_pair(f, UNIT * 5)
    with pytest.raises(ValueError):
        rule_pair(f, [(1.0, 0.0)])
    with pytest.raises(ValueError):
        rule_pair(f, [(0.0, math.inf)])
    with pytest.raises(ValueError):
        rule_pair(f, (0.0, 1.0))


def test_wrong_integrand_shape_rejected():
    with pytest.raises(ValueError):
        integrate(lambda P: P, UNIT * 2, QuadSpec(abs_tol=1e-6))


def test_non_finite_sample_raises():
    def f(P):
        out = P[:, 0].copy()
        out[P[:, 0] > 0.5] = math.nan
        return out

    with pytest.raises(NonFiniteSample):
        integrate(f, UNIT, QuadSpec(abs_tol=1e-6))
    with pytest.raises(NonFiniteSample):
        integrate_mc(f, UNIT, samples=1000, rng_seed=0)


# ---------------------------------------------------------------------------
# rule exactness
# ---------------------------------------------------------------------------


def test_gk_pair_degrees_in_1d():
    # Kronrod-15 has degree 22 (degree-23 monomials come along free on
    # any interval, their leading odd part cancels on symmetric nodes);
    # the embedded Gauss-7 has degree 13, sharp at 14.
    for k in range(23 + 1):
        hi, lo, _, _ = rule_pair(lambda P, k=k: P[:, 0] ** k, UNIT)
        exact = 1.0 / (k + 1)
        assert abs(hi - exact) < 1e-14
        if k <= 13:
            assert abs(lo - exact) < 1e-14
    _, lo14, _, _ = rule_pair(lambda P: P[:, 0] ** 14, UNIT)
    assert abs(lo14 - 1.0 / 15.0) > 1e-10


@pytest.mark.parametrize("d", [2, 3, 4])
def test_genz_malik_degree_seven_exact(d):
    rng = np.random.default_rng(d)
    for _ in range(20):
        # random monomial of total degree <= 7
        powers = np.zeros(d, dtype=int)
        budget = 7
        for i in range(d):
            powers[i] = rng.integers(0, budget + 1)
            budget -= powers[i]
        exact = np.prod(1.0 / (powers + 1.0))

        def f(P, powers=powers):
            out = np.ones(len(P))
            for i, a in enumerate(powers):
                out *= P[:, i] ** a
            return out

        hi, lo, _, _ = rule_pair(f, UNIT * d)
        assert abs(hi - exact) < 1e-13
        if powers.sum() <= 5:
            assert abs(lo - exact) < 1e-13


def test_genz_malik_degree_is_sharp():
    hi, _, _, _ = rule_pair(lambda P: P[:, 0] ** 8, UNIT * 2)
    assert abs(hi - 1.0 / 9.0) > 1e-7


def test_odd_monomials_vanish_on_symmetric_box():
    hi, lo, _, _ = rule_pair(lambda P: P[:, 0] ** 3 * P[:, 1],
                             [(-1.0, 1.0)] * 2)
    assert abs(hi) < 1e-15 and abs(lo) < 1e-15


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(-3.0, 3.0), min_size=8, max_size=8))
def test_random_bivariate_polynomials_exact(coeffs):
    # sum of monomials x^i y^j with i + j <= 7 taken from a fixed list
    powers = [(0, 0), (1, 0), (0, 2), (3, 1), (2, 2), (5, 0), (1, 6), (7, 0)]

    def f(P):
        out = np.zeros(len(P))
        for c, (i, j) in zip(coeffs, powers):
            out += c * P[:, 0] ** i * P[:, 1] ** j
        return out

    exact = sum(c / ((i + 1.0) * (j + 1.0)) for c, (i, j) in zip(coeffs, powers))
    hi, _, _, _ = rule_pair(f, UNIT * 2)
    assert abs(hi - exact) < 1e-12 * (1.0 + sum(abs(c) for c in coeffs))


def test_rule_pair_on_shifted_box():
    hi, _, _, _ = rule_pair(lambda P: P[:, 0] ** 3, [(2.0, 5.0)])
    assert abs(hi - (5.0 ** 4 - 2.0 ** 4) / 4.0) < 1e-11


# ---------------------------------------------------------------------------
# adaptive integration
# ---------------------------------------------------------------------------


def test_constant_one_cell():
    r = integrate(lambda P: np.ones(len(P)), UNIT * 2, QuadSpec(abs_tol=1e-9))
    assert r.value == 1.0
    assert r.converged
    assert r.evaluations == 17  # a single degree-7 cell in 2D
    assert (r.rounds, r.leaves, r.frozen) == (0, 1, 0)


def test_separable_quartic_in_4d():
    r = integrate(lambda P: P.prod(axis=1), UNIT * 4, QuadSpec(abs_tol=1e-12))
    assert abs(r.value - 1.0 / 16.0) < 1e-10
    assert r.converged


def test_converged_error_meets_tolerance():
    spec = QuadSpec(abs_tol=1e-9, rel_tol=1e-9)
    r = integrate(lambda P: np.cos(3.0 * P[:, 0]) * np.exp(P[:, 1]),
                  UNIT * 2, spec)
    assert r.converged
    assert r.error_estimate >= 0.0
    assert r.error_estimate <= max(spec.abs_tol, spec.rel_tol * abs(r.value))
    exact = math.sin(3.0) / 3.0 * (math.e - 1.0)
    assert abs(r.value - exact) < 1e-9


def test_budget_exhaustion_flags_not_converged():
    q0 = 1e-3

    def f(P):
        eps = P[:, 0] + P[:, 1] - 1.0
        return (eps ** 2 - q0 ** 2) / (eps ** 2 + q0 ** 2) ** 2

    r = integrate(f, UNIT * 2, QuadSpec(abs_tol=1e-10, rel_tol=0.0,
                                        max_evaluations=500))
    assert not r.converged
    # the budget check runs between refinement rounds, so the overshoot
    # is at most one batch of split cells
    assert r.evaluations <= 500 + 2 * 32 * 17
    assert np.isfinite(r.value)


def test_tolerance_halving_stays_within_error_bars():
    def f(P):
        return 1.0 / (0.1 + P[:, 0] ** 2 + P[:, 1] ** 2)

    specs = [QuadSpec(abs_tol=t, rel_tol=0.0) for t in (1e-4, 5e-5, 2.5e-5)]
    results = [integrate(f, UNIT * 2, s) for s in specs]
    for a, b in zip(results, results[1:]):
        assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate


def test_complex_integrand():
    r = integrate(lambda P: np.exp(1j * P[:, 0]), UNIT, QuadSpec(abs_tol=1e-12))
    exact = (math.sin(1.0)) + 1j * (1.0 - math.cos(1.0))
    assert abs(r.value - exact) < 1e-11


def test_adaptive_matches_mc_on_ridge_integrand():
    # near-singular ridge eps = x + y at q0 = 1e-2, quadrature against
    # a million-sample Monte-Carlo oracle within 3 combined errors
    q0 = 1e-2

    def f(P):
        eps = P[:, 0] + P[:, 1]
        return (eps ** 2 - q0 ** 2) / (eps ** 2 + q0 ** 2) ** 2

    spec = QuadSpec(abs_tol=1e-7, rel_tol=1e-7, max_evaluations=4_000_000)
    ra = integrate(f, UNIT * 2, spec)
    rmc = integrate_mc(f, UNIT * 2, samples=1_000_000, rng_seed=11)
    assert ra.converged
    assert abs(ra.value - rmc.value) <= 3.0 * (ra.error_estimate
                                               + rmc.error_estimate)


def test_determinism_of_adaptive():
    def f(P):
        return np.sin(7.0 * P[:, 0] * P[:, 1])

    a = integrate(f, UNIT * 2, QuadSpec(abs_tol=1e-8))
    b = integrate(f, UNIT * 2, QuadSpec(abs_tol=1e-8))
    assert a.value == b.value and a.error_estimate == b.error_estimate
    assert a.evaluations == b.evaluations


def _ridge(P, q0=1e-2):
    eps = P[:, 0] + P[:, 1] - 1.0
    return (eps ** 2 - q0 ** 2) / (eps ** 2 + q0 ** 2) ** 2


# name: (integrand, box, spec, points per cell)
GOLDEN_CASES = {
    "gk15_1d": (lambda P: np.sqrt(P[:, 0]) * np.cos(9.0 * P[:, 0]), UNIT,
                QuadSpec(abs_tol=1e-12, rel_tol=0.0), 15),
    "ridge_2d": (_ridge, UNIT * 2, QuadSpec(abs_tol=1e-4, rel_tol=0.0), 17),
    "complex_3d": (lambda P: np.exp(2j * P.sum(axis=1))
                   / (0.05 + P[:, 0] * P[:, 1] + P[:, 2] ** 2),
                   UNIT * 3, QuadSpec(abs_tol=1e-7, rel_tol=0.0), 33),
    "inverse_square_4d": (lambda P: 1.0 / (0.1 + P.sum(axis=1)) ** 2, UNIT * 4,
                          QuadSpec(abs_tol=1e-7, rel_tol=0.0), 57),
    "budget_exhausted_2d": (_ridge, UNIT * 2, QuadSpec(
        abs_tol=1e-12, rel_tol=0.0, max_evaluations=20_000), 17),
}

# (value, error_estimate, evaluations, converged, rounds)
GOLDEN_RESULTS = {
    "gk15_1d": (0.017140478845611692, 9.343145486171637e-13, 34545, True, 23),
    "ridge_2d": (-9.210439670730027, 9.948321067034438e-05, 618613, True, 60),
    "complex_3d": ((-0.9440039858097862 + 1.3100805641719737j),
                   9.930076667138675e-08, 174471, True, 35),
    "inverse_square_4d": (0.31253555688413, 9.854741124035166e-08, 279585, True,
                          34),
    "budget_exhausted_2d": (-9.228896646880646, 3.7730248266568256, 21063, False,
                            17),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_outputs_are_bit_identical(name):
    """The engine's refinement sequence is part of its contract.

    These numbers must not move under any change to the bookkeeping.  A
    change to the batch rule or to the rules changes the refinement and so
    these values: it must re-record them and say so in ``CHANGES.md``.
    """
    f, box, spec, npts = GOLDEN_CASES[name]
    r = integrate(f, box, spec)
    assert (r.value, r.error_estimate, r.evaluations, r.converged, r.rounds) \
        == GOLDEN_RESULTS[name]
    # every split turns one cell into two, so leaves = 1 + splits
    assert r.leaves + r.frozen == 1 + (r.evaluations // npts - 1) // 2
    assert r.rounds > 0 and r.frozen == 0


@pytest.mark.parametrize("box, npts, evaluations", [
    ([(1.0, 1.0 + 1e-13)], 15, 7665),
    ([(1.0, 1.0 + 1e-13), (1.0, 1.0 + 1e-13)], 17, 49691),
])
def test_cells_too_thin_to_split_are_frozen(box, npts, evaluations):
    # A step inside a box a few hundred ulps wide: bisection reaches
    # cells whose halves no longer move the center, and those freeze.
    # A batch of frozen cells does not end refinement: the engine goes on
    # with the remaining cells until every one is frozen or the budget is
    # used up.
    def f(P):
        return np.all(P > 1.0 + 3.3e-14, axis=1).astype(float)

    spec = QuadSpec(abs_tol=1e-300, rel_tol=0.0, max_evaluations=200_000)
    r = integrate(f, box, spec)
    assert not r.converged
    assert np.isfinite(r.value) and np.isfinite(r.error_estimate)
    assert r.evaluations == evaluations
    assert r.frozen > 0
    assert r.leaves == 0 or r.evaluations >= spec.max_evaluations
    assert r.leaves + r.frozen == 1 + (r.evaluations // npts - 1) // 2


def _ridge_nd(P, q0=1e-2):
    eps = P.sum(axis=1) - 0.5 * P.shape[1]
    return (eps ** 2 - q0 ** 2) / (eps ** 2 + q0 ** 2) ** 2


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_budget_overshoot_is_at_most_one_minimum_batch(d):
    # At an unreachable tolerance every round is as large as the error
    # excess allows; near the end of the budget the rounds shrink so that
    # the last one overshoots by at most a minimum batch of split cells.
    npts = quad._RULES[d].npts
    spec = QuadSpec(abs_tol=1e-12, rel_tol=0.0, max_evaluations=300_000)
    r = integrate(_ridge_nd, UNIT * d, spec)
    assert not r.converged
    assert spec.max_evaluations <= r.evaluations \
        <= spec.max_evaluations + 2 * quad._BATCH[d] * npts


@pytest.mark.parametrize("abs_tol", [1e-5, 1e-7])
def test_mirror_twins_split_in_the_same_round(abs_tol):
    # Im f is odd under x -> -x on a box symmetric in x, so Im I = 0 when the
    # partition is mirror symmetric.  Twin cells' priorities differ in the
    # last bits (summation order), so only the engine's tie rule keeps them
    # in one round; without it Im I is off by up to 4e-10 here.
    def f(P):
        return 1.0 / (0.02 - 1j * P[:, 0] + P[:, 1] ** 2)

    r = integrate(f, [(-1.0, 1.0)] * 2, QuadSpec(abs_tol=abs_tol, rel_tol=0.0))
    assert r.converged
    assert abs(r.value.imag) <= 1e-15 * abs(r.value)


@pytest.mark.parametrize("ties", [False, True])
def test_queue_pops_in_heap_order(ties):
    # The cell queue keeps only a head of the worst cells sorted; it must
    # hand them out exactly as a heap of (-priority, id) keys would.
    rng = np.random.default_rng(5)
    q, heap, n = quad._Queue(8), [], 0
    for _ in range(300):
        m = int(rng.integers(1, 12))
        pri = rng.integers(0, 6, m) / 4.0 if ties else rng.random(m)
        q.push(np.arange(n, n + m), pri)
        for key in zip((-pri).tolist(), range(n, n + m)):
            heapq.heappush(heap, key)
        n += m
        k = int(rng.integers(0, 14))
        ids, top = q.top(k)
        want = [heapq.heappop(heap) for _ in range(min(k, len(heap)))]
        assert [(-p, i) for p, i in zip(top.tolist(), ids.tolist())] == want
        q.drop(len(ids))
        assert len(q) == len(heap)
    assert q.ids().tolist() == sorted(i for _, i in heap)


# ---------------------------------------------------------------------------
# scaling and summing results
# ---------------------------------------------------------------------------


def _accounting(r):
    return (r.value, r.error_estimate, r.evaluations, r.converged)


def test_scaled_negative_factor_keeps_error_positive():
    r = QuadResult(value=1.5 - 0.5j, error_estimate=0.25, evaluations=17,
                   converged=False, rounds=3, leaves=4, frozen=1)
    s = r.scaled(-4.0)
    assert s.value == -6.0 + 2.0j
    assert s.error_estimate == 1.0
    assert (s.evaluations, s.converged, s.rounds, s.leaves, s.frozen) \
        == (17, False, 3, 4, 1)


def test_combine_sums_accounting_and_ands_converged():
    a = QuadResult(value=1.0, error_estimate=0.25, evaluations=10,
                   converged=True, rounds=1, leaves=2, frozen=0)
    b = QuadResult(value=2.0j, error_estimate=0.5, evaluations=20,
                   converged=False, rounds=3, leaves=4, frozen=5)
    assert combine(a, b) == QuadResult(
        value=1.0 + 2.0j, error_estimate=0.75, evaluations=30,
        converged=False, rounds=4, leaves=6, frozen=5)
    assert combine(a, a).converged
    assert not combine(b, a, a).converged
    assert combine(a) == a


def test_helpers_equal_the_hand_built_forms():
    r1 = integrate(lambda P: np.sin(7.0 * P[:, 0] * P[:, 1]), UNIT * 2,
                   QuadSpec(abs_tol=1e-8))
    r2 = integrate(lambda P: np.exp(-3.0 * P[:, 0]), UNIT,
                   QuadSpec(abs_tol=1e-12))
    assert r1.rounds > 0 and r1.leaves > 0
    s = r1.scaled(-4.0)
    assert s == replace(r1, value=-4.0 * r1.value,
                        error_estimate=4.0 * r1.error_estimate)
    assert _accounting(s) == _accounting(QuadResult(
        value=-4.0 * r1.value, error_estimate=4.0 * r1.error_estimate,
        evaluations=r1.evaluations, converged=r1.converged))
    c = combine(r1, r2).scaled(8.0)
    assert _accounting(c) == _accounting(QuadResult(
        value=8.0 * (r1.value + r2.value),
        error_estimate=8.0 * (r1.error_estimate + r2.error_estimate),
        evaluations=r1.evaluations + r2.evaluations,
        converged=r1.converged and r2.converged))
    assert (c.rounds, c.leaves, c.frozen) == (
        r1.rounds + r2.rounds, r1.leaves + r2.leaves, r1.frozen + r2.frozen)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def test_mc_constant_is_exact():
    r = integrate_mc(lambda P: np.ones(len(P)), [(0.0, 2.0), (-1.0, 1.0)],
                     samples=500, rng_seed=3)
    assert r.value == 4.0
    assert r.error_estimate == 0.0
    assert r.converged
    assert (r.rounds, r.leaves, r.frozen) == (0, 0, 0)  # no cells in MC


def test_mc_linear_within_three_stderr():
    r = integrate_mc(lambda P: P[:, 0], UNIT, samples=1_000_000, rng_seed=7)
    assert abs(r.value - 0.5) <= 3.0 * r.error_estimate
    assert r.evaluations == 1_000_000


def test_mc_bit_identical_for_same_seed():
    f = lambda P: np.exp(P[:, 0] * P[:, 1])
    a = integrate_mc(f, UNIT * 2, samples=10_000, rng_seed=42)
    b = integrate_mc(f, UNIT * 2, samples=10_000, rng_seed=42)
    assert a.value == b.value and a.error_estimate == b.error_estimate
    c = integrate_mc(f, UNIT * 2, samples=10_000, rng_seed=43)
    assert c.value != a.value


def test_mc_minimum_samples():
    with pytest.raises(ValueError):
        integrate_mc(lambda P: P[:, 0], UNIT, samples=50, rng_seed=0)
