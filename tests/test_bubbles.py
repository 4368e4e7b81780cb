"""Tests for the one-loop bubbles and their beta-asymptotics."""

import functools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanhove_lab import bubbles
from vanhove_lab.quad import QuadSpec

ORACLE2D = QuadSpec(abs_tol=1e-9, rel_tol=1e-9, max_evaluations=2_000_000)


def bars(result):
    return 3.0 * result.error_estimate


def value(kind, beta):
    return bubbles.bubble_result(kind, beta).value


# ---------------------------------------------------------------------------
# mpmath oracles: the constants and the 1D forms at high precision
# ---------------------------------------------------------------------------

_U_CUT = 200  # truncation of the semi-infinite constant integrals


@functools.lru_cache(maxsize=None)
def _closed_forms(dps=50):
    """K and K' from their closed forms, rounded to dps digits.

    Ten guard digits make them equal, as mpf values, to the 50-digit
    quadratures of the defining integrals; without them the cancellation
    in K' leaves it two units in the last place off.
    """
    with mp.workdps(dps + 10):
        K = mp.log(mp.pi / 2) - mp.euler
        K_prime = (K ** 2 + mp.pi ** 2 / 6 - 2 * mp.log(2) ** 2
                   - mp.log(2 * mp.pi) ** 2 - 2 * mp.zeta(0, derivative=2))
    with mp.workdps(dps):
        return +K, +K_prime


@functools.lru_cache(maxsize=None)
def _k_quadrature(definition):
    """The defining integrals of K at 50 digits, truncated at u = 400,
    where the discarded tail is below 4 e^{-400} (ln 400 + 1)^2."""
    with mp.workdps(50):
        if definition == "pairing":
            return mp.quad(lambda v: mp.log(2 * v) / mp.cosh(v) ** 2,
                           [0, 1, 10, _U_CUT])
        return mp.quad(lambda u: mp.log(u) / (2 * mp.cosh(u / 2) ** 2),
                       [0, 2, 20, 2 * _U_CUT])


def _k_prime_quadrature():
    """int_0^200 (ln 2v)^2 / cosh^2 v dv at 50 digits."""
    with mp.workdps(50):
        return mp.quad(lambda v: mp.log(2 * v) ** 2 / mp.cosh(v) ** 2,
                       [0, 1, 10, _U_CUT])


def _bubble_ph_mpf(b):
    upper = min(b, mp.mpf(2 * _U_CUT))
    pts = [p for p in (mp.mpf(0), mp.mpf(2), mp.mpf(20)) if p < upper]
    return -mp.quad(lambda u: mp.log(b / u) / mp.cosh(u / 2) ** 2,
                    pts + [upper])


def _bubble_pp_mpf(b):
    upper = min(b / 2, mp.mpf(_U_CUT))
    pts = [p for p in (mp.mpf(0), mp.mpf(1), mp.mpf(10)) if p < upper]
    return mp.quad(lambda v: mp.log(2 * v / b) ** 2 / mp.cosh(v) ** 2,
                   pts + [upper])


@functools.lru_cache(maxsize=None)
def oracle(kind, beta, dps):
    """Value and value - prediction of the 1D form at dps digits, as
    floats.  The residual needs about -log10|residual| digits more than
    the value: 50 digits drift by 4e-12 for pp at beta = 80."""
    K, K_prime = _closed_forms(dps)
    with mp.workdps(dps):
        b = mp.mpf(beta)
        if kind == "ph":
            value = _bubble_ph_mpf(b)
            pred = -2 * mp.log(b) + 2 * K
        else:
            value = _bubble_pp_mpf(b)
            pred = mp.log(b) ** 2 - 2 * K * mp.log(b) + K_prime
        return float(value), float(value - pred)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("beta", [0.0, -3.0])
def test_nonpositive_beta_rejected(beta):
    for kind in ("ph", "pp"):
        with pytest.raises(ValueError):
            bubbles.bubble_result(kind, beta)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        bubbles.bubble_result("zs", 10.0)
    with pytest.raises(ValueError):
        bubbles.BubbleResult(kind="zs", beta=10.0, value=0.0,
                             asymptotic_prediction=0.0, residual=0.0)
    with pytest.raises(ValueError):
        bubbles.k_constant("momentum")


def test_inconsistent_residual_rejected():
    with pytest.raises(ValueError):
        bubbles.BubbleResult(kind="ph", beta=10.0, value=-4.0,
                             asymptotic_prediction=-4.0, residual=0.5)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def test_k_definitions_coincide():
    # ln(2v)/cosh^2 v and ln(u)/(2 cosh^2(u/2)) are the same integral
    # under u = 2v; both sides by independent double quadrature, each
    # against the closed form.
    kp = bubbles.k_constant("pairing")
    kd = bubbles.k_constant("density")
    K = bubbles.k_constant()
    assert abs(kp - kd) < 1e-12
    assert abs(kp - K) < 1e-12 and abs(kd - K) < 1e-12


def test_closed_forms_equal_the_quadratures_at_working_precision():
    # the mpmath oracles agree as 50-digit mpf values, and the double
    # literals are those values rounded once
    K, K_prime = _closed_forms()
    assert K == _k_quadrature("pairing")
    assert K == _k_quadrature("density")
    assert K_prime == _k_prime_quadrature()
    assert bubbles.k_constant() == float(K)
    assert bubbles.k_prime_constant() == float(K_prime)
    assert float(K) == float(_closed_forms(100)[0])
    assert float(K_prime) == float(_closed_forms(100)[1])


def test_k_prime_positive():
    # (ln 2v)^2 / cosh^2 v is nonnegative, not identically zero.
    assert bubbles.k_prime_constant() > 0.0


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------


def test_ph_prediction_at_beta_50():
    K = bubbles.k_constant()
    assert abs(value("ph", 50.0) - (-2.0 * math.log(50.0) + 2.0 * K)) \
        < 1e-6


def test_pp_prediction_at_beta_50():
    K = bubbles.k_constant()
    L = math.log(50.0)
    pred = L ** 2 - 2.0 * K * L + bubbles.k_prime_constant()
    assert abs(value("pp", 50.0) - pred) < 1e-6


def test_ph_monotone_decreasing():
    vals = [value("ph", b) for b in (5.0, 10.0, 20.0, 40.0, 80.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_pp_ratio_approaches_one():
    gaps = [abs(value("pp", b) / math.log(b) ** 2 - 1.0)
            for b in (1e2, 1e3, 1e4)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.05


def test_residual_decay_rate():
    # |value - prediction| should fall at least like e^{-beta/2}; the
    # measured rate is close to e^{-beta}.  Residuals come from the tail
    # series, so the fit is meaningful past the double noise floor of
    # the values.
    betas = np.array([10.0, 20.0, 40.0, 80.0])
    for kind in ("ph", "pp"):
        res = np.array([abs(bubbles.bubble_result(kind, b).residual)
                        for b in betas])
        assert np.all(res > 0.0)
        slope = np.polyfit(betas, np.log(res), 1)[0]
        assert slope <= -0.5


@pytest.mark.parametrize("kind", ["ph", "pp"])
def test_adjacent_differences_track_prediction_derivative(kind):
    K = bubbles.k_constant()
    for b1, b2 in ((20.0, 40.0), (40.0, 80.0)):
        dv = (value(kind, b2) - value(kind, b1)) / (b2 - b1)
        mid = 0.5 * (b1 + b2)
        dp = (2.0 * math.log(mid) - 2.0 * K) / mid if kind == "pp" \
            else -2.0 / mid
        assert abs(dv / dp - 1.0) < 0.05


@pytest.mark.parametrize("kind", ["ph", "pp"])
@pytest.mark.parametrize("beta", [0.5, 1.0, 1.99, 2.0, 5.0, 10.0, 20.0, 50.0,
                                  80.0])
def test_value_and_residual_match_high_precision_oracle(kind, beta):
    # both sides of beta_c = 2: the substituted 1D form below, the tail
    # series from 2 up
    value, residual = oracle(kind, beta, 100)
    r = bubbles.bubble_result(kind, beta)
    assert abs(r.value - value) <= max(1e-12 * abs(value), 1e-15)
    assert abs(r.residual - residual) <= 1e-12 * abs(residual)


@pytest.mark.parametrize("kind", ["ph", "pp"])
@pytest.mark.parametrize("beta", [100.0, 150.0, 250.0])
def test_large_beta_residual_matches_150_digit_oracle(kind, beta):
    # the residual sits 45-113 decades under the value: far past what a
    # 50-digit subtraction resolves
    residual = oracle(kind, beta, 150)[1]
    r = bubbles.bubble_result(kind, beta)
    assert r.residual < 0.0
    assert abs(r.residual - residual) <= 1e-12 * abs(residual)


# ---------------------------------------------------------------------------
# 2D consistency oracles
# ---------------------------------------------------------------------------


def test_ph_2d_oracle_matches_reduction():
    r = bubbles.bubble_ph_2d(10.0, ORACLE2D)
    assert r.converged
    assert abs(r.value.real - value("ph", 10.0)) <= max(bars(r), 1e-10)


def test_pp_2d_oracle_matches_reduction():
    r = bubbles.bubble_pp_2d(10.0, ORACLE2D)
    assert r.converged
    assert abs(r.value.real - value("pp", 10.0)) <= max(bars(r), 1e-10)


# ---------------------------------------------------------------------------
# result type and rows
# ---------------------------------------------------------------------------


def test_determinism():
    a = bubbles.bubble_result("ph", 17.0)
    b = bubbles.bubble_result("ph", 17.0)
    assert (a.value, a.asymptotic_prediction, a.residual) \
        == (b.value, b.asymptotic_prediction, b.residual)


@settings(max_examples=12, deadline=None)
@given(beta=st.floats(min_value=0.5, max_value=150.0),
       kind=st.sampled_from(["ph", "pp"]))
def test_result_signs_and_consistency(beta, kind):
    # B_ph integrates a negative integrand, B_pp a positive one; the
    # stored residual agrees with the double difference to rounding.
    r = bubbles.bubble_result(kind, beta)
    assert (r.value < 0.0) if kind == "ph" else (r.value > 0.0)
    scale = max(1.0, abs(r.value), abs(r.asymptotic_prediction))
    assert abs(r.residual - (r.value - r.asymptotic_prediction)) \
        <= 8e-15 * scale
