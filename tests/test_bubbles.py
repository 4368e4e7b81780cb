"""Tests for the one-loop bubbles and their beta-asymptotics."""

import math

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
    # under u = 2v; both sides by independent quadrature.
    assert abs(bubbles.k_constant("pairing")
               - bubbles.k_constant("density")) < 1e-10


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
    # measured rate is close to e^{-beta}.  Residuals are formed at
    # working precision, so the fit is meaningful past the double
    # noise floor of the values.
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
