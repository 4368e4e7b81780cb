"""Thermal statistics: frozen high-precision values, algebraic identities,
and the pole-free kernel numerator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanhove_lab.errors import ZeroFrequency
from vanhove_lab.matsubara import (
    ThermalState,
    approx_delta,
    fermi,
    sigma2_kernel,
)
from vanhove_lab.quad import QuadSpec, integrate

# mpmath dps=40 references
FERMI_10_02 = 0.1192029220221175559402709  # 1/(1+e^2)
DELTA_10_05 = 0.06648056670790154913998535  # 10/(4 cosh^2(2.5))


def test_state_validation():
    with pytest.raises(ValueError):
        ThermalState(beta=0.0)
    with pytest.raises(ValueError):
        ThermalState(beta=-3.0)
    with pytest.raises(ValueError):
        ThermalState.finite(math.inf)
    assert ThermalState.zero().zero_temperature
    assert ThermalState.finite(4.0).beta == 4.0


def test_fermi_values():
    assert fermi(ThermalState.finite(1.0), 0.0) == 0.5
    zt = ThermalState.zero()
    assert fermi(zt, -0.3) == 1.0
    assert fermi(zt, 0.3) == 0.0
    assert fermi(zt, 0.0) == 0.5
    assert fermi(ThermalState.finite(10.0), 0.2) == pytest.approx(
        FERMI_10_02, rel=1e-14
    )


def test_fermi_vectorized():
    s = ThermalState.finite(3.0)
    E = np.array([-1.0, 0.0, 0.5, 2.0])
    out = fermi(s, E)
    assert out.shape == E.shape
    assert out == pytest.approx([fermi(s, float(e)) for e in E], rel=1e-15)


@pytest.mark.parametrize("beta", [1e-2, 1.0, 10.0, 1e4])
def test_fermi_is_scipy_expit_bit_for_bit(beta):
    # fermi resolves expit lazily; the bits must be scipy's, not a
    # numpy rewriting of 1/(1 + e^x), which differs in the last place
    from scipy.special import expit

    s = ThermalState.finite(beta)
    E = np.concatenate([[0.0, -0.0, 1.0, -1.0, 1e4 / beta, -1e4 / beta],
                        np.linspace(-1.0, 1.0, 2001)])
    out = fermi(s, E)
    assert np.array_equal(out, expit(-beta * E))
    for e in E[:6]:
        assert fermi(s, float(e)) == float(expit(-beta * e))


@given(
    beta=st.floats(1e-2, 1e4),
    E=st.floats(-50.0, 50.0),
)
def test_fermi_complement(beta, E):
    s = ThermalState.finite(beta)
    assert fermi(s, E) + fermi(s, -E) == pytest.approx(1.0, abs=1e-15)


def test_approx_delta_values():
    assert approx_delta(ThermalState.finite(8.0), 0.0) == 2.0
    assert approx_delta(ThermalState.finite(10.0), 0.5) == pytest.approx(
        DELTA_10_05, rel=1e-14
    )
    # graceful underflow, no warnings
    assert approx_delta(ThermalState.finite(1e4), 1.0) == 0.0
    with pytest.raises(ValueError):
        approx_delta(ThermalState.zero(), 0.1)


def test_approx_delta_normalization():
    # int_{-1}^{1} delta_beta = tanh(beta/2); at beta=50 the tail
    # 1 - tanh(25) ~ 3.9e-22 is far below the quadrature tolerance.
    s = ThermalState.finite(50.0)
    r = integrate(
        lambda p: approx_delta(s, p[:, 0]),
        [(-1.0, 1.0)],
        QuadSpec(abs_tol=1e-12, rel_tol=0.0),
    )
    assert r.converged
    assert r.value == pytest.approx(1.0, abs=1e-10)


def test_kernel_removable_pole():
    s = ThermalState.finite(5.0)
    val = sigma2_kernel(s, 0.3, 0.2, 0.2, 0.1)
    f2 = fermi(s, 0.2)
    num = f2 * (f2 - 1.0)
    expected = -num / (1j * 0.1 + (0.2 - 0.2 - 0.3))
    assert val == pytest.approx(expected, rel=1e-14)
    assert abs(val) <= 2.0 / 0.1


def test_kernel_zt_sign_patterns():
    zt = ThermalState.zero()
    q0 = 0.1
    # alternating pattern contributes -1
    v = sigma2_kernel(zt, 0.1, -0.1, 0.1, q0)
    eps = -0.1 - 0.1 - 0.1
    assert v * -(1j * q0 + eps) == pytest.approx(-1.0, abs=1e-15)
    v = sigma2_kernel(zt, -0.1, 0.1, -0.1, q0)
    eps = 0.1 + 0.1 + 0.1
    assert v * -(1j * q0 + eps) == pytest.approx(-1.0, abs=1e-15)
    # same-sign pattern vanishes
    assert sigma2_kernel(zt, 0.1, 0.1, 0.1, q0) == 0.0
    assert sigma2_kernel(zt, -0.2, -0.1, -0.3, q0) == 0.0


def test_kernel_zero_frequency():
    with pytest.raises(ZeroFrequency):
        sigma2_kernel(ThermalState.finite(2.0), 0.1, 0.2, 0.3, 0.0)


def test_kernel_conjugation():
    s = ThermalState.finite(3.0)
    a = sigma2_kernel(s, 0.2, -0.4, 0.7, 0.35)
    b = sigma2_kernel(s, 0.2, -0.4, 0.7, -0.35)
    assert b == pytest.approx(np.conj(a), rel=1e-15)


@given(
    beta=st.floats(0.05, 200.0),
    E1=st.floats(-2.0, 2.0),
    E2=st.floats(-2.0, 2.0),
    E3=st.floats(-2.0, 2.0),
    q0=st.floats(1e-4, 2.0),
)
@settings(max_examples=200)
def test_kernel_bound(beta, E1, E2, E3, q0):
    val = sigma2_kernel(ThermalState.finite(beta), E1, E2, E3, q0)
    assert abs(val) <= 2.0 / q0 * (1.0 + 1e-12)


def test_bose_fermi_identity_bulk():
    # b(E2-E3)(f2-f3) = f2(f3-1).  The left side uses the expm1 Bose
    # factor and a sinh/cosh form of f2-f3 (stable down to gap 1e-9), so
    # the two sides come from different expression trees.
    rng = np.random.default_rng(42)
    n = 10_000
    beta = 10.0 ** rng.uniform(-1.0, 2.0, n)
    E2 = rng.uniform(-2.0, 2.0, n)
    gap = 10.0 ** rng.uniform(-9.0, 0.0, n) * rng.choice([-1.0, 1.0], n)
    E3 = E2 - gap
    # the gap actually seen by fermi() is the float difference E2 - E3
    g = E2 - E3
    f2m3 = np.sinh(-beta * g / 2.0) / (
        2.0 * np.cosh(beta * E2 / 2.0) * np.cosh(beta * E3 / 2.0)
    )
    lhs = (1.0 / np.expm1(beta * g)) * f2m3
    s_each = [ThermalState.finite(b) for b in beta]
    rhs = np.array(
        [fermi(s, e2) * (fermi(s, e3) - 1.0) for s, e2, e3 in zip(s_each, E2, E3)]
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_kernel_finite_beta_to_zt():
    zt = ThermalState.zero()
    q0 = 0.3
    pts = [(0.25, -0.2, 0.3), (-0.4, 0.35, -0.2), (0.5, -0.5, 0.25), (0.2, 0.4, -0.3)]
    m = min(abs(e) for trip in pts for e in trip)
    prev = None
    for beta in (10.0, 20.0, 40.0):
        s = ThermalState.finite(beta)
        diff = max(
            abs(sigma2_kernel(s, *p, q0) - sigma2_kernel(zt, *p, q0)) for p in pts
        )
        assert diff <= 8.0 / q0 * math.exp(-beta * m)
        if prev is not None:
            assert diff < prev
        prev = diff
