"""Self-energy operations: every reduction against its defining integral.

Oracle strategy: each reduced form is checked against direct quadrature
of the integral it came from, at moderate q0 where both sides converge
fast; exact symmetries are checked pointwise in floating point; the
brute-force Matsubara double sum pins the overall object; determinism
and input validation are covered at the API boundary.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanhove_lab import quad
from vanhove_lab.errors import ZeroFrequency
from vanhove_lab.matsubara import ThermalState, fermi
from vanhove_lab.quad import QuadSpec
from vanhove_lab import selfenergy as se

TIGHT = QuadSpec(abs_tol=1e-9, rel_tol=0.0, max_evaluations=4_000_000)
MEDIUM = QuadSpec(abs_tol=1e-6, rel_tol=0.0, max_evaluations=10_000_000)
LOOSE4D = QuadSpec(abs_tol=5e-5, rel_tol=0.0, max_evaluations=12_000_000)


def bars(*results) -> float:
    return 3.0 * sum(r.error_estimate for r in results)


# ---------------------------------------------------------------------------
# input validation
# ---------------------------------------------------------------------------


def test_zero_frequency_rejected_everywhere():
    st4 = ThermalState.finite(4.0)
    with pytest.raises(ZeroFrequency):
        se.sigma2(0.0, (0.0, 0.0), st4, MEDIUM)
    with pytest.raises(ZeroFrequency):
        se.im_d0_sigma2(0.0, MEDIUM)
    with pytest.raises(ZeroFrequency):
        se.d2_sigma2_xi_eta(0.0, MEDIUM)
    with pytest.raises(ZeroFrequency):
        se.d2_sigma2_xi_xi(0.0, MEDIUM)
    with pytest.raises(ZeroFrequency):
        se.zeta2(0.0, 4.0, MEDIUM)
    with pytest.raises(ZeroFrequency):
        se.b0_closed(0.0)
    with pytest.raises(ZeroFrequency):
        se.SelfEnergyPoint(q0=0.0, q=(0.0, 0.0), beta=4.0, value=0j)


def test_finite_beta_terms_validate_beta():
    with pytest.raises(ValueError):
        se.zeta2(0.3, 0.0, MEDIUM)
    with pytest.raises(ValueError):
        se.x1(0.3, -2.0, MEDIUM)
    with pytest.raises(ValueError):
        se.frequency_sum_sigma2(0.3, (0.0, 0.0), 0.0)


def test_im_d0_unknown_method_raises():
    with pytest.raises(ValueError):
        se.im_d0_sigma2(0.1, MEDIUM, method="magic")


def test_csv_row_roundtrip():
    row = se.csv_row(0.25, 1.5 - 2.5j, 1e-9, 12345, "d_omega")
    parts = row.split(",")
    assert len(parts) == 6
    assert float(parts[0]) == 0.25
    assert float(parts[1]) == 1.5
    assert float(parts[2]) == -2.5
    assert float(parts[3]) == 1e-9
    assert int(parts[4]) == 12345
    assert parts[5] == "d_omega"


def test_derivative_kind_names():
    assert {k.value for k in se.DerivativeKind} == {
        "none", "d_omega", "grad", "d_xi_xi", "d_xi_eta", "d_eta_eta"}


# ---------------------------------------------------------------------------
# sigma2: conjugation and the frequency-sum oracle
# ---------------------------------------------------------------------------


def test_sigma2_conjugation():
    st4 = ThermalState.finite(4.0)
    spec = QuadSpec(abs_tol=1e-5, rel_tol=0.0, max_evaluations=4_000_000)
    r_pos = se.sigma2(0.7, (0.3, -0.2), st4, spec)
    r_neg = se.sigma2(-0.7, (0.3, -0.2), st4, spec)
    assert r_neg.value == r_pos.value.conjugate()
    assert r_pos.derivative_kind is se.DerivativeKind.none
    assert r_pos.beta == 4.0


def test_sigma2_matches_frequency_sum():
    beta = 4.0
    q0 = math.pi / beta          # first fermionic frequency
    q = (0.3, -0.2)
    r_quad = se.sigma2(q0, q, ThermalState.finite(beta),
                       QuadSpec(abs_tol=1e-6, rel_tol=0.0,
                                max_evaluations=10_000_000))
    r_sum = se.frequency_sum_sigma2(q0, q, beta, cutoff=120.0, grid=12)
    assert abs(r_quad.value - r_sum.value) <= r_sum.budget
    assert r_sum.truncation_budget > 0 and r_sum.grid_budget > 0


# ---------------------------------------------------------------------------
# frequency derivative: three routes and evenness
# ---------------------------------------------------------------------------


def test_im_d0_reduced_matches_orthant_4d():
    r2 = se.im_d0_sigma2(0.05, QuadSpec(abs_tol=1e-8, rel_tol=0.0,
                                        max_evaluations=4_000_000))
    r4 = se.im_d0_sigma2(0.05, LOOSE4D, method="orthant4d")
    assert abs(r2.value - r4.value) <= bars(r2, r4)


def test_im_d0_reduced_matches_cube_4d():
    r2 = se.im_d0_sigma2(0.1, QuadSpec(abs_tol=1e-8, rel_tol=0.0,
                                       max_evaluations=4_000_000))
    r4 = se.im_d0_sigma2(0.1, QuadSpec(abs_tol=3e-4, rel_tol=0.0,
                                       max_evaluations=20_000_000),
                         method="cube4d")
    assert abs(r2.value - r4.value) <= bars(r2, r4)


def test_im_d0_even_in_q0_bitwise():
    spec = QuadSpec(abs_tol=1e-6, rel_tol=0.0, max_evaluations=2_000_000)
    r_pos = se.im_d0_sigma2(0.3, spec)
    r_neg = se.im_d0_sigma2(-0.3, spec)
    assert r_neg.value == r_pos.value
    assert r_pos.derivative_kind is se.DerivativeKind.d_omega
    assert r_pos.value.imag == 0.0


# ---------------------------------------------------------------------------
# gradient at the saddle: exact antisymmetry, zero value, FD cross-check
# ---------------------------------------------------------------------------


def test_s1_s2_reflection_antisymmetry_exact():
    rng = np.random.default_rng(0)
    P = rng.uniform(-1.0, 1.0, size=(10_000, 4))
    st8 = ThermalState.finite(8.0)
    for comp in (0, 1):
        a1 = se.s1_integrand(P, 0.1, st8, comp)
        b1 = se.s1_integrand(-P, 0.1, st8, comp)
        assert np.all(a1 + b1 == 0)
        a2 = se.s2_integrand(P, 0.1, st8, comp)
        b2 = se.s2_integrand(-P, 0.1, st8, comp)
        assert np.all(a2 + b2 == 0)
    # zero-temperature squared-denominator term has the same property
    a0 = se.s2_integrand(P, 0.1, ThermalState.zero(), 0)
    b0 = se.s2_integrand(-P, 0.1, ThermalState.zero(), 0)
    assert np.all(a0 + b0 == 0)


def test_grad_zero_within_error():
    g = se.grad_sigma2_at_vh(0.1, ThermalState.finite(8.0),
                             QuadSpec(abs_tol=1e-5, rel_tol=0.0,
                                      max_evaluations=6_000_000))
    assert g.value.shape == (2,)
    assert np.all(np.abs(g.value) <= 10.0 * np.maximum(g.error_estimate, 1e-16))


def test_grad_requires_finite_beta():
    with pytest.raises(ValueError):
        se.grad_sigma2_at_vh(0.1, ThermalState.zero(), MEDIUM)


def test_grad_finite_difference_cross_check():
    # the flat point must show in sigma2 itself, not just in S1+S2
    beta, q0, h = 4.0, 0.5, 1e-3
    st4 = ThermalState.finite(beta)
    spec = QuadSpec(abs_tol=1e-7, rel_tol=0.0, max_evaluations=20_000_000)

    def S(xi, eta):
        return se.sigma2(q0, (xi, eta), st4, spec).value

    fd_xi = (S(h, 0.0) - S(-h, 0.0)) / (2.0 * h)
    fd_eta = (S(0.0, h) - S(0.0, -h)) / (2.0 * h)
    # budget: quadrature error through the difference plus h^2 curvature
    assert abs(fd_xi) < 5e-4
    assert abs(fd_eta) < 5e-4


# ---------------------------------------------------------------------------
# mixed second derivative
# ---------------------------------------------------------------------------


def test_zeta12_routes_agree():
    for q0 in (0.2, 0.05):
        r_red = se._zeta12_reduced(q0, TIGHT)
        r_z = se._zeta12_zform(q0, QuadSpec(abs_tol=1e-8, rel_tol=0.0,
                                            max_evaluations=6_000_000))
        assert abs(r_red.value - r_z.value) <= bars(r_red, r_z)


def test_xi_eta_matches_direct_zt_quadrature():
    # the assembled zeta11 + zeta12 must reproduce the defining
    # double-denominator integral (with both derivatives applied) at
    # zero temperature; the direct side is a singular 4D quadrature
    q0 = 0.2
    r = se.d2_sigma2_xi_eta(q0, TIGHT)

    def f(P):
        x, y, xp, yp = P[:, 0], P[:, 1], P[:, 2], P[:, 3]
        E1 = (x - xp) * (y - yp)
        E2 = x * y
        E3 = xp * yp
        den = 1j * q0 + E2 - E3 - E1
        return (1.0 + 2.0 * E1 / den) * se._zt_numerator(E1, E2, E3) / den ** 2

    direct = quad.integrate(f, [(-1.0, 1.0)] * 4,
                            QuadSpec(abs_tol=2e-5, rel_tol=0.0,
                                     max_evaluations=30_000_000))
    assert abs(r.value - (-direct.value)) <= bars(r, direct)
    assert set(r.pieces) == {"zeta11", "zeta12"}
    assert r.derivative_kind is se.DerivativeKind.d_xi_eta


def test_xi_eta_unknown_method_raises():
    with pytest.raises(ValueError):
        se.d2_sigma2_xi_eta(0.2, MEDIUM, zeta12_method="magic")


# ---------------------------------------------------------------------------
# finite-temperature terms: sheared reductions against defining integrals
# ---------------------------------------------------------------------------


def _direct_finite_term(kind, q0, beta):
    state = ThermalState.finite(beta)

    def f(P):
        x, y, xp, yp = P[:, 0], P[:, 1], P[:, 2], P[:, 3]
        E1 = (x - xp) * (y - yp)
        eps = x * y - xp * yp - E1
        f2 = fermi(state, x * y)
        f3 = fermi(state, xp * yp)
        u = beta * E1
        den = 1j * q0 + eps
        if kind == "zeta2":
            return beta * se._g1(u) * (f2 - f3) / den
        if kind == "zeta3":
            return -2.0 * E1 * beta * se._delta1(u) * (f2 - f3) / den ** 2
        if kind == "x2":
            return (y - yp) ** 2 * beta ** 2 * se._ddelta1(u) * (f2 - f3) / den
        return 2.0 * beta * se._delta1(u) * (y - yp) ** 2 * (f2 - f3) / den ** 2

    return quad.integrate(f, [(-1.0, 1.0)] * 4, LOOSE4D)


def _reference_inner_reduce(x, delta, beta, g):
    """Reference panel rule: a callback reducer that builds the panel
    edges, node and weight matrices for each power-of-two bucket.  Also
    returns each row's panel count and whether its window was clipped."""
    n = len(x)
    scale = beta * np.abs(delta)
    with np.errstate(divide="ignore"):
        vmax = np.where(scale > 0, se._U_SUPPORT / np.where(scale > 0, scale, 1.0),
                        np.inf)
    lo = np.maximum(x - 1.0, -vmax)
    hi = np.minimum(x + 1.0, vmax)
    ok = hi > lo
    ulen = np.where(ok, scale * (hi - lo), 0.0)
    need = np.maximum(ulen / se._PANEL_UNITS, 1.0)
    m_row = np.clip(np.exp2(np.ceil(np.log2(need))), se._PANEL_MIN, se._PANEL_MAX)
    out = np.zeros(n, dtype=complex)
    for m in (se._PANEL_MIN, 8, 16, se._PANEL_MAX):
        idx = np.nonzero(ok & (m_row == m))[0]
        if len(idx) == 0:
            continue
        edges = (lo[idx, None]
                 + (hi - lo)[idx, None] * np.linspace(0.0, 1.0, m + 1)[None, :])
        c = (edges[:, 1:] + edges[:, :-1]) / 2.0
        h = (edges[:, 1:] - edges[:, :-1]) / 2.0
        v = (c[:, :, None] + h[:, :, None] * se._GL_NODES).reshape(len(idx), -1)
        w = (h[:, :, None] * se._GL_WEIGHTS[None, None, :]).reshape(len(idx), -1)
        out[idx] = g(v, w, idx)
    return out, m_row, ok & ((lo > x - 1.0) | (hi < x + 1.0))


def _reference_panel_sums(P, a, beta, kind):
    """Inner integrals through the reference reducer, with the thermal
    kernels of the 4D oracle and complex division."""
    state = ThermalState.finite(beta)
    x, y, yp = P[:, 0], P[:, 1], P[:, 2]
    delta = y - yp
    f2 = fermi(state, x * y)

    def g(v, w, idx):
        xs = x[idx][:, None]
        ds = delta[idx][:, None]
        xp = xs - v
        E1 = v * ds
        eps = (x * y)[idx][:, None] - xp * yp[idx][:, None] - E1
        u = beta * E1
        df = f2[idx][:, None] - fermi(state, xp * yp[idx][:, None])
        if kind == "zeta2":
            vals = beta * se._g1(u) * df / (1j * a + eps)
        elif kind == "zeta3":
            vals = -2.0 * E1 * beta * se._delta1(u) * df / (1j * a + eps) ** 2
        elif kind == "x2":
            vals = ds * ds * beta ** 2 * se._ddelta1(u) * df / (1j * a + eps)
        else:  # x3
            vals = 2.0 * beta * se._delta1(u) * ds * ds * df / (1j * a + eps) ** 2
        return np.sum(w * vals, axis=1)

    return _reference_inner_reduce(x, delta, beta, g)


def _kernel_rows():
    """Outer points (x, y, y'): random rows, 40 rows with y == y', and
    corners and near-zero y - y' by hand."""
    rng = np.random.default_rng(7)
    P = rng.uniform(-1.0, 1.0, size=(1100, 3))
    P[:40, 2] = P[:40, 1]
    P[40:50] = [[0.9, 0.95, -0.95], [-1.0, 1.0, -1.0], [0.0, -1.0, 1.0],
                [1.0, 0.0, 0.0], [0.5, 0.0, 0.0], [-0.3, 0.2, 0.2],
                [0.7, 1e-9, -1e-9], [-0.7, 0.5, 0.5 + 1e-12],
                [1.0, -1.0, 1.0], [-1.0, -1.0, -1.0]]
    return P


@pytest.mark.parametrize("kind", ["zeta2", "zeta3", "x2", "x3"])
@pytest.mark.parametrize("q0", [0.1, 0.3])
@pytest.mark.parametrize("beta", [4.0, 16.0, 64.0])
def test_panel_kernel_matches_reference_rows(kind, q0, beta):
    P = _kernel_rows()
    ref, m_row, clipped = _reference_panel_sums(P, q0, beta, kind)
    # The rows cover every panel bucket and clipped windows where beta
    # allows them (at beta = 4 no window is clipped and all use 4 panels).
    if beta == 64.0:
        assert set(m_row.tolist()) == {4.0, 8.0, 16.0, 32.0}
        assert clipped.sum() > 100
    got = se._panel_sums(P, q0, beta, kind)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)


def test_panel_kernel_rows_do_not_depend_on_batching():
    P = _kernel_rows()[:300]
    for kind in ("zeta2", "zeta3", "x2", "x3"):
        batch = se._panel_sums(P, 0.1, 16.0, kind)
        alone = np.array([se._panel_sums(P[i:i + 1], 0.1, 16.0, kind)[0]
                          for i in range(len(P))])
        assert (batch == alone).all(), kind


@pytest.mark.parametrize("kind,fn", [
    ("zeta2", se.zeta2), ("zeta3", se.zeta3), ("x2", se.x2), ("x3", se.x3)])
def test_sheared_reduction_matches_direct_4d(kind, fn):
    q0 = 0.3
    cases = [(4.0, 1e-6)]
    if kind in ("zeta2", "zeta3"):
        # beta = 8 sits at the peak of |zeta2|, |zeta3| at this q0, above
        # the beta = 4 values: pin the rising side on the defining
        # integral too.  The direct side stops at its budget with errors
        # near 1e-4; those bars dominate, so the reduced side runs looser.
        cases.append((8.0, 1e-5))
    for beta, tol in cases:
        r_red = fn(q0, beta, QuadSpec(abs_tol=tol, rel_tol=0.0,
                                      max_evaluations=6_000_000))
        r_dir = _direct_finite_term(kind, q0, beta)
        assert abs(r_red.value - r_dir.value) <= bars(r_red, r_dir), beta


@pytest.fixture(scope="module")
def finite_beta_terms():
    """zeta2/zeta3/x2/x3 at q0 = 0.3 for beta in {8, 32} (loose tol)."""
    spec = QuadSpec(abs_tol=1e-3, rel_tol=0.0, max_evaluations=10_000_000)
    out = {}
    for beta in (8.0, 32.0):
        out[beta] = {
            "zeta2": se.zeta2(0.3, beta, spec).value,
            "zeta3": se.zeta3(0.3, beta, spec).value,
            "x2": se.x2(0.3, beta, spec).value,
            "x3": se.x3(0.3, beta, spec).value,
        }
    return out


def test_zeta_terms_vanish_at_low_temperature(finite_beta_terms):
    t = finite_beta_terms
    assert abs(t[32.0]["zeta2"]) < abs(t[8.0]["zeta2"])
    assert abs(t[32.0]["zeta3"]) < abs(t[8.0]["zeta3"])


def test_zeta_terms_essentially_real(finite_beta_terms):
    for beta in (8.0, 32.0):
        assert abs(finite_beta_terms[beta]["zeta2"].imag) < 1e-8
        assert abs(finite_beta_terms[beta]["zeta3"].imag) < 1e-8


def test_x2_x3_converge_to_reduced_limits(finite_beta_terms):
    lim_x2 = 1j * se.i20_limit(0.3, TIGHT).value.imag
    lim_x3 = se.x3_limit(0.3, TIGHT).value
    t = finite_beta_terms
    assert abs(t[32.0]["x2"] - lim_x2) < abs(t[8.0]["x2"] - lim_x2)
    assert abs(t[32.0]["x3"] - lim_x3) < abs(t[8.0]["x3"] - lim_x3)
    # both terms are purely imaginary at every temperature
    for beta in (8.0, 32.0):
        assert abs(t[beta]["x2"].real) < 1e-8
        assert abs(t[beta]["x3"].real) < 1e-8


# ---------------------------------------------------------------------------
# pure second derivative
# ---------------------------------------------------------------------------


@settings(max_examples=12, deadline=None)
@given(q0=st.floats(min_value=0.05, max_value=2.0))
def test_b0_closed_matches_parent_quadrature(q0):
    r = se.b0_direct(q0, QuadSpec(abs_tol=1e-11, rel_tol=0.0,
                                  max_evaluations=2_000_000))
    assert abs(se.b0_closed(q0) - r.value) < 1e-9


def test_re_i20_equals_minus_half_b0():
    # exact structural identity of the two real pieces: the 1D arctan
    # integral evaluates to minus half the boundary term
    for q0 in (0.3, 0.37, 0.7, 1.5):
        r = se._re_i20(q0, TIGHT)
        assert abs(r.value + 0.5 * se.b0_closed(q0)) < 1e-8


def test_im_x1_reduced_matches_direct_4d():
    q0 = 0.4
    r_red = se._im_x10(q0, TIGHT)
    r_dir = se.x1_zt_direct(q0, QuadSpec(abs_tol=2e-5, rel_tol=0.0,
                                         max_evaluations=12_000_000))
    assert abs(np.real(r_dir.value)) <= 3.0 * r_dir.error_estimate
    assert abs(np.imag(r_dir.value) - r_red.value) <= bars(r_red, r_dir)


def test_pure_derivative_is_sum_of_pieces_and_purely_imaginary():
    # x1 + x2 + x3 reconstructs d2/dxi2 of sigma2; the reflection
    # (y,y') -> (-y,-y') forces its real part to vanish identically
    q0, beta = 0.5, 8.0
    s4 = QuadSpec(abs_tol=1e-4, rel_tol=0.0, max_evaluations=20_000_000)
    s3 = QuadSpec(abs_tol=1e-5, rel_tol=0.0, max_evaluations=10_000_000)
    total = (se.x1(q0, beta, s4).value + se.x2(q0, beta, s3).value
             + se.x3(q0, beta, s3).value)
    assert abs(total.real) < 1e-3
    # central finite differences of sigma2 at h = 0.05, Richardson
    # extrapolated, give +1.99426 j at this (q0, beta)
    assert abs(total.imag - 1.99426) < 5e-3


def test_pure_derivative_totals_converge_to_assembled_limit():
    q0 = 0.5
    zt = se.d2_sigma2_xi_xi(q0, TIGHT, include_imaginary=True)
    lim = 1j * zt.value.imag
    s4 = QuadSpec(abs_tol=1e-4, rel_tol=0.0, max_evaluations=20_000_000)
    dists = {}
    for beta in (8.0, 32.0):
        total = (se.x1(q0, beta, s4).value + se.x2(q0, beta, s4).value
                 + se.x3(q0, beta, s4).value)
        dists[beta] = abs(total - lim)
    assert dists[32.0] < dists[8.0]


def test_xi_xi_pieces_and_flags():
    r0 = se.d2_sigma2_xi_xi(0.5, TIGHT)
    assert r0.value.imag == 0.0
    assert set(r0.pieces) == {"b0", "re_i20"}
    assert abs(r0.value.real - (r0.pieces["b0"] + r0.pieces["re_i20"])) < 1e-12
    r1 = se.d2_sigma2_xi_xi(0.5, TIGHT, include_imaginary=True)
    assert r1.value.real == r0.value.real
    total = r1.pieces["im_x1"] + r1.pieces["im_i20"] + r1.pieces["im_x3"]
    assert abs(r1.value.imag - total) < 1e-12
    # the x3 limit carries exactly twice the weight of Im I20, opposite sign
    assert abs(r1.pieces["im_x3"] + 2.0 * r1.pieces["im_i20"]) < 1e-7
    assert r1.derivative_kind is se.DerivativeKind.d_xi_xi


def test_xi_xi_deterministic():
    a = se.d2_sigma2_xi_xi(0.5, MEDIUM, include_imaginary=True)
    b = se.d2_sigma2_xi_xi(0.5, MEDIUM, include_imaginary=True)
    assert a.value == b.value
    assert a.evaluations == b.evaluations


def test_eta_eta_alias_matches_xi_xi():
    a = se.d2_sigma2_xi_xi(0.4, MEDIUM)
    b = se.d2_sigma2_eta_eta(0.4, MEDIUM)
    assert a.value == b.value
    assert b.derivative_kind is se.DerivativeKind.d_eta_eta
