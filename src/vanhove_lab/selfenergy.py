"""Second-order self-energy of the xy saddle model and its derivatives.

Everything here evaluates one object,

    Sigma2(q0, q) = -< (f(E1) + b(E2-E3)) (f(E2) - f(E3)) / (iq0 + eps) >,

an average over two loop momenta (x, y), (x', y') in [-1,1]^2 with

    E2 = x y,    E3 = x' y',    E1 = (xi + x - x')(eta + y - y'),
    eps = E2 - E3 - E1,         q = (xi, eta),

or one of its derivatives at q = 0.  The raw 4D integral is available
(:func:`sigma2`) but it is never the road to small q0; each derivative
ships with exact inner integrations that lower the dimension before any
adaptive quadrature runs:

  im_d0_sigma2       frequency derivative at zero temperature.  The
                     kernel Re (iq0+eps)^{-2} is a perfect derivative in
                     eps, so the innermost momentum integral is exact and
                     the next one is a logarithm; a 2D integrand remains.
                     Routes "orthant4d" and "cube4d" keep the singular 4D
                     parents alive as consistency oracles.
  grad_sigma2_at_vh  first momentum derivatives by direct 4D quadrature:
                     a thermal-delta term S1 plus a squared-denominator
                     term S2.  Both vanish by the reflection
                     (x,y,x',y') -> -(x,y,x',y'); the integrands are
                     exposed so the antisymmetry can be checked pointwise.
  d2_sigma2_xi_eta   mixed second derivative, zero temperature, real
                     part: zeta11 + zeta12, where zeta11 reuses the
                     im_d0_sigma2 machinery and zeta12 is a 1D boundary
                     term plus a 2D regular term left over after the two
                     exact transverse integrations.
  d2_sigma2_xi_xi    pure second derivative, zero temperature.  The
                     derivative is purely imaginary (a reflection
                     conjugates the kernel); the imaginary part
                     assembles three limit terms, one 2D quadrature and
                     two closed forms, and the reported real part is the
                     reduction's bounded log-growth profile b0 + Re I20
                     = b0/2, also in closed form.
  zeta2/zeta3, x2/x3 finite-temperature remainder terms of the two second
                     derivatives.  The thermal weights concentrate on
                     E1 = (x-x')(y-y') = 0, so the shear v = x - x' plus
                     an inner panel rule sized to the weight's support in
                     u = beta E1 replaces a hopeless direct quadrature.
                     Two reflections fold the outer box onto its quarter
                     x >= 0, y >= 0, and only the real (zeta) or
                     imaginary (x) part that the fold keeps is
                     integrated there; x1 (4D) is folded the same way.

Every operation validates q0 != 0 and returns a ``QuadResult``: the
value with its quadrature error estimate, evaluation count, convergence
flag and refinement telemetry.  The gradient is the (xi, eta) pair of
them, and each second derivative is the sum of its named pieces, kept in
``pieces`` as results of their own.  Only the frequency-sum oracle has a
result type of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Tuple

import numpy as np

from . import quad
from .errors import ZeroFrequency
from .matsubara import ThermalState, _numerator, approx_delta, fermi, sigma2_kernel
from .quad import QuadResult, QuadSpec, combine

__all__ = [
    "FrequencySumResult",
    "sigma2",
    "frequency_sum_sigma2",
    "im_d0_sigma2",
    "grad_sigma2_at_vh",
    "s1_integrand",
    "s2_integrand",
    "d2_sigma2_xi_eta",
    "d2_sigma2_xi_xi",
    "zeta2",
    "zeta3",
    "x1",
    "x1_zt_direct",
    "x2",
    "x3",
    "i20_limit",
    "x3_limit",
    "b0_closed",
    "b0_direct",
]


@dataclass(frozen=True)
class FrequencySumResult:
    """Truncated double Matsubara sum with its honest error budget.

    ``budget`` is the sum of a truncation probe (value shift when the
    frequency cutoff halves) and a grid probe (value shift when the
    momentum grid coarsens by 2); the analytic value must land within it.
    """

    value: complex
    truncation_budget: float
    grid_budget: float

    @property
    def budget(self) -> float:
        return self.truncation_budget + self.grid_budget


def _require_q0(q0: float) -> None:
    if q0 == 0:
        raise ZeroFrequency("q0 = 0 sits on the kernel pole wall")
    if not math.isfinite(q0):
        raise ValueError(f"q0 must be finite, got {q0}")


def _energies(P: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(E1, E2, E3) at q = 0 for the 4D points (x, y, x', y') of ``P``."""
    x, y, xp, yp = P[:, 0], P[:, 1], P[:, 2], P[:, 3]
    return (x - xp) * (y - yp), x * y, xp * yp


# ---------------------------------------------------------------------------
# Sigma2 itself: 4D quadrature and the brute-force frequency-sum oracle
# ---------------------------------------------------------------------------


def sigma2(q0: float, q: Tuple[float, float], state: ThermalState,
           spec: QuadSpec) -> QuadResult:
    """Sigma2(q0, q) by adaptive 4D quadrature of the summed kernel.

    The numerator is assembled through the pole-free product identity,
    so |integrand| <= 2/|q0| everywhere; that bound is asserted on every
    sample in debug runs.  Conjugation Sigma2(-q0, q) = conj Sigma2(q0, q)
    holds pointwise because q0 only enters through iq0.
    """
    _require_q0(q0)
    xi, eta = float(q[0]), float(q[1])
    if not (math.isfinite(xi) and math.isfinite(eta)):
        raise ValueError(f"momentum must be finite, got {q}")
    bound = 2.0 / abs(q0) * (1.0 + 1e-12)

    def f(P: np.ndarray) -> np.ndarray:
        x, y, xp, yp = P[:, 0], P[:, 1], P[:, 2], P[:, 3]
        E1 = (xi + x - xp) * (eta + y - yp)
        vals = sigma2_kernel(state, E1, x * y, xp * yp, q0)
        if __debug__:
            assert np.max(np.abs(vals)) <= bound
        return np.asarray(vals)

    return quad.integrate(f, [(-1.0, 1.0)] * 4, spec)


def frequency_sum_sigma2(q0: float, q: Tuple[float, float], beta: float,
                         cutoff: float = 200.0, grid: int = 20) -> FrequencySumResult:
    """Brute-force oracle: Sigma2 as a truncated double Matsubara sum.

    Sums -(1/beta^2) C(w1,E1) C(w2,E2) C(q0-w1+w2,E3) over fermionic
    w1, w2 with |w| <= cutoff*pi/beta (the dependent third frequency is
    not truncated) on a midpoint momentum grid with ``grid`` cells per
    axis.  The budget halves the cutoff and the grid separately and adds
    the two observed shifts; the summed-kernel evaluation must agree
    within it.  Slow by design: this is the definition, not the method.
    """
    _require_q0(q0)
    beta = ThermalState.finite(beta).beta
    if grid < 2:
        raise ValueError("frequency sum needs grid >= 2")
    v = _freq_sum(q0, q, beta, cutoff, grid)
    v_cut = _freq_sum(q0, q, beta, cutoff / 2.0, grid)
    v_grid = _freq_sum(q0, q, beta, cutoff, grid // 2)
    return FrequencySumResult(
        value=v, truncation_budget=abs(v - v_cut), grid_budget=abs(v - v_grid))


def _freq_sum(q0: float, q: Tuple[float, float], beta: float,
              cutoff: float, grid: int) -> complex:
    xi, eta = float(q[0]), float(q[1])
    # fermionic frequencies (2n+1) pi/beta with |2n+1| <= cutoff
    n_max = int((cutoff - 1.0) // 2)
    odd = np.arange(-n_max - 1, n_max + 1) * 2 + 1
    w = odd * (math.pi / beta)
    # The third frequency q0 - w_n + w_m = q0 + 2 (m - n) pi / beta depends
    # on m - n only, so the (n, m) matrix is a window view of one row.
    N = len(w)
    w3 = q0 + np.arange(1 - N, N) * (2.0 * math.pi / beta)
    centers = -1.0 + (np.arange(grid) + 0.5) * (2.0 / grid)
    cell = (2.0 / grid) ** 4
    X, Y, XP, YP = np.meshgrid(centers, centers, centers, centers,
                               indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel(), XP.ravel(), YP.ravel()], axis=1)
    total = 0.0 + 0.0j
    chunk = 64
    for lo in range(0, len(pts), chunk):
        P = pts[lo:lo + chunk]
        x, y, xp, yp = P[:, 0], P[:, 1], P[:, 2], P[:, 3]
        E1 = (xi + x - xp) * (eta + y - yp)
        E2 = x * y
        E3 = xp * yp
        C1 = 1.0 / (1j * w[None, :] - E1[:, None])
        C2 = 1.0 / (1j * w[None, :] - E2[:, None])
        C3 = np.lib.stride_tricks.sliding_window_view(
            1.0 / (1j * w3[None, :] - E3[:, None]), N, axis=1)[:, ::-1]
        inner = np.einsum("bn,bnm->bm", C1, C3)
        total += np.einsum("bm,bm->", C2, inner)
    return complex(-total * cell / beta ** 2)


# ---------------------------------------------------------------------------
# Frequency derivative Im dSigma2/dq0 at zero temperature
# ---------------------------------------------------------------------------

# Re (iq0+eps)^{-2}; the real part of the differentiated kernel.
def _phi(q0: float, eps: np.ndarray) -> np.ndarray:
    e2 = eps * eps
    q2 = q0 * q0
    return (e2 - q2) / (e2 + q2) ** 2


def _i_reduced(q0: float, spec: QuadSpec) -> QuadResult:
    """I(q0) after both exact inner integrations, as a 2D quadrature.

    Starting from the positive-orthant form of the differentiated kernel,
    the innermost variable integrates exactly (the kernel is a perfect
    derivative in the energy argument) and the next one gives logarithms:

      I(q0) = 2 int_0^1 dy int_0^1 dy' [L(y+y') - L(y+2y')] / y',
      L(a)  = log(1 + (a/q0)^2) / a.

    The y' -> 0 limit of the bracket is a derivative of L, so the
    integrand is finite; quadrature nodes never sit on the boundary.
    """

    def L(a: np.ndarray) -> np.ndarray:
        return np.log1p((a / q0) ** 2) / a

    def f(P: np.ndarray) -> np.ndarray:
        y, yp = P[:, 0], P[:, 1]
        return (L(y + yp) - L(y + 2.0 * yp)) / yp

    r = quad.integrate(f, [(0.0, 1.0), (0.0, 1.0)], spec)
    return r.scaled(2.0)


def _i_orthant_4d(q0: float, spec: QuadSpec) -> QuadResult:
    """I(q0) by direct 4D quadrature of its positive-orthant parent.

    I = 4 int_0^1 dy dy' dx' int_0^{x'} dx Phi((2x'-x)y' + yx'); the
    inner simplex is mapped to the cube by x = s x' (Jacobian x'), and
    then x' = t^2 (Jacobian 2t), so the integrand is
    2 t^3 Phi(t^2 ((2-s)y' + y)).  Phi changes sign where its argument
    crosses q0, a layer of width q0/w at the x' = 0 face, w = (2-s)y' + y.
    In x' the cubature's error estimate can miss that layer on a coarse
    cell and report convergence far from the value (257 times its error
    at q0 = 0.05, abs_tol 5e-5); in t the layer is about sqrt(q0/w) wide
    and the estimate covers the gap.  No inner integral is done exactly,
    so the route stays independent of :func:`_i_reduced`.
    """

    def f(P: np.ndarray) -> np.ndarray:
        y, yp, t, s = P[:, 0], P[:, 1], P[:, 2], P[:, 3]
        t2 = t * t
        return 2.0 * t2 * t * _phi(q0, t2 * ((2.0 - s) * yp + y))

    r = quad.integrate(f, [(0.0, 1.0)] * 4, spec)
    return r.scaled(4.0)


def _im_d0_cube_4d(q0: float, spec: QuadSpec) -> QuadResult:
    """Im dSigma2/dq0 by direct quadrature over the full cube [-1,1]^4.

    The integrand is Phi(eps) times the zero-temperature occupation
    numerator; equality with -2 I(q0) validates the whole sign-pattern
    folding that produces the orthant form.
    """
    zt = ThermalState.zero()

    def f(P: np.ndarray) -> np.ndarray:
        E1, E2, E3 = _energies(P)
        return _phi(q0, E2 - E3 - E1) * _numerator(zt, E1, E2, E3)

    return quad.integrate(f, [(-1.0, 1.0)] * 4, spec)


def im_d0_sigma2(q0: float, spec: QuadSpec,
                 method: str = "reduced") -> QuadResult:
    """Im dSigma2/dq0 at q = 0, zero temperature.

    Even in q0 by construction: the kernel depends on q0 only through
    q0^2, so the sign is folded away at this boundary and negative q0 is
    served by the same evaluation.  ``method`` picks the production 2D
    reduction ("reduced") or one of the 4D consistency oracles
    ("orthant4d" on the positive orthant, "cube4d" on the full cube with
    occupation factors); all three agree within error bars.  The orthant
    oracle integrates in t = sqrt(x'), which widens the q0-thin layer at
    its x' = 0 face to about sqrt(q0), so that its own error estimate
    covers its gap to the reduction (tested for q0 in [0.01, 0.5] and
    abs_tol in [3e-5, 1e-3]).
    """
    _require_q0(q0)
    a = abs(q0)
    if method == "reduced":
        return _i_reduced(a, spec).scaled(-2.0)
    if method == "orthant4d":
        return _i_orthant_4d(a, spec).scaled(-2.0)
    if method == "cube4d":
        return _im_d0_cube_4d(a, spec)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# First momentum derivatives at q = 0
# ---------------------------------------------------------------------------


def _transverse(P: np.ndarray, component: int) -> np.ndarray:
    # d(E1)/d(xi) = y - y' and d(E1)/d(eta) = x - x' at q = 0
    if component == 0:
        return P[:, 1] - P[:, 3]
    return P[:, 0] - P[:, 2]


def s1_integrand(P: np.ndarray, q0: float, state: ThermalState,
                 component: int = 0) -> np.ndarray:
    """Thermal-delta part of -d(Sigma2)/dq_i at q = 0.

    (y-y') (f2-f3) (-delta_beta(E1)) / (iq0 + eps) for the xi component;
    x-x' replaces y-y' for eta.  Odd under negating all four momentum
    coordinates: the prefactor flips sign and every other factor is a
    function of pairwise products, so the values at P and -P cancel
    exactly in floating point, not just to rounding.
    """
    _require_q0(q0)
    E1, E2, E3 = _energies(P)
    eps = E2 - E3 - E1
    f2 = fermi(state, E2)
    f3 = fermi(state, E3)
    return _transverse(P, component) * (f2 - f3) * (
        -approx_delta(state, E1)) / (1j * q0 + eps)


def s2_integrand(P: np.ndarray, q0: float, state: ThermalState,
                 component: int = 0) -> np.ndarray:
    """Squared-denominator part of -d(Sigma2)/dq_i at q = 0.

    (y-y') (f1+b23)(f2-f3) / (iq0 + eps)^2, with the numerator built
    through the pole-free product identity.  Same exact antisymmetry as
    the S1 integrand.
    """
    _require_q0(q0)
    E1, E2, E3 = _energies(P)
    eps = E2 - E3 - E1
    num = _numerator(state, E1, E2, E3)
    return _transverse(P, component) * num / (1j * q0 + eps) ** 2


def grad_sigma2_at_vh(q0: float, state: ThermalState,
                      spec: QuadSpec) -> Tuple[QuadResult, QuadResult]:
    """grad Sigma2(q0, 0) by direct 4D quadrature of S1 + S2.

    Returns the (xi, eta) components of the derivative itself, so minus
    the S sums; the negation flips only signs, those of zeros included.
    Both components are exact zeros of the integral; the quadrature
    returns a residual bounded by its own error estimate, which is the
    test.  Needs finite beta: S1 contains the thermal delta.
    """
    _require_q0(q0)

    def component(c: int) -> QuadResult:
        def f(P: np.ndarray) -> np.ndarray:
            return (s1_integrand(P, q0, state, c)
                    + s2_integrand(P, q0, state, c))

        r = quad.integrate(f, [(-1.0, 1.0)] * 4, spec)
        return replace(r, value=-r.value)

    return component(0), component(1)


# ---------------------------------------------------------------------------
# Mixed second derivative at zero temperature: zeta11 + zeta12
# ---------------------------------------------------------------------------


def _zeta12_reduced(q0: float, spec: QuadSpec) -> QuadResult:
    """zeta12: the double-denominator part of the mixed derivative.

    After the zero-temperature occupation patterns restrict the domain
    and the two transverse variables integrate exactly, what is left is
    a boundary term BT (1D, the difference of the partial-fraction
    bracket between its endpoint and its vanishing-separation limit) and
    a regular term RT (2D).  zeta12 = -4 (BT + RT).
    """
    q2 = q0 * q0

    def bt(P: np.ndarray) -> np.ndarray:
        y = P[:, 0]
        Q1 = q2 + (y + 1.0) ** 2
        Q2 = q2 + (y + 2.0) ** 2
        b1 = -np.log(Q1 / Q2) - np.log1p((y + 2.0) ** 2 / q2) / (2.0 * (y + 2.0))
        b0 = 2.0 * y / (q2 + y * y) - np.log1p(y * y / q2) / (2.0 * y)
        return b1 - b0

    r_bt = quad.integrate(bt, [(0.0, 1.0)], spec)

    def rt(P: np.ndarray) -> np.ndarray:
        y, eta = P[:, 0], P[:, 1]
        Q1 = q2 + (y + eta) ** 2
        Q2 = q2 + (y + 2.0 * eta) ** 2
        return (2.0 / eta) * ((y + eta) / Q1 - (y + 2.0 * eta) / Q2)

    r_rt = quad.integrate(rt, [(0.0, 1.0), (0.0, 1.0)], spec)
    return combine(r_bt, r_rt).scaled(-4.0)


def _zeta12_zform(q0: float, spec: QuadSpec) -> QuadResult:
    """zeta12 by the 3D cross-route that keeps the partial-fraction
    variable z explicit instead of integrating it exactly.

    zeta12 = -8 int_{[0,1]^3} Re[ a z^2 / ((iq0+za)(iq0+zb)^2) ],
    a = y+y', b = y+2y'.
    """

    def f(P: np.ndarray) -> np.ndarray:
        y, yp, z = P[:, 0], P[:, 1], P[:, 2]
        a = y + yp
        b = y + 2.0 * yp
        den = (1j * q0 + z * a) * (1j * q0 + z * b) ** 2
        return np.real(a * z * z / den)

    r = quad.integrate(f, [(0.0, 1.0)] * 3, spec)
    return r.scaled(-8.0)


def d2_sigma2_xi_eta(q0: float, spec: QuadSpec,
                     zeta12_method: str = "reduced") -> QuadResult:
    """Re d2 Sigma2 / dxi deta at q = 0, zero temperature.

    Assembled as zeta11 + zeta12: zeta11 = 2 I(q0) reuses the frequency
    derivative's 2D reduction, zeta12 comes from the double-denominator
    term.  The returned value is real by construction (the reductions
    compute the real part; the imaginary part of the derivative is not
    assembled here).  ``zeta12_method`` is "reduced" (1D+2D production
    route) or "zform" (3D cross-route).  The result is the sum of its
    ``pieces`` "zeta11" and "zeta12".

    Both derivatives act on E1 alone; at q = 0, d_xi E1 d_eta E1 = E1
    and d_xi d_eta E1 = 1, so d_xi d_eta K(E1) = d/dE1 (E1 K'(E1)).  At
    zero temperature the Fermi step's delta(E1) comes multiplied by E1,
    so no boundary term survives and only the denominators are
    differentiated: the derivative is -< (1 + 2 E1/den) N / den^2 >,
    with den = iq0 + eps and N the occupation numerator.  With
    L = log(1/|q0|) the leading term is (4 log 2 - 2) L^2:
    zeta11 carries 4 log 2 L^2 (the log 2 of the frequency derivative,
    int_0^inf dt / ((1+t)(1+2t)) = log 2), and zeta12 carries -2 L^2,
    all of it from the log1p(y^2/q0^2) / (2y) term of BT; RT and the
    rest of BT grow like a single L.
    """
    _require_q0(q0)
    a = abs(q0)
    if zeta12_method == "reduced":
        route = _zeta12_reduced
    elif zeta12_method == "zform":
        route = _zeta12_zform
    else:
        raise ValueError(f"unknown zeta12_method {zeta12_method!r}")
    pieces = {"zeta11": _i_reduced(a, spec).scaled(2.0),
              "zeta12": route(a, spec)}
    return replace(combine(*pieces.values()), pieces=pieces)


# ---------------------------------------------------------------------------
# Finite-temperature remainder terms: the shear + inner panel machinery
# ---------------------------------------------------------------------------

# Thermal kernels in the scaled variable u = beta E1.  delta1 is the
# beta = 1 thermal delta; g1 = -(u delta1)' is smooth, even, and
# integrates to zero over the line, which is what makes the remainder
# terms die as beta grows.  Along a row the integrand has three widths in
# v: the thermal kernel's 1/(beta |y-y'|), the resolvent pole's distance
# q0/|2y'-y| from the real axis (eps is linear in v), and the width
# 1/(beta |y'|) of the Fermi step of f3 at v = x.
_U_SUPPORT = 60.0       # |u| beyond this every kernel is below 1e-25
_PANEL_UNITS = 4.0      # target panel length in u-units
_POLE_UNITS = 4.0       # ... in pole distances q0 / |2y' - y|
_FERMI_UNITS = 64.0     # ... in Fermi-step widths 1 / (beta |y'|)
_PANEL_MIN = 2
_PANEL_MAX = 32
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)
_BLOCK = 16384          # panel nodes per block of rows
# Nodes and weights of m equal Gauss panels on [0, 1], for each panel count m.
_PANELS = {m: ((np.arange(0.5, m)[:, None] / m + 0.5 / m * _GL_NODES).ravel(),
               np.tile(0.5 / m * _GL_WEIGHTS, m))
           for m in (_PANEL_MIN, 4, 8, 16, _PANEL_MAX)}
# Each kind's kernel is delta1(u) (f2 - f3) k / (iq0 + eps)^p: the factor k
# of (u, t = e^{-|u|}, 1/(1+t), y - y', beta), the power p, and the parity:
# the sign s in S(x, -y, -y') = s conj S(x, y, y') for the complex inner
# integral S, so the term is real (s = +1) or imaginary (s = -1), and the
# panel sums compute only Re S or Im S.  x2 keeps np.tanh, as (1-t)/(1+t)
# loses its relative accuracy when u -> 0.
_KERNELS = {
    "zeta2": (lambda u, t, r, ds, beta: beta * (np.abs(u) * (1.0 - t) * r - 1.0),
              1, 1),
    "zeta3": (lambda u, t, r, ds, beta: -2.0 * u, 2, 1),
    "x2": (lambda u, t, r, ds, beta: -(beta * ds) ** 2 * np.tanh(u / 2.0), 1, -1),
    "x3": (lambda u, t, r, ds, beta: 2.0 * beta * ds * ds, 2, -1),
}


def _panel_sums(P: np.ndarray, a: float, beta: float, kind: str) -> np.ndarray:
    """The part the kind's parity keeps of the inner integral of its kernel
    over v = x - x' in [x-1, x+1], clipped to the kernel support
    |beta (y-y') v| <= _U_SUPPORT, for each outer point (x, y, y') of
    ``P``, at q0 = ``a``: the real part for parity +1, the imaginary part
    for parity -1, as a real array.

    Each window is cut into m Gauss panels, m the smallest power of two
    in [2, 32] whose panels are no longer than _PANEL_UNITS thermal
    u-units, _POLE_UNITS pole distances and _FERMI_UNITS Fermi-step
    widths.  On the kernel tests' rows at q0 in {0.1, 0.3} and beta in
    {4, 16, 64} every row is then within 5.7e-5 of max(1, |row|) of a
    512-panel reference.  Below q0 ~ 0.05 the 32-panel cap binds: at
    beta = 16 rows are off by up to 3e-4 at q0 = 0.05 and 0.1 at
    q0 = 0.03.  The outer cubature's reported error leaves this inner
    error out; adding it needs a second output from the integrand.

    Rows of one m go in blocks of about _BLOCK nodes, with
    delta1 = t / (1+t)^2 from t = e^{-|u|} and
    1/(ia+eps) = (eps - ia)/D, 1/(ia+eps)^2 = (eps^2 - a^2 - 2ia eps)/D^2,
    D = eps^2 + a^2.  So the real part sums k eps / D or
    k (eps^2 - a^2) / D^2, and the imaginary part is -p a times the sum of
    k / D or k eps / D^2: two exps per node (t and the Fermi factor f3),
    and one product and one sum per block.  A call allocates six block
    buffers once, and every step writes into them in place; only ``fermi``
    and the kind's factor return new arrays.  The panel count is a pure
    per-row function and each row sum is an ``einsum``,
    whose bits do not depend on the other rows of a block (a BLAS ``gemv``
    product's do), so values cannot depend on how the adaptive outer
    quadrature batches its cells.
    """
    factor, power, parity = _KERNELS[kind]
    c = 1.0 if parity > 0 else -power * a
    state = ThermalState.finite(beta)
    x, y, yp = P[:, 0], P[:, 1], P[:, 2]
    delta, e2 = y - yp, x * y
    f2 = fermi(state, e2)
    scale = beta * np.abs(delta)
    with np.errstate(divide="ignore"):
        vmax = np.where(scale > 0, _U_SUPPORT / np.where(scale > 0, scale, 1.0),
                        np.inf)
    lo = np.maximum(x - 1.0, -vmax)
    length = np.minimum(x + 1.0, vmax) - lo
    ok = length > 0
    per_v = np.maximum.reduce([scale / _PANEL_UNITS,
                               np.abs(yp + yp - y) / (_POLE_UNITS * a),
                               beta * np.abs(yp) / _FERMI_UNITS])
    need = np.maximum(np.where(ok, per_v * length, 0.0), 1.0)
    m_row = np.clip(np.exp2(np.ceil(np.log2(need))), _PANEL_MIN, _PANEL_MAX)
    out = np.zeros(len(P))
    scratch = np.empty((6, _BLOCK))
    for m, (U, W) in _PANELS.items():
        rows = np.flatnonzero(ok & (m_row == m))
        per = _BLOCK // len(U)
        blocks = scratch[:, :per * len(U)].reshape(6, per, len(U))
        for s in range(0, len(rows), per):
            idx = rows[s:s + per]
            v, e3, eps, t, r, w = blocks[:, :len(idx)]
            L, ds = length[idx, None], delta[idx, None]
            np.multiply(L, U, out=v)
            v += lo[idx, None]
            np.subtract(x[idx, None], v, out=e3)
            e3 *= yp[idx, None]
            np.subtract(e2[idx, None], e3, out=eps)
            k = fermi(state, e3)
            np.subtract(f2[idx, None], k, out=k)
            # E1 takes v's buffer, and u takes e3's once fermi has read it
            E1 = np.multiply(v, ds, out=v)
            eps -= E1
            u = np.multiply(E1, beta, out=e3)
            np.abs(u, out=t)
            np.negative(t, out=t)
            np.exp(t, out=t)
            np.add(t, 1.0, out=r)
            np.divide(1.0, r, out=r)
            np.multiply(t, r, out=w)
            w *= r
            k *= w
            k *= factor(u, t, r, ds, beta)
            D = np.multiply(eps, eps, out=w)
            D += a * a
            if power == 2:
                D *= D
            k /= D
            if parity > 0 and power == 2:
                eps *= eps
                eps -= a * a
            if parity > 0 or power == 2:
                k *= eps
            out[idx] = L[:, 0] * (c * np.einsum("ij,j->i", k, W))
    return out


def _folded(f: quad.Integrand, d: int, spec: QuadSpec,
            parity: int) -> QuadResult:
    """Integral over [-1,1]^d of a complex integrand F, from the real ``f``
    that is the part of F its ``parity`` keeps (Re F for +1, Im F for -1),
    integrated on the quarter x >= 0, y >= 0 of the first two coordinates
    (x, y) and unfolded exactly.

    F must be even under P -> -P and turn into ``parity`` times its
    conjugate when (y, y') -> -(y, y'), y' the last coordinate.  These two
    reflections and their product carry the quarter onto the other three
    sign quadrants of (x, y), so the whole integral is 2 (I_q + parity
    conj I_q): 4 Re I_q or 4i Im I_q.  The discarded part is odd under the
    (y, y') flip and never computed.  The quarter runs at abs_tol / 4 and
    its value and error are scaled by 4 (by 4i for the value at parity -1),
    so its own test max(abs_tol / 4, rel_tol |v|) is the unfolded test and
    its ``converged``, evaluations and refinement telemetry stand as they
    are.
    """
    box = [(0.0, 1.0)] * 2 + [(-1.0, 1.0)] * (d - 2)
    r = quad.integrate(f, box, replace(spec, abs_tol=spec.abs_tol / 4.0))
    return r.scaled(4.0 if parity > 0 else 4j)


def _finite_beta_term(q0: float, beta: float, spec: QuadSpec,
                      kind: str) -> QuadResult:
    """The ``kind`` term: the inner integrals over the outer box (x, y, y')
    in [-1,1]^3, of which the panel sums keep the real or the imaginary
    part, integrated on the quarter x >= 0, y >= 0 (see :func:`_folded`).
    Negating (x, v, y, y') leaves E1, E2 and E3 unchanged; negating (y, y')
    negates all three, so f -> 1 - f and the resolvent conjugates, which
    gives the kind's parity."""
    _require_q0(q0)
    if not beta > 0:
        raise ValueError("finite-temperature term needs beta > 0")
    a = abs(q0)
    return _folded(lambda P: _panel_sums(P, a, beta, kind), 3, spec,
                   _KERNELS[kind][2])


def zeta2(q0: float, beta: float, spec: QuadSpec) -> QuadResult:
    """Mixed-derivative remainder with the differentiated thermal weight.

    zeta2 = < G_beta(E1) (f2-f3) / (iq0+eps) > over [-1,1]^4 with
    G_beta(E) = -E delta_beta'(E) - delta_beta(E) = beta g1(beta E).
    Evaluated through the shear v = x - x' (so E1 = v (y-y')) and the
    panel rule on the kernel support; g1 has zero mean, so the value
    comes from the variation of the smooth factor across the support and
    decays as beta -> infinity.  The decay is asymptotic only: while the
    thermal width is comparable to the band scale or to q0, |zeta2|
    first rises with beta.  It peaks near beta = 8 for q0 in [0.3, 0.5]
    and later for smaller q0 (near beta = 11 at q0 = 0.1).  Evaluated as
    4 Re I_q, from a real cubature of the inner integrals' real part on
    the quarter x >= 0, y >= 0 of the outer box (see
    :func:`_finite_beta_term`), so it is real by construction.
    """
    return _finite_beta_term(q0, beta, spec, "zeta2")


def zeta3(q0: float, beta: float, spec: QuadSpec) -> QuadResult:
    """Mixed-derivative remainder with the plain thermal delta.

    zeta3 = < 2 (-E1) delta_beta(E1) (f2-f3) / (iq0+eps)^2 >, evaluated
    by the same shear + panel machinery; the odd factor u delta1(u)
    supplies the cancellation here.  Like zeta2 it vanishes only as
    beta -> infinity: |zeta3| first rises, peaking near beta = 6-8 for
    q0 in [0.2, 0.5] and near beta = 11 at q0 = 0.1.  Evaluated, like
    zeta2, as 4 Re I_q, integrating only the real part on the quarter
    x >= 0, y >= 0 of the outer box.
    """
    return _finite_beta_term(q0, beta, spec, "zeta3")


def x2(q0: float, beta: float, spec: QuadSpec) -> QuadResult:
    """Differentiated-thermal-delta piece of the pure second derivative.

    x2 = < delta_beta'(E1) (y-y')^2 (f2-f3) / (iq0+eps) >.  Purely
    imaginary at every beta (the reflection (y,y') -> (-y,-y') negates
    every energy and conjugates the kernel, flipping the sign of the
    real part); its large beta limit is i Im I20, the bulk term of the
    pure derivative's limit (see :func:`i20_limit`).  That reflection
    folds the outer box onto its quarter x >= 0, y >= 0, where it is
    evaluated as 4i Im I_q from a real cubature of the inner integrals'
    imaginary part (see :func:`_finite_beta_term`).
    """
    return _finite_beta_term(q0, beta, spec, "x2")


def x3(q0: float, beta: float, spec: QuadSpec) -> QuadResult:
    """Plain-thermal-delta piece of the pure second derivative.

    x3 = < 2 delta_beta(E1) (y-y')^2 (f2-f3) / (iq0+eps)^2 >; purely
    imaginary at every beta by the same reflection as x2, converging to
    the closed form :func:`x3_limit` as beta grows.  Evaluated, like x2,
    as 4i Im I_q, integrating only the imaginary part on the quarter
    x >= 0, y >= 0 of the outer box.
    """
    return _finite_beta_term(q0, beta, spec, "x3")


# ---------------------------------------------------------------------------
# Pure second derivative at zero temperature
# ---------------------------------------------------------------------------


def _exact(value: complex) -> QuadResult:
    """A closed-form value as a result: error 0, no evaluations."""
    return QuadResult(value=value, error_estimate=0.0, evaluations=0,
                      converged=True)


def b0_closed(q0: float) -> float:
    """Boundary piece of the pure second derivative, in closed form.

    b0 = 2 int_0^2 log(1 + eta^2/q0^2) deta
       = 2 (2 log(1 + 4/q0^2) - 4 + 2 q0 arctan(2/q0)).
    """
    _require_q0(q0)
    a = abs(q0)
    return 2.0 * (2.0 * math.log1p(4.0 / a ** 2) - 4.0
                  + 2.0 * a * math.atan2(2.0, a))


def b0_direct(q0: float, spec: QuadSpec) -> QuadResult:
    """Boundary piece by 2D quadrature of its parent integral.

    b0 = 4 int_{-1}^{1} dy int_{-1}^{y} dy' (y-y') / (q0^2 + (y-y')^2),
    with the inner range mapped to t in [0,1] (Jacobian 1+y).  Agreement
    with b0_closed validates the exact z-integration.
    """
    _require_q0(q0)
    q2 = q0 * q0

    def f(P: np.ndarray) -> np.ndarray:
        y, t = P[:, 0], P[:, 1]
        d = y - (-1.0 + t * (y + 1.0))
        return (y + 1.0) * d / (q2 + d * d)

    r = quad.integrate(f, [(-1.0, 1.0), (0.0, 1.0)], spec)
    return r.scaled(4.0)


def _re_i20(q0: float, spec: QuadSpec) -> QuadResult:
    """Re I20 reduced to 1D, the oracle for :func:`i20_limit`'s -b0/2.

    Re I20 = -4 int_0^1 y dy int_{1-y}^{1+y} dv / (q0^2 + v^2)
           = -(4/q0) int_0^1 y [atan((1+y)/q0) - atan((1-y)/q0)] dy.
    """

    def f(P: np.ndarray) -> np.ndarray:
        y = P[:, 0]
        return y * (np.arctan((1.0 + y) / q0) - np.arctan((1.0 - y) / q0)) / q0

    r = quad.integrate(f, [(0.0, 1.0)], spec)
    return r.scaled(-4.0)


def _i20_3d(q0: float, spec: QuadSpec) -> QuadResult:
    """Full complex I20 from its 3D limit form (oracle, :func:`i20_limit`).

    I20 = 2 int_{-1}^1 dy int_{-1}^y dy' int_{-1}^1 dx Theta(-xy)
              [ y'/(iq0 + x(y-y'))^2 - (y'-2y)/(iq0 - x(y-y'))^2 ],
    with the inner y' range mapped to t in [0,1].  Theta is the
    half-convention step, i.e. the zero-temperature Fermi function of xy.
    """
    zt = ThermalState.zero()

    def f(P: np.ndarray) -> np.ndarray:
        y, t, x = P[:, 0], P[:, 1], P[:, 2]
        yp = -1.0 + t * (y + 1.0)
        d = y - yp
        occ = fermi(zt, x * y)
        return (y + 1.0) * occ * (yp / (1j * q0 + x * d) ** 2
                                  - (yp - 2.0 * y) / (1j * q0 - x * d) ** 2)

    r = quad.integrate(f, [(-1.0, 1.0), (0.0, 1.0), (-1.0, 1.0)], spec)
    return r.scaled(2.0)


def _im_x30(q0: float, spec: QuadSpec) -> QuadResult:
    """Im x3_limit by 3D quadrature (oracle, :func:`x3_limit`).

    Im x3_limit = 8 int dy int_{-1}^y dy' (y-y') int dx Theta(-xy)
                      Im (iq0 + x(y-y'))^{-2}.
    """
    zt = ThermalState.zero()

    def f(P: np.ndarray) -> np.ndarray:
        y, t, x = P[:, 0], P[:, 1], P[:, 2]
        d = y - (-1.0 + t * (y + 1.0))
        occ = fermi(zt, x * y)
        return (y + 1.0) * d * occ * np.imag(1.0 / (1j * q0 + x * d) ** 2)

    r = quad.integrate(f, [(-1.0, 1.0), (0.0, 1.0), (-1.0, 1.0)], spec)
    return r.scaled(8.0)


def _im_x10(q0: float, spec: QuadSpec) -> QuadResult:
    """Imaginary part of the triple-denominator limit term.

    Two orthant pieces survive; in each, the two innermost variables
    integrate exactly (the cubes collapse to squares of (iq0 + a t)^{-2}
    endpoints, then those integrate to resolvent differences).  With

        phi(a)      = Im (1/a)[(iq0)^{-1} - (iq0+a)^{-1}]
                    = -a / (q0 (a^2 + q0^2)),
        psi(c, b)   = Im (1/b)[(iq0+c)^{-1} - (iq0+c+b)^{-1}]
                    = -q0 (2c + b) / ((c^2+q0^2)((c+b)^2+q0^2)),

    the pieces are

        8 int_0^1 dy int_0^1 dy' (y+y')^2/(2y') [phi(y+y') - phi(y+2y')]
        8 int_0^1 dy' int_0^1 ds (y'^2 (1-s)^2 / 2)
                                 [phi(y'(2-s)) - psi(y', y'(2-s))].

    Both grow like 1/q0: q0 phi(a) -> -1/a and q0 psi -> 0 as q0 -> 0.
    In the first, (y+y')^2/(2y') [1/(y+2y') - 1/(y+y')] = -(y+y')/(2(y+2y')),
    so q0 times it tends to -8A with

        A = int_0^1 int_0^1 (y+y')/(2(y+2y')) dy dy'
          = (1/2) [1 - int_0^1 y' log((1+2y')/(2y')) dy']
          = (3 - (3/2) log 3 + 2 log 2) / 8 = 0.3422970.

    In the second, q0 times it tends to
    -4 int_0^1 y' dy' int_1^2 (t-1)^2/t dt = -2 (log 2 - 1/2).  So
    q0 Im x1 -> -2 + (3/2) log 3 - 4 log 2 = -3.1246703.
    """

    def phi(a: np.ndarray) -> np.ndarray:
        return -a / (q0 * (a * a + q0 * q0))

    def f1(P: np.ndarray) -> np.ndarray:
        y, yp = P[:, 0], P[:, 1]
        return ((y + yp) ** 2 / (2.0 * yp)) * (phi(y + yp) - phi(y + 2.0 * yp))

    r1 = quad.integrate(f1, [(0.0, 1.0), (0.0, 1.0)], spec)

    def f2(P: np.ndarray) -> np.ndarray:
        yp, s = P[:, 0], P[:, 1]
        b = yp * (2.0 - s)
        psi = -q0 * (2.0 * yp + b) / ((yp * yp + q0 * q0)
                                      * ((yp + b) ** 2 + q0 * q0))
        return (yp * yp * (1.0 - s) ** 2 / 2.0) * (phi(b) - psi)

    r2 = quad.integrate(f2, [(0.0, 1.0), (0.0, 1.0)], spec)
    return combine(r1, r2).scaled(8.0)


def _x1_kernel(q0: float, state: ThermalState) -> quad.Integrand:
    """-2 (y-y')^2 (f1+b23)(f2-f3) / (iq0+eps)^3 at the 4D points
    (x, y, x', y'), the integrand of x1 at ``state``."""

    def f(P: np.ndarray) -> np.ndarray:
        E1, E2, E3 = _energies(P)
        num = _numerator(state, E1, E2, E3)
        return (-2.0 * (P[:, 1] - P[:, 3]) ** 2 * num
                / (1j * q0 + E2 - E3 - E1) ** 3)

    return f


def _im_x1_kernel(q0: float, state: ThermalState) -> quad.Integrand:
    """Im of :func:`_x1_kernel` in real arithmetic: 1/(iq0+eps)^3 =
    (eps - iq0)^3 / D^3 with D = eps^2 + q0^2, whose imaginary part is
    q0 (q0^2 - 3 eps^2) / D^3."""

    def f(P: np.ndarray) -> np.ndarray:
        E1, E2, E3 = _energies(P)
        num = _numerator(state, E1, E2, E3)
        eps2 = (E2 - E3 - E1) ** 2
        D = eps2 + q0 * q0
        return (-2.0 * (P[:, 1] - P[:, 3]) ** 2 * num
                * q0 * (q0 * q0 - 3.0 * eps2) / (D * D * D))

    return f


def x1(q0: float, beta: float, spec: QuadSpec) -> QuadResult:
    """Thermal-weight-free piece of the pure second derivative.

    x1 = -2 < (y-y')^2 (f1+b23)(f2-f3) / (iq0+eps)^3 > at finite beta,
    by direct 4D quadrature (no inner reduction is needed: the numerator
    is the same bounded combination as in sigma2).  Together with x2 and
    x3 it reconstructs d2 Sigma2/dxi^2 exactly:  the decomposition was
    cross-checked against central finite differences of sigma2.

    Evaluated on the quarter x >= 0, y >= 0 of [-1,1]^4 (see
    :func:`_folded`): negating all four momenta leaves every energy alone,
    and negating (y, y') negates them, which keeps the numerator and turns
    the cubed resolvent into minus its conjugate, so x1 = 4i Im I_q, and
    only the kernel's imaginary part is integrated, as a real formula.
    """
    _require_q0(q0)
    return _folded(_im_x1_kernel(q0, ThermalState.finite(beta)), 4, spec, -1)


def x1_zt_direct(q0: float, spec: QuadSpec) -> QuadResult:
    """Triple-denominator term by direct zero-temperature 4D quadrature.

    x1 at zero temperature, the thermal-weight-free piece of the pure
    second derivative (so that x1 + x2 + x3 is the derivative itself);
    purely imaginary, kept as the oracle for the reduced _im_x10 forms.
    It integrates the whole of [-1,1]^4, so its real part is computed,
    not assumed.
    """
    _require_q0(q0)
    return quad.integrate(_x1_kernel(q0, ThermalState.zero()),
                          [(-1.0, 1.0)] * 4, spec)


def i20_limit(q0: float) -> QuadResult:
    """Complex I20 (the x2 limit's integral term), exact:
    I20 = -b0/2 - (i/2) Im x3_limit.

    Im (iq0+u)^{-2} is odd in u and Re (iq0+u)^{-2} even, so the bracket
    of :func:`_i20_3d` is -2(y-y') Im + 2y Re of (iq0 + x(y-y'))^{-2}.
    Against x3_limit's 8 (y-y') Im, the prefactor 2 gives Im I20 =
    -Im x3_limit / 2; the x-integration of :func:`x3_limit` turns the real
    part into the 1D form of :func:`_re_i20`.  With s = 1 +- y there,
    integrating by parts against s(s-2)/2, zero at both ends, gives
    Re I20 = -(4/q0) int_0^2 (s-1) atan(s/q0) ds
           = -2 int_0^2 s(2-s)/(s^2+q0^2) ds,
    and by parts against s, with log(1+4/q0^2) = int_0^2 2s/(s^2+q0^2) ds,
    b0/2 = int_0^2 log(1+s^2/q0^2) ds = 2 int_0^2 s(2-s)/(s^2+q0^2) ds.
    """
    return _exact(complex(-0.5 * b0_closed(q0),
                          -0.5 * x3_limit(q0).value.imag))


def x3_limit(q0: float) -> QuadResult:
    """Large-beta limit of x3, exact and purely imaginary (as complex).

    Theta(-xy) keeps x in [-1, 0] for y > 0 and [0, 1] for y < 0.  There
    the x-integral of Im (iq0 + x d)^{-2}, d = y-y' >= 0, is
    Im (1/d)[(iq0-d)^{-1} - (iq0)^{-1}] = d/(q0 (d^2+q0^2)) for y > 0
    and its negative for y < 0.  With G(s) = int_0^s d^2/(d^2+q0^2) dd
    = s - q0 atan(s/q0), the 3D form of :func:`_im_x30` is then
    (8/q0) [int_1^2 G ds - int_0^1 G ds]:

        Im x3_limit = 8/q0 - 16 [atan(2/q0) - atan(1/q0)]
                      + 4 q0 log(q0^2 (4+q0^2) / (1+q0^2)^2).
    """
    _require_q0(q0)
    a = abs(q0)
    atans = math.atan(2.0 / a) - math.atan(1.0 / a)
    return _exact(1j * (8.0 / a - 16.0 * atans + 4.0 * a * math.log(
        a * a * (4.0 + a * a) / (1.0 + a * a) ** 2)))


def d2_sigma2_xi_xi(q0: float, spec: QuadSpec,
                    include_imaginary: bool = False) -> QuadResult:
    """d2 Sigma2 / dxi^2 at q = 0, zero temperature.

    The derivative itself is purely imaginary: the reflection
    (y, y') -> (-y, -y') negates all three energies, conjugates the
    resolvent, and leaves the (y-y')^2 prefactor alone, so the exact
    real part vanishes at every temperature (sigma2 finite differences
    confirm this to quadrature accuracy).  The imaginary part, off by
    default, assembles the three limit terms: the triple-denominator
    piece (2D quadrature), Im I20 and the x3 limit (closed forms).

    The returned real part is the reduction's bounded-growth profile
    b0 + Re I20: the boundary and bulk real pieces generated by
    integrating the thermal delta by parts, before their exact
    cancellation, both closed forms.  Re I20 = -b0/2 to the bit, so the
    profile is b0/2 exactly.  It grows like 4 log(1/q0), which is the
    advertised bound on the derivative's size; fitting it over a q0
    window must show a negligible (log)^2 coefficient.  The eta-eta
    derivative is identical by the x <-> y symmetry.

    The log bound covers that real profile only (acceptance criterion 4
    fits it).  The assembled imaginary part grows like 1/q0, with a
    coefficient in closed form: the 8/q0 of x3_limit gives +8, Im I20 =
    -Im x3_limit / 2 gives -4, and im_x1 gives -2 + (3/2) log 3 - 4 log 2
    (derived in :func:`_im_x10`), so

        q0 Im d2 Sigma2/dxi^2 -> 2 + (3/2) log 3 - 4 log 2 = 0.8753297.

    It reads 0.8753300 at q0 = 1e-4 and 0.876739 at 1e-2.

    The result is the sum of its ``pieces``, all exact (no error, no
    evaluations) but "im_x1": "b0" and "re_i20", then with the imaginary
    part "im_x1", "im_i20" and "im_x3", each i times its imaginary value.
    """
    _require_q0(q0)
    i20 = i20_limit(q0).value
    pieces: Dict[str, QuadResult] = {"b0": _exact(b0_closed(q0)),
                                     "re_i20": _exact(i20.real)}
    if include_imaginary:
        pieces["im_x1"] = _im_x10(abs(q0), spec).scaled(1j)
        pieces["im_i20"] = _exact(1j * i20.imag)
        pieces["im_x3"] = x3_limit(q0)
    return replace(combine(*pieces.values()), pieces=pieces)
