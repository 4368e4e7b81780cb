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
                     assembles three limit terms, each reduced to a 2D
                     or 3D quadrature, and the reported real part is the
                     reduction's bounded log-growth profile (boundary
                     piece b0 plus a 1D arctan integral).
  zeta2/zeta3, x2/x3 finite-temperature remainder terms of the two second
                     derivatives.  The thermal weights concentrate on
                     E1 = (x-x')(y-y') = 0, so the shear v = x - x' plus
                     an inner panel rule sized to the weight's support in
                     u = beta E1 replaces a hopeless direct quadrature.

Every operation validates q0 != 0 and returns its quadrature error
estimate and evaluation count alongside the value, ready for the CSV row
format (q0, re, im, err, evals, kind).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, Tuple

import numpy as np

from . import quad
from .errors import ZeroFrequency
from .matsubara import ThermalState, approx_delta, fermi
from .quad import QuadResult, QuadSpec

__all__ = [
    "DerivativeKind",
    "SelfEnergyPoint",
    "GradientResult",
    "SecondDerivativeResult",
    "FrequencySumResult",
    "sigma2",
    "frequency_sum_sigma2",
    "im_d0_sigma2",
    "grad_sigma2_at_vh",
    "s1_integrand",
    "s2_integrand",
    "d2_sigma2_xi_eta",
    "d2_sigma2_eta_eta",
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
    "csv_row",
]


class DerivativeKind(str, Enum):
    none = "none"
    d_omega = "d_omega"
    grad = "grad"
    d_xi_xi = "d_xi_xi"
    d_xi_eta = "d_xi_eta"
    d_eta_eta = "d_eta_eta"


@dataclass(frozen=True)
class SelfEnergyPoint:
    """One evaluated point: value plus the quadrature's own accounting.

    ``beta`` is the inverse temperature, ``math.inf`` at zero
    temperature.  ``q0 != 0`` always; the kernel has a pole wall there.
    """

    q0: float
    q: Tuple[float, float]
    beta: float
    value: complex
    derivative_kind: DerivativeKind = DerivativeKind.none
    error_estimate: float = 0.0
    evaluations: int = 0
    converged: bool = True

    def __post_init__(self) -> None:
        if self.q0 == 0:
            raise ZeroFrequency("self-energy point needs q0 != 0")


@dataclass(frozen=True)
class GradientResult:
    """Both components of grad Sigma2(q0, 0) with per-component errors."""

    value: np.ndarray
    error_estimate: np.ndarray
    evaluations: int
    converged: bool


@dataclass(frozen=True)
class SecondDerivativeResult:
    """A second derivative assembled from named reduced sub-integrals."""

    q0: float
    value: complex
    derivative_kind: DerivativeKind
    pieces: Dict[str, complex] = field(default_factory=dict)
    error_estimate: float = 0.0
    evaluations: int = 0
    converged: bool = True


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
    cutoff: float
    grid: int

    @property
    def budget(self) -> float:
        return self.truncation_budget + self.grid_budget


def _require_q0(q0: float) -> None:
    if q0 == 0:
        raise ZeroFrequency("q0 = 0 sits on the kernel pole wall")


def _beta_of(state: ThermalState) -> float:
    return math.inf if state.zero_temperature else state.beta


def csv_row(q0: float, value: complex, error_estimate: float,
            evaluations: int, kind: str) -> str:
    """Format one result as the row (q0, re, im, err, evals, kind)."""
    v = complex(value)
    return "%.16e,%.16e,%.16e,%.16e,%d,%s" % (
        q0, v.real, v.imag, error_estimate, evaluations, kind)


# ---------------------------------------------------------------------------
# Sigma2 itself: 4D quadrature and the brute-force frequency-sum oracle
# ---------------------------------------------------------------------------


def sigma2(q0: float, q: Tuple[float, float], state: ThermalState,
           spec: QuadSpec) -> SelfEnergyPoint:
    """Sigma2(q0, q) by adaptive 4D quadrature of the summed kernel.

    The numerator is assembled through the pole-free product identity,
    so |integrand| <= 2/|q0| everywhere; that bound is asserted on every
    sample in debug runs.  Conjugation Sigma2(-q0, q) = conj Sigma2(q0, q)
    holds pointwise because q0 only enters through iq0.
    """
    _require_q0(q0)
    from .matsubara import sigma2_kernel

    xi, eta = float(q[0]), float(q[1])
    bound = 2.0 / abs(q0) * (1.0 + 1e-12)

    def f(P: np.ndarray) -> np.ndarray:
        x, y, xp, yp = P[:, 0], P[:, 1], P[:, 2], P[:, 3]
        E1 = (xi + x - xp) * (eta + y - yp)
        vals = sigma2_kernel(state, E1, x * y, xp * yp, q0)
        if __debug__:
            assert np.max(np.abs(vals)) <= bound
        return np.asarray(vals)

    r = quad.integrate(f, [(-1.0, 1.0)] * 4, spec)
    return SelfEnergyPoint(
        q0=q0, q=(xi, eta), beta=_beta_of(state), value=complex(r.value),
        derivative_kind=DerivativeKind.none, error_estimate=r.error_estimate,
        evaluations=r.evaluations, converged=r.converged)


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
    if beta <= 0:
        raise ValueError("frequency sum needs finite beta > 0")
    v = _freq_sum(q0, q, beta, cutoff, grid)
    v_cut = _freq_sum(q0, q, beta, cutoff / 2.0, grid)
    v_grid = _freq_sum(q0, q, beta, cutoff, grid // 2)
    return FrequencySumResult(
        value=v, truncation_budget=abs(v - v_cut), grid_budget=abs(v - v_grid),
        cutoff=cutoff, grid=grid)


def _freq_sum(q0: float, q: Tuple[float, float], beta: float,
              cutoff: float, grid: int) -> complex:
    xi, eta = float(q[0]), float(q[1])
    # fermionic frequencies (2n+1) pi/beta with |2n+1| <= cutoff
    n_max = int((cutoff - 1.0) // 2)
    odd = np.arange(-n_max - 1, n_max + 1) * 2 + 1
    w = odd * (math.pi / beta)
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
        w3 = q0 - w[:, None] + w[None, :]
        C3 = 1.0 / (1j * w3[None, :, :] - E3[:, None, None])
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


def _zt_numerator(E1: np.ndarray, E2: np.ndarray, E3: np.ndarray) -> np.ndarray:
    # (f1 + b23)(f2 - f3) at zero temperature via the pole-free identity
    zt = ThermalState.zero()
    f1 = fermi(zt, E1)
    f2 = fermi(zt, E2)
    f3 = fermi(zt, E3)
    return f1 * (f2 - f3) + f2 * (f3 - 1.0)


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
    return QuadResult(value=2.0 * r.value, error_estimate=2.0 * r.error_estimate,
                      evaluations=r.evaluations, converged=r.converged)


def _i_orthant_4d(q0: float, spec: QuadSpec) -> QuadResult:
    """I(q0) by direct 4D quadrature of its positive-orthant parent.

    I = 4 int_0^1 dy dy' dx' int_0^{x'} dx Phi((2x'-x)y' + yx'); the
    inner simplex is mapped to the cube by x = s x' (Jacobian x').  The
    kernel's q0-scale ridge sits on the corner faces, so refinement is
    always guided by the kernel argument (the caller's tolerances and
    budget still apply).
    """

    def f(P: np.ndarray) -> np.ndarray:
        y, yp, xp, s = P[:, 0], P[:, 1], P[:, 2], P[:, 3]
        return xp * _phi(q0, xp * ((2.0 - s) * yp + y))

    def eps(P: np.ndarray) -> np.ndarray:
        return P[:, 2] * ((2.0 - P[:, 3]) * P[:, 1] + P[:, 0])

    guided = replace(spec, refinement="singularity_guided", q0=q0,
                     epsilon_fn=eps)
    r = quad.integrate(f, [(0.0, 1.0)] * 4, guided)
    return QuadResult(value=4.0 * r.value, error_estimate=4.0 * r.error_estimate,
                      evaluations=r.evaluations, converged=r.converged)


def _im_d0_cube_4d(q0: float, spec: QuadSpec) -> QuadResult:
    """Im dSigma2/dq0 by direct quadrature over the full cube [-1,1]^4.

    The integrand is Phi(eps) times the zero-temperature occupation
    numerator; equality with -2 I(q0) validates the whole sign-pattern
    folding that produces the orthant form.
    """

    def f(P: np.ndarray) -> np.ndarray:
        x, y, xp, yp = P[:, 0], P[:, 1], P[:, 2], P[:, 3]
        E1 = (x - xp) * (y - yp)
        E2 = x * y
        E3 = xp * yp
        return _phi(q0, E2 - E3 - E1) * _zt_numerator(E1, E2, E3)

    return quad.integrate(f, [(-1.0, 1.0)] * 4, spec)


def im_d0_sigma2(q0: float, spec: QuadSpec,
                 method: str = "reduced") -> SelfEnergyPoint:
    """Im dSigma2/dq0 at q = 0, zero temperature.

    Even in q0 by construction: the kernel depends on q0 only through
    q0^2, so the sign is folded away at this boundary and negative q0 is
    served by the same evaluation.  ``method`` picks the production 2D
    reduction ("reduced") or one of the 4D consistency oracles
    ("orthant4d" on the positive orthant, "cube4d" on the full cube with
    occupation factors); all three agree within error bars.
    """
    _require_q0(q0)
    a = abs(q0)
    if method == "reduced":
        r = _i_reduced(a, spec)
        value, err = -2.0 * r.value, 2.0 * r.error_estimate
    elif method == "orthant4d":
        r = _i_orthant_4d(a, spec)
        value, err = -2.0 * r.value, 2.0 * r.error_estimate
    elif method == "cube4d":
        r = _im_d0_cube_4d(a, spec)
        value, err = r.value, r.error_estimate
    else:
        raise ValueError(f"unknown method {method!r}")
    return SelfEnergyPoint(
        q0=q0, q=(0.0, 0.0), beta=math.inf, value=complex(np.real(value)),
        derivative_kind=DerivativeKind.d_omega, error_estimate=err,
        evaluations=r.evaluations, converged=r.converged)


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
    x, y, xp, yp = P[:, 0], P[:, 1], P[:, 2], P[:, 3]
    E1 = (x - xp) * (y - yp)
    E2 = x * y
    E3 = xp * yp
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
    x, y, xp, yp = P[:, 0], P[:, 1], P[:, 2], P[:, 3]
    E1 = (x - xp) * (y - yp)
    E2 = x * y
    E3 = xp * yp
    eps = E2 - E3 - E1
    zt = state.zero_temperature
    num = (_zt_numerator(E1, E2, E3) if zt else
           fermi(state, E1) * (fermi(state, E2) - fermi(state, E3))
           + fermi(state, E2) * (fermi(state, E3) - 1.0))
    return _transverse(P, component) * num / (1j * q0 + eps) ** 2


def grad_sigma2_at_vh(q0: float, state: ThermalState,
                      spec: QuadSpec) -> GradientResult:
    """grad Sigma2(q0, 0) by direct 4D quadrature of S1 + S2.

    Returns the derivative vector itself (so minus the S sums).  Both
    components are exact zeros of the integral; the quadrature returns
    a residual bounded by its own error estimate, which is the test.
    Needs finite beta: S1 contains the thermal delta.
    """
    _require_q0(q0)
    vals = np.empty(2, dtype=complex)
    errs = np.empty(2)
    evals = 0
    conv = True
    for comp in (0, 1):
        def f(P: np.ndarray, c: int = comp) -> np.ndarray:
            return (s1_integrand(P, q0, state, c)
                    + s2_integrand(P, q0, state, c))

        r = quad.integrate(f, [(-1.0, 1.0)] * 4, spec)
        vals[comp] = -r.value
        errs[comp] = r.error_estimate
        evals += r.evaluations
        conv = conv and r.converged
    return GradientResult(value=vals, error_estimate=errs,
                          evaluations=evals, converged=conv)


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
    return QuadResult(
        value=-4.0 * (r_bt.value + r_rt.value),
        error_estimate=4.0 * (r_bt.error_estimate + r_rt.error_estimate),
        evaluations=r_bt.evaluations + r_rt.evaluations,
        converged=r_bt.converged and r_rt.converged)


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
    return QuadResult(value=-8.0 * r.value, error_estimate=8.0 * r.error_estimate,
                      evaluations=r.evaluations, converged=r.converged)


def d2_sigma2_xi_eta(q0: float, spec: QuadSpec,
                     zeta12_method: str = "reduced") -> SecondDerivativeResult:
    """Re d2 Sigma2 / dxi deta at q = 0, zero temperature.

    Assembled as zeta11 + zeta12: zeta11 = 2 I(q0) reuses the frequency
    derivative's 2D reduction, zeta12 comes from the double-denominator
    term.  The returned value is real by construction (the reductions
    compute the real part; the imaginary part of the derivative is not
    assembled here).  ``zeta12_method`` is "reduced" (1D+2D production
    route) or "zform" (3D cross-route).

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
    r_i = _i_reduced(a, spec)
    z11 = 2.0 * np.real(r_i.value)
    if zeta12_method == "reduced":
        r_z12 = _zeta12_reduced(a, spec)
    elif zeta12_method == "zform":
        r_z12 = _zeta12_zform(a, spec)
    else:
        raise ValueError(f"unknown zeta12_method {zeta12_method!r}")
    z12 = float(np.real(r_z12.value))
    return SecondDerivativeResult(
        q0=q0, value=complex(z11 + z12),
        derivative_kind=DerivativeKind.d_xi_eta,
        pieces={"zeta11": z11, "zeta12": z12},
        error_estimate=2.0 * r_i.error_estimate + r_z12.error_estimate,
        evaluations=r_i.evaluations + r_z12.evaluations,
        converged=r_i.converged and r_z12.converged)


# ---------------------------------------------------------------------------
# Finite-temperature remainder terms: the shear + inner panel machinery
# ---------------------------------------------------------------------------

# Thermal kernels in the scaled variable u = beta E1.  delta1 is the
# beta = 1 thermal delta; g1 = -(u delta1)' is smooth, even, and
# integrates to zero over the line, which is what makes the remainder
# terms die as beta grows.  These direct forms are the 4D oracle's; the
# panel kernel computes the same products in cache-sized blocks of rows,
# in real arithmetic and from one exp per node (see _panel_sums).
def _delta1(u: np.ndarray) -> np.ndarray:
    w = np.exp(-np.abs(u))
    return w / (1.0 + w) ** 2


def _g1(u: np.ndarray) -> np.ndarray:
    return _delta1(u) * (u * np.tanh(u / 2.0) - 1.0)


def _ddelta1(u: np.ndarray) -> np.ndarray:
    return -_delta1(u) * np.tanh(u / 2.0)


_U_SUPPORT = 60.0       # |u| beyond this every kernel is below 1e-25
_PANEL_UNITS = 4.0      # target panel length in u-units
_PANEL_MIN = 4
_PANEL_MAX = 32
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)
_BLOCK = 8192           # panel nodes per block of rows
# Nodes and weights of m equal Gauss panels on [0, 1], for each panel count m.
_PANELS = {m: ((np.arange(0.5, m)[:, None] / m + 0.5 / m * _GL_NODES).ravel(),
               np.tile(0.5 / m * _GL_WEIGHTS, m))
           for m in (_PANEL_MIN, 8, 16, _PANEL_MAX)}
# Each kind's kernel is delta1(u) (f2 - f3) k / (iq0 + eps)^p: the factor k
# of (u, t = e^{-|u|}, 1/(1+t), y - y', beta), and the power p.  x2 keeps
# np.tanh, as (1-t)/(1+t) loses its relative accuracy when u -> 0.
_KERNELS = {
    "zeta2": (lambda u, t, r, ds, beta: beta * (np.abs(u) * (1.0 - t) * r - 1.0), 1),
    "zeta3": (lambda u, t, r, ds, beta: -2.0 * u, 2),
    "x2": (lambda u, t, r, ds, beta: -(beta * ds) ** 2 * np.tanh(u / 2.0), 1),
    "x3": (lambda u, t, r, ds, beta: 2.0 * beta * ds * ds, 2),
}


def _panel_sums(P: np.ndarray, a: float, beta: float, kind: str) -> np.ndarray:
    """Inner integral of the ``kind`` kernel over v = x - x' in [x-1, x+1],
    clipped to the kernel support |beta (y-y') v| <= _U_SUPPORT, for each
    outer point (x, y, y') of ``P``, at q0 = ``a``.

    Each window is cut into m Gauss panels, m the power of two in [4, 32]
    that sizes panels to _PANEL_UNITS u-units.  Rows of one m go in blocks
    of about _BLOCK nodes, with delta1 = t / (1+t)^2 from t = e^{-|u|} and
    1/(ia+eps) = (eps - ia)/D, 1/(ia+eps)^2 = (eps^2 - a^2 - 2ia eps)/D^2,
    D = eps^2 + a^2.  The panel count is a pure per-row function and each
    row sum is an ``einsum``, whose bits do not depend on the other rows of
    a block (a BLAS ``gemv`` product's do), so values cannot depend on how
    the adaptive outer quadrature batches its cells.
    """
    factor, power = _KERNELS[kind]
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
    need = np.maximum(np.where(ok, scale * length, 0.0) / _PANEL_UNITS, 1.0)
    m_row = np.clip(np.exp2(np.ceil(np.log2(need))), _PANEL_MIN, _PANEL_MAX)
    out = np.zeros(len(P), dtype=complex)
    for m, (U, W) in _PANELS.items():
        rows = np.flatnonzero(ok & (m_row == m))
        for s in range(0, len(rows), _BLOCK // len(U)):
            idx = rows[s:s + _BLOCK // len(U)]
            L, ds, ys = length[idx, None], delta[idx, None], yp[idx, None]
            v = lo[idx, None] + L * U
            e3 = (x[idx, None] - v) * ys
            E1 = v * ds
            eps = e2[idx, None] - e3 - E1
            u = beta * E1
            t = np.exp(-np.abs(u))
            r = 1.0 / (1.0 + t)
            k = t * r * r * (f2[idx, None] - fermi(state, e3))
            k *= factor(u, t, r, ds, beta)
            D = eps * eps + a * a
            k /= D if power == 1 else D * D
            re = k * (eps if power == 1 else eps * eps - a * a)
            im = k if power == 1 else k * eps
            out[idx] = L[:, 0] * (np.einsum("ij,j->i", re, W)
                                  - 1j * power * a * np.einsum("ij,j->i", im, W))
    return out


def _finite_beta_term(q0: float, beta: float, spec: QuadSpec,
                      kind: str) -> QuadResult:
    _require_q0(q0)
    if not beta > 0:
        raise ValueError("finite-temperature term needs beta > 0")
    a = abs(q0)
    return quad.integrate(lambda P: _panel_sums(P, a, beta, kind),
                          [(-1.0, 1.0)] * 3, spec)


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
    and later for smaller q0 (near beta = 11 at q0 = 0.1).
    """
    return _finite_beta_term(q0, beta, spec, "zeta2")


def zeta3(q0: float, beta: float, spec: QuadSpec) -> QuadResult:
    """Mixed-derivative remainder with the plain thermal delta.

    zeta3 = < 2 (-E1) delta_beta(E1) (f2-f3) / (iq0+eps)^2 >, evaluated
    by the same shear + panel machinery; the odd factor u delta1(u)
    supplies the cancellation here.  Like zeta2 it vanishes only as
    beta -> infinity: |zeta3| first rises, peaking near beta = 6-8 for
    q0 in [0.2, 0.5] and near beta = 11 at q0 = 0.1.
    """
    return _finite_beta_term(q0, beta, spec, "zeta3")


def x2(q0: float, beta: float, spec: QuadSpec) -> QuadResult:
    """Differentiated-thermal-delta piece of the pure second derivative.

    x2 = < delta_beta'(E1) (y-y')^2 (f2-f3) / (iq0+eps) >.  Purely
    imaginary at every beta (the reflection (y,y') -> (-y,-y') negates
    every energy and conjugates the kernel, flipping the sign of the
    real part); its large beta limit is i Im I20, the bulk term of the
    pure derivative's limit (see :func:`i20_limit`).
    """
    return _finite_beta_term(q0, beta, spec, "x2")


def x3(q0: float, beta: float, spec: QuadSpec) -> QuadResult:
    """Plain-thermal-delta piece of the pure second derivative.

    x3 = < 2 delta_beta(E1) (y-y')^2 (f2-f3) / (iq0+eps)^2 >; purely
    imaginary at every beta by the same reflection as x2, converging to
    the :func:`x3_limit` quadrature as beta grows.
    """
    return _finite_beta_term(q0, beta, spec, "x3")


# ---------------------------------------------------------------------------
# Pure second derivative at zero temperature
# ---------------------------------------------------------------------------


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
    return QuadResult(value=4.0 * r.value, error_estimate=4.0 * r.error_estimate,
                      evaluations=r.evaluations, converged=r.converged)


def _re_i20(q0: float, spec: QuadSpec) -> QuadResult:
    """Real part of the surviving integral term, reduced to 1D.

    Re I20 = -4 int_0^1 y dy int_{1-y}^{1+y} dv / (q0^2 + v^2)
           = -(4/q0) int_0^1 y [atan((1+y)/q0) - atan((1-y)/q0)] dy.
    """

    def f(P: np.ndarray) -> np.ndarray:
        y = P[:, 0]
        return y * (np.arctan((1.0 + y) / q0) - np.arctan((1.0 - y) / q0)) / q0

    r = quad.integrate(f, [(0.0, 1.0)], spec)
    return QuadResult(value=-4.0 * r.value, error_estimate=4.0 * r.error_estimate,
                      evaluations=r.evaluations, converged=r.converged)


def _i20_3d(q0: float, spec: QuadSpec) -> QuadResult:
    """Full complex I20 from its 3D limit form.

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
    return QuadResult(value=2.0 * r.value, error_estimate=2.0 * r.error_estimate,
                      evaluations=r.evaluations, converged=r.converged)


def _im_x30(q0: float, spec: QuadSpec) -> QuadResult:
    """Imaginary part of the x3 limit (the term is purely imaginary).

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
    return QuadResult(value=8.0 * r.value, error_estimate=8.0 * r.error_estimate,
                      evaluations=r.evaluations, converged=r.converged)


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
    return QuadResult(
        value=8.0 * (r1.value + r2.value),
        error_estimate=8.0 * (r1.error_estimate + r2.error_estimate),
        evaluations=r1.evaluations + r2.evaluations,
        converged=r1.converged and r2.converged)


def x1(q0: float, beta: float, spec: QuadSpec) -> QuadResult:
    """Thermal-weight-free piece of the pure second derivative.

    x1 = -2 < (y-y')^2 (f1+b23)(f2-f3) / (iq0+eps)^3 > at finite beta,
    by direct 4D quadrature (no inner reduction is needed: the numerator
    is the same bounded combination as in sigma2).  Together with x2 and
    x3 it reconstructs d2 Sigma2/dxi^2 exactly:  the decomposition was
    cross-checked against central finite differences of sigma2.
    """
    _require_q0(q0)
    if not beta > 0:
        raise ValueError("finite-temperature term needs beta > 0")
    state = ThermalState.finite(beta)

    def f(P: np.ndarray) -> np.ndarray:
        x, y, xp, yp = P[:, 0], P[:, 1], P[:, 2], P[:, 3]
        E1 = (x - xp) * (y - yp)
        E2 = x * y
        E3 = xp * yp
        num = (fermi(state, E1) * (fermi(state, E2) - fermi(state, E3))
               + fermi(state, E2) * (fermi(state, E3) - 1.0))
        return -2.0 * (y - yp) ** 2 * num / (1j * q0 + E2 - E3 - E1) ** 3

    return quad.integrate(f, [(-1.0, 1.0)] * 4, spec)


def x1_zt_direct(q0: float, spec: QuadSpec) -> QuadResult:
    """Triple-denominator term by direct zero-temperature 4D quadrature.

    x1 = -2 < (y-y')^2 (occupation numerator) / (iq0+eps)^3 >, the
    thermal-weight-free piece of the pure second derivative (so that
    x1 + x2 + x3 is the derivative itself); purely imaginary, kept as
    the oracle for the reduced _im_x10 forms.
    """
    _require_q0(q0)

    def f(P: np.ndarray) -> np.ndarray:
        x, y, xp, yp = P[:, 0], P[:, 1], P[:, 2], P[:, 3]
        E1 = (x - xp) * (y - yp)
        E2 = x * y
        E3 = xp * yp
        num = _zt_numerator(E1, E2, E3)
        return -2.0 * (y - yp) ** 2 * num / (1j * q0 + E2 - E3 - E1) ** 3

    return quad.integrate(f, [(-1.0, 1.0)] * 4, spec)


def i20_limit(q0: float, spec: QuadSpec) -> QuadResult:
    """Complex I20 (the x2 limit's integral term), public for the
    finite-temperature convergence checks."""
    _require_q0(q0)
    return _i20_3d(abs(q0), spec)


def x3_limit(q0: float, spec: QuadSpec) -> QuadResult:
    """Large-beta limit of x3: purely imaginary, returned as complex."""
    _require_q0(q0)
    r = _im_x30(abs(q0), spec)
    return QuadResult(value=1j * np.real(r.value),
                      error_estimate=r.error_estimate,
                      evaluations=r.evaluations, converged=r.converged)


def d2_sigma2_xi_xi(q0: float, spec: QuadSpec,
                    include_imaginary: bool = False) -> SecondDerivativeResult:
    """d2 Sigma2 / dxi^2 at q = 0, zero temperature.

    The derivative itself is purely imaginary: the reflection
    (y, y') -> (-y, -y') negates all three energies, conjugates the
    resolvent, and leaves the (y-y')^2 prefactor alone, so the exact
    real part vanishes at every temperature (sigma2 finite differences
    confirm this to quadrature accuracy).  The imaginary part, off by
    default, assembles the three limit terms (triple-denominator piece,
    Im I20, and the x3 limit), each from its reduced 2D or 3D form.

    The returned real part is the reduction's bounded-growth profile
    b0 (closed form) + Re I20 (1D arctan integral): the boundary and
    bulk real pieces generated by integrating the thermal delta by
    parts, before their exact cancellation.  It grows like 4 log(1/q0),
    which is the advertised bound on the derivative's size; fitting it
    over a q0 window must show a negligible (log)^2 coefficient.  The
    eta-eta derivative is identical by the x <-> y symmetry.
    """
    _require_q0(q0)
    a = abs(q0)
    b0 = b0_closed(a)
    r_re = _re_i20(a, spec)
    pieces: Dict[str, complex] = {"b0": b0, "re_i20": float(np.real(r_re.value))}
    err = r_re.error_estimate
    evals = r_re.evaluations
    conv = r_re.converged
    imag = 0.0
    if include_imaginary:
        r_x1 = _im_x10(a, spec)
        r_i20 = _i20_3d(a, spec)
        r_x3 = _im_x30(a, spec)
        pieces["im_x1"] = float(np.real(r_x1.value))
        pieces["im_i20"] = float(np.imag(r_i20.value))
        pieces["im_x3"] = float(np.real(r_x3.value))
        imag = pieces["im_x1"] + pieces["im_i20"] + pieces["im_x3"]
        err += r_x1.error_estimate + r_i20.error_estimate + r_x3.error_estimate
        evals += r_x1.evaluations + r_i20.evaluations + r_x3.evaluations
        conv = conv and r_x1.converged and r_i20.converged and r_x3.converged
    return SecondDerivativeResult(
        q0=q0, value=complex(b0 + float(np.real(r_re.value)), imag),
        derivative_kind=DerivativeKind.d_xi_xi, pieces=pieces,
        error_estimate=err, evaluations=evals, converged=conv)


def d2_sigma2_eta_eta(q0: float, spec: QuadSpec,
                      include_imaginary: bool = False) -> SecondDerivativeResult:
    """d2 Sigma2 / deta^2: equal to the xi-xi derivative by symmetry."""
    r = d2_sigma2_xi_xi(q0, spec, include_imaginary)
    return SecondDerivativeResult(
        q0=r.q0, value=r.value, derivative_kind=DerivativeKind.d_eta_eta,
        pieces=r.pieces, error_estimate=r.error_estimate,
        evaluations=r.evaluations, converged=r.converged)
