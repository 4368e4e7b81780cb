"""One-loop bubbles of the xy saddle model and their beta-asymptotics.

Both bubbles are momentum integrals over [-1,1]^2 at zero external
frequency and momentum (the zero-frequency limit is taken first):

    B_ph = int dx dy (-delta_beta)(xy),          the density channel,
    B_pp = int dx dy tanh(beta xy / 2) / (2 xy), the pairing channel.

Because the energy is the product xy, one variable integrates exactly
and the other leaves a logarithm, giving exact 1D forms valid at every
beta (the 2D parents survive only as consistency oracles):

    B_ph(beta) = - int_0^beta  ln(beta/u) / cosh^2(u/2) du,
    B_pp(beta) =   int_0^{beta/2} (ln(2v/beta))^2 / cosh^2 v dv.

:func:`bubble_result` is the production entry point: it returns either
bubble by its 1D form next to its large-beta prediction.

Expanding the logarithms against the thermal window produces the
asymptotics the lab verifies,

    B_ph = -2 ln beta + 2K + O(e^{-beta}),
    B_pp = (ln beta)^2 - 2K ln beta + K' + O(e^{-beta}),

with the constants

    K  = int_0^infty ln(2v) / cosh^2 v dv
       = int_0^infty ln(u) / (2 cosh^2(u/2)) du     (u = 2v),
    K' = int_0^infty (ln 2v)^2 / cosh^2 v dv.

Both are derivatives at s = 1 of the Mellin transform
G(s) = int_0^infty (2v)^{s-1} sech^2 v dv.  Integrating
sech^2 v = 4 sum_{n>=1} (-1)^{n+1} n e^{-2nv} term by term gives

    G(s) = 2 Gamma(s) sum_{n>=1} (-1)^{n+1} n^{1-s} = 2 Gamma(s) eta(s-1),

with eta the Dirichlet eta function, and G'(1), G''(1) follow from
eta(0) = 1/2, eta'(0) = ln(pi/2)/2 and eta(s) = (1 - 2^{1-s}) zeta(s):

    K  = ln(pi/2) - gamma                          (the BCS constant),
    K' = K^2 + pi^2/6 - 2 ln^2 2 - ln^2(2 pi) - 2 zeta''(0).

These closed forms are what the predictions use.  They are evaluated
with ten guard digits and rounded to the 50-digit working precision,
which makes them equal, as mpf values, to the 50-digit quadratures of
the defining integrals; without the guard digits the cancellation in
K' leaves it two units in the last place (5e-51) off, which moves the
bits of some pp residuals past beta of about 250.  The quadratures stay as the
oracles; they truncate the semi-infinite integrals at u = 200, and the
discarded tail is below 4 e^{-400} (ln 400 + 1)^2, far under working
precision.

All quadratures run in mpmath at 50 digits and results return as
floats.  Residuals value - prediction are formed at the 50-digit
working precision before rounding: past beta of about 35 the gap
e^{-beta} drops under the double rounding noise of the values
themselves, and a double subtraction would report noise instead of
the exponential decay.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import mpmath as mp

from . import quad
from .matsubara import ThermalState, approx_delta, fermi
from .quad import QuadResult, QuadSpec

__all__ = [
    "BubbleResult",
    "k_constant",
    "k_prime_constant",
    "bubble_result",
    "bubble_ph_2d",
    "bubble_pp_2d",
]

_DPS = 50
_U_CUT = 200  # truncation of the semi-infinite constant integrals


@functools.lru_cache(maxsize=None)
def _closed_forms() -> tuple[mp.mpf, mp.mpf]:
    """K and K' from their closed forms, rounded to working precision."""
    with mp.workdps(_DPS + 10):
        K = mp.log(mp.pi / 2) - mp.euler
        K_prime = (K ** 2 + mp.pi ** 2 / 6 - 2 * mp.log(2) ** 2
                   - mp.log(2 * mp.pi) ** 2 - 2 * mp.zeta(0, derivative=2))
    with mp.workdps(_DPS):
        return +K, +K_prime


@functools.lru_cache(maxsize=None)
def _k_quadrature(definition: str) -> mp.mpf:
    with mp.workdps(_DPS):
        if definition == "pairing":
            return mp.quad(lambda v: mp.log(2 * v) / mp.cosh(v) ** 2,
                           [0, 1, 10, _U_CUT])
        if definition == "density":
            return mp.quad(lambda u: mp.log(u) / (2 * mp.cosh(u / 2) ** 2),
                           [0, 2, 20, 2 * _U_CUT])
    raise ValueError(f"unknown K definition {definition!r}")


def _k_prime_quadrature() -> mp.mpf:
    """Oracle for K': int_0^200 (ln 2v)^2 / cosh^2 v dv at working precision."""
    with mp.workdps(_DPS):
        return mp.quad(lambda v: mp.log(2 * v) ** 2 / mp.cosh(v) ** 2,
                       [0, 1, 10, _U_CUT])


def k_constant(definition: str = "closed") -> float:
    """The constant K, from its closed form or by 1D quadrature.

    "closed":   ln(pi/2) - gamma, evaluated with guard digits (module
                docstring); this is the K of every prediction
    "pairing":  int_0^200 ln(2v) / cosh^2 v dv
    "density":  int_0^400 ln(u) / (2 cosh^2(u/2)) du

    The two quadratures are the same integral under u = 2v and must
    agree to 10^-10; keeping both forms makes that an executable check
    rather than a change-of-variables exercise on paper.  At 50 digits
    both equal the closed form.
    """
    if definition == "closed":
        return float(_closed_forms()[0])
    return float(_k_quadrature(definition))


def k_prime_constant() -> float:
    """K' = K^2 + pi^2/6 - 2 ln^2 2 - ln^2(2 pi) - 2 zeta''(0), the value
    of int_0^infty (ln 2v)^2 / cosh^2 v dv, evaluated with ten guard
    digits because its terms cancel (module docstring)."""
    return float(_closed_forms()[1])


def _bubble_ph_mpf(b: mp.mpf) -> mp.mpf:
    upper = min(b, mp.mpf(2 * _U_CUT))
    pts = [p for p in (mp.mpf(0), mp.mpf(2), mp.mpf(20)) if p < upper]
    return -mp.quad(lambda u: mp.log(b / u) / mp.cosh(u / 2) ** 2,
                    pts + [upper])


def _bubble_pp_mpf(b: mp.mpf) -> mp.mpf:
    upper = min(b / 2, mp.mpf(_U_CUT))
    pts = [p for p in (mp.mpf(0), mp.mpf(1), mp.mpf(10)) if p < upper]
    return mp.quad(lambda v: mp.log(2 * v / b) ** 2 / mp.cosh(v) ** 2,
                   pts + [upper])


@dataclass(frozen=True)
class BubbleResult:
    """One bubble evaluation next to its large-beta prediction.

    residual is value - asymptotic_prediction as real numbers; it is
    formed before rounding the operands to double, so it stays
    meaningful when the gap sinks below the rounding noise of the
    values (construction checks it matches the double difference to
    that noise).
    """

    kind: str                      # "ph" or "pp"
    beta: float
    value: float
    asymptotic_prediction: float
    residual: float

    def __post_init__(self) -> None:
        if self.kind not in ("ph", "pp"):
            raise ValueError(f"unknown bubble kind {self.kind!r}")
        scale = max(1.0, abs(self.value), abs(self.asymptotic_prediction))
        if abs(self.residual - (self.value - self.asymptotic_prediction)) \
                > 8e-15 * scale:
            raise ValueError("residual does not equal value - prediction")


def bubble_result(kind: str, beta: float) -> BubbleResult:
    """Evaluate one bubble and its prediction -2 ln b + 2K (ph) or
    (ln b)^2 - 2K ln b + K' (pp), with the residual taken at working
    precision."""
    if not 0.0 < beta < float("inf"):
        raise ValueError("bubble needs finite beta > 0")
    if kind not in ("ph", "pp"):
        raise ValueError(f"unknown bubble kind {kind!r}")

    K, K_prime = _closed_forms()
    with mp.workdps(_DPS):
        b = mp.mpf(beta)
        if kind == "ph":
            value = _bubble_ph_mpf(b)
            pred = -2 * mp.log(b) + 2 * K
        else:
            value = _bubble_pp_mpf(b)
            pred = mp.log(b) ** 2 - 2 * K * mp.log(b) + K_prime
        diff = value - pred
    return BubbleResult(kind=kind, beta=beta, value=float(value),
                        asymptotic_prediction=float(pred), residual=float(diff))


# ---------------------------------------------------------------------------
# 2D parents, kept as consistency oracles (hostile at large beta)
# ---------------------------------------------------------------------------


def bubble_ph_2d(beta: float, spec: QuadSpec) -> QuadResult:
    """Density bubble by direct 2D quadrature of -delta_beta(xy)."""
    state = ThermalState.finite(beta)

    def f(P):
        return -approx_delta(state, P[:, 0] * P[:, 1])

    return quad.integrate(f, [(-1.0, 1.0), (-1.0, 1.0)], spec)


def bubble_pp_2d(beta: float, spec: QuadSpec) -> QuadResult:
    """Pairing bubble by direct 2D quadrature of tanh(beta xy/2)/(2xy).

    The integrand extends continuously (value beta/4) across xy = 0;
    the evaluation goes through the Fermi function for stability:
    tanh(beta E / 2) = 1 - 2 f(E).
    """
    import numpy as np

    state = ThermalState.finite(beta)

    def f(P):
        E = P[:, 0] * P[:, 1]
        t = 1.0 - 2.0 * fermi(state, E)
        out = np.empty_like(E)
        small = np.abs(beta * E) < 1e-8
        out[small] = beta / 4.0
        out[~small] = t[~small] / (2.0 * E[~small])
        return out

    return quad.integrate(f, [(-1.0, 1.0), (-1.0, 1.0)], spec)
