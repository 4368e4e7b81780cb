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

Extending the upper limits to infinity gives the asymptotics the lab
verifies, B_ph = -2 ln beta + 2K + R_ph and
B_pp = (ln beta)^2 - 2K ln beta + K' + R_pp, with the constants

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

The residuals R are minus the integrals over u > beta and v > beta/2.
The same sech^2 series, u = beta t (ph) or v = beta t / 2 (pp), and
int_1^infty ln t e^{-a t} dt = E1(a)/a turn them into

    R_ph = -4 sum_{n>=1} (-1)^{n+1} E1(n beta),
    R_pp = -2 beta sum_{n>=1} (-1)^{n+1} n J(n beta),

with J(a) = int_1^infty ln^2 t e^{-a t} dt.  Under t = 1 + s/a,
e^a E1(a) = int_0^infty e^{-s} / (a + s) ds and a e^a J(a) =
int_0^infty e^{-s} ln^2(1 + s/a) ds, singular only at s = -a, so from
a = beta_c = 2 up one Gauss-Laguerre rule gives both in double, and R
keeps its relative precision far below the rounding of the value,
which is prediction + R.  Below beta_c the same rule integrates the 1D
forms under u = beta e^{-s} (ph) or v = (beta/2) e^{-s} (pp),

    B_ph = -beta int_0^infty s e^{-s} sech^2(beta e^{-s}/2) ds,
    B_pp = (beta/2) int_0^infty s^2 e^{-s} sech^2(beta e^{-s}/2) ds,

whose sech^2 has no pole at Re s >= 0 while beta < pi, and the O(1)
residual is value - prediction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

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

# the closed forms of K and K' at 50 digits, rounded once; in double,
# ln(pi/2) - gamma lands one ulp below
_K = -0.125632959612078
_K_PRIME = 1.3347324801364615

_BETA_C = 2.0   # tail series from here up, the substituted 1D form below
_NODES = 100    # Gauss-Laguerre nodes: both sides of beta_c converge to 1e-14
_TAIL_SPAN = 40.0  # tail terms with n beta <= beta + 40: e^{-40} of the first


@functools.lru_cache(maxsize=None)
def _laguerre_rule() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Laguerre nodes and weights by Golub-Welsch; the weights of
    numpy's ``laggauss`` bias its moments by 1e-13 at 40-100 nodes."""
    x, v = np.linalg.eigh(np.diag(2.0 * np.arange(_NODES) + 1.0)
                          + np.diag(np.arange(1.0, _NODES), -1))
    return x, v[0] ** 2


@functools.lru_cache(maxsize=None)
def _k_trapezoid(definition: str) -> float:
    """K by the trapezoid rule in x = ln v (pairing) or x = ln u
    (density), step 1/8 on [-45, 5]: the integrands are analytic for
    |Im x| < pi/2 and decay fast at both ends, so this is good to an ulp."""
    x = np.arange(-360, 41) / 8.0
    e = np.exp(x)
    if definition == "pairing":
        f = (math.log(2.0) + x) * e / np.cosh(e) ** 2
    elif definition == "density":
        f = x * e / (2.0 * np.cosh(0.5 * e) ** 2)
    else:
        raise ValueError(f"unknown K definition {definition!r}")
    return math.fsum(f) / 8.0


def k_constant(definition: str = "closed") -> float:
    """The constant K, from its closed form or by 1D quadrature.

    "closed":   ln(pi/2) - gamma, the K of every prediction
    "pairing":  int_0^infty ln(2v) / cosh^2 v dv
    "density":  int_0^infty ln(u) / (2 cosh^2(u/2)) du

    The two quadratures are the same integral under u = 2v, each on its
    own variable's grid and computed once per process; their agreement
    is an executable check of the change of variables.
    """
    if definition == "closed":
        return _K
    return _k_trapezoid(definition)


def k_prime_constant() -> float:
    """K' = int_0^infty (ln 2v)^2 / cosh^2 v dv, from its closed form."""
    return _K_PRIME


@dataclass(frozen=True)
class BubbleResult:
    """One bubble evaluation next to its large-beta prediction.

    residual is value - asymptotic_prediction, from beta_c = 2 up summed
    from the tail series (module docstring).  It keeps full relative
    precision while it is a normal double (beta below about 700), then
    loses digits as a subnormal and reads -0.0 from beta of about 740,
    where 4 e^{-beta}/beta (ph) or 4 e^{-beta}/beta^2 (pp) underflows.
    Construction checks it matches the double difference to the
    rounding noise of the values.
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
    (ln b)^2 - 2K ln b + K' (pp); from beta_c = 2 up the residual comes
    from the tail series and the value is prediction + residual."""
    if not 0.0 < beta < float("inf"):
        raise ValueError("bubble needs finite beta > 0")

    L = math.log(beta)
    pred = -2.0 * L + 2.0 * _K if kind == "ph" \
        else L * L - 2.0 * _K * L + _K_PRIME
    x, w = _laguerre_rule()
    if beta < _BETA_C:
        h = 1.0 / np.cosh(0.5 * beta * np.exp(-x)) ** 2
        value = float(-beta * np.dot(w, x * h) if kind == "ph"
                      else 0.5 * beta * np.dot(w, x * x * h))
        residual = value - pred
    else:
        a = beta * np.arange(1.0, 2.0 + math.floor(_TAIL_SPAN / beta))
        if kind == "ph":
            # e^a E1(a) at each a = n beta
            tails = -4.0 * (1.0 / (a[:, None] + x) @ w)
        else:
            # a e^a J(a) at each a = n beta: e^{-a} times it is the
            # series term n beta J(n beta)
            tails = -2.0 * (np.log1p(x / a[:, None]) ** 2 @ w)
        sign = (-1.0) ** np.arange(len(a))
        residual = float(np.dot(sign * np.exp(-a), tails))
        value = pred + residual
    return BubbleResult(kind=kind, beta=beta, value=value,
                        asymptotic_prediction=pred, residual=residual)


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
