"""Thermal statistics: the Fermi factor, the thermal delta, and the
frequency-summed two-loop kernel.

All functions accept scalars or numpy arrays for the energy arguments and
mirror the input shape.  Exponentials are taken in forms that stay
finite or overflow only to an exact limit, so that beta up to 1e4 is
safe: the Fermi factor is 1/(1 + e^{beta E}) in numpy, where e^{beta E}
= inf gives the occupation 0, and sech^2 is rewritten through e^{-|x|}.
The Bose factor enters only through the kernel's occupation numerator,
in a product identity that removes its pole.

Zero temperature is a flag, not beta = inf: the step convention at E = 0
is Theta_{1/2}(0) = 1/2, which keeps grid quadrature reproducible when a
node lands exactly on the Fermi surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ZeroFrequency

__all__ = ["ThermalState", "fermi", "approx_delta", "sigma2_kernel"]

Energy = Union[float, np.ndarray]


@dataclass(frozen=True)
class ThermalState:
    beta: float = 0.0
    zero_temperature: bool = False

    def __post_init__(self) -> None:
        if not self.zero_temperature and not 0 < self.beta < np.inf:
            raise ValueError("finite-temperature state needs finite beta > 0")

    @classmethod
    def finite(cls, beta: float) -> "ThermalState":
        return cls(beta=float(beta))

    @classmethod
    def zero(cls) -> "ThermalState":
        return cls(beta=0.0, zero_temperature=True)


def _match(E: Energy, out: np.ndarray) -> Energy:
    if np.ndim(E) == 0:
        return float(out)
    return out


def fermi(state: ThermalState, E: Energy) -> Energy:
    """Occupation (1 + e^{beta E})^{-1}; step function with midpoint 1/2
    at zero temperature.

    At finite beta e^{beta E} may overflow to inf, which gives the exact
    limit 0, so the overflow is not reported.  At zero temperature the
    step is 1/2 - sign(E)/2.  A NaN energy gives NaN on both branches.
    """
    x = np.asarray(E, dtype=float)
    if state.zero_temperature:
        out = 0.5 - 0.5 * np.sign(x)
    else:
        with np.errstate(over="ignore"):
            out = 1.0 / (1.0 + np.exp(state.beta * x))
    return _match(E, out)


def approx_delta(state: ThermalState, x: Energy) -> Energy:
    """Thermal delta beta / (4 cosh^2(beta x / 2)).

    Computed as beta e^{-|beta x|} / (1 + e^{-|beta x|})^2, which
    underflows gracefully to 0 for |beta x| beyond the exponent range.
    """
    if state.zero_temperature:
        raise ValueError("approx_delta needs finite beta")
    t = np.abs(state.beta * np.asarray(x, dtype=float))
    w = np.exp(-t)
    out = state.beta * w / (1.0 + w) ** 2
    return _match(x, out)


def _numerator(state: ThermalState, E1: Energy, E2: Energy, E3: Energy):
    # (f1 + b_{23})(f2 - f3) with the removable Bose pole eliminated:
    # b(E2-E3)(f2-f3) = f2 (f3 - 1) identically, so the combined form is
    # regular on E2 = E3 and bounded by 2 in magnitude.
    f1 = fermi(state, E1)
    f2 = fermi(state, E2)
    f3 = fermi(state, E3)
    return f1 * (f2 - f3) + f2 * (f3 - 1.0)


def sigma2_kernel(
    state: ThermalState, E1: Energy, E2: Energy, E3: Energy, q0: float
) -> Union[complex, np.ndarray]:
    """Summed-frequency kernel -(f(E1)+b(E2-E3))(f(E2)-f(E3)) / (iq0 + eps)
    with eps = E2 - E3 - E1.

    The numerator is always assembled through the pole-free product
    identity; its magnitude never exceeds 2, so |kernel| <= 2/|q0|.
    """
    if q0 == 0:
        raise ZeroFrequency("sigma2 kernel needs q0 != 0")
    num = _numerator(state, E1, E2, E3)
    eps = np.asarray(E2, dtype=float) - np.asarray(E3, dtype=float) - np.asarray(
        E1, dtype=float
    )
    out = -np.asarray(num) / (1j * q0 + eps)
    if out.ndim == 0:
        return complex(out)
    return out
