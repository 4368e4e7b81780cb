"""Numerical laboratory for second-order perturbation theory at a Van Hove point.

Subpackages by role:

* ``dispersion`` -- band functions, saddle points, Morse normal forms
* ``geometry``   -- Fermi-curve tracing, length-of-overlap experiments,
  the derivative-bound interval estimate
* ``matsubara``  -- occupation factors, thermal delta, frequency sums
* ``quad``       -- adaptive cubature on boxes, Monte-Carlo cross-check
* ``orthant``    -- the 16-case sign table folding [-1,1]^4 onto [0,1]^4
* ``selfenergy`` -- the second-order self-energy and its frequency/space
  derivatives in reduced (low-dimensional) form
* ``bubbles``    -- particle-hole and particle-particle one-loop integrals
  at the Van Hove filling, with residuals from their exponential tails
* ``fitlab``     -- extraction of (log q0)^2 / log q0 / constant coefficients
* ``cli``        -- command-line front end emitting CSV/JSON/SVG artifacts
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateHessian,
    FactorizationFailed,
    FlatBranch,
    HypothesisViolated,
    NonFiniteSample,
    SingularDesign,
    VanHoveLabError,
    ZeroFrequency,
)

__all__ = [
    "__version__",
    "VanHoveLabError",
    "DegenerateHessian",
    "FactorizationFailed",
    "FlatBranch",
    "HypothesisViolated",
    "ZeroFrequency",
    "NonFiniteSample",
    "SingularDesign",
]
