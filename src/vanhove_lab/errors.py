"""Shared exception types.

Every failure mode that a caller can sensibly react to gets its own class,
so tests can assert on the type rather than parse messages.  Budget
exhaustion in the quadrature engine is deliberately NOT here: running out
of function evaluations is an expected outcome, reported through
``QuadResult.converged``.
"""


class VanHoveLabError(Exception):
    """Base class for all package errors."""


class DegenerateHessian(VanHoveLabError):
    """A critical point has a Hessian eigenvalue below tolerance."""


class FactorizationFailed(VanHoveLabError):
    """No normal form at any radius tried: a branch left its bracket, or a
    vanished or changed sign on the patch."""


class FlatBranch(VanHoveLabError):
    """No nonvanishing branch derivative detected up to the requested order."""


class HypothesisViolated(VanHoveLabError):
    """A lemma precondition fails on the supplied data; no claim is made."""


class ZeroFrequency(VanHoveLabError):
    """External frequency q0 = 0 removes the regularization; refuse."""


class NonFiniteSample(VanHoveLabError):
    """An integrand returned NaN or infinity."""


class SingularDesign(VanHoveLabError):
    """Least-squares design matrix is rank deficient or near singular."""
