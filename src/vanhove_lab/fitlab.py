"""Least-squares extraction of log-asymptotic coefficients.

Sweeps produced elsewhere in the lab follow

    y(x) = a (ln x)^2 + b ln x + c + r(x),        |r(x)| <= R,

with x the small swept parameter (a frequency, or an inverse
temperature read as 1/beta) and r a bounded remainder.  This module
fits the three coefficients by ordinary least squares in u = ln x and
reports three diagnostics next to them:

* standard errors from the residual covariance sigma^2 (X^T X)^{-1}
  with sigma^2 = RSS / (n - 3);
* a window-halving stability shift: the fit repeats on the upper half
  of the u-window and the largest coefficient change is recorded;
* the bounded-remainder amplification kappa per coefficient: the OLS
  estimate is coef + H r with H = (X^T X)^{-1} X^T, so |r| <= R moves
  coefficient i by at most R * ||H_i||_1.  kappa turns "the remainder
  is bounded" into an explicit coefficient tolerance instead of a
  guessed one.

Unweighted OLS is deliberate: the sweeps come with boundedness of the
remainder, not a noise model, so uniform weights plus the stability
and kappa diagnostics are the honest choice.  Samples are sorted by x
before any arithmetic, which makes the fit bitwise invariant under
reordering of the input.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

from .errors import SingularDesign

__all__ = ["LogFit", "fit_log_square"]

# Relative floor on the design's singular values; below it the three
# basis columns are numerically dependent on this window.
_COND_FLOOR = 1e-13


@dataclass(frozen=True)
class LogFit:
    """OLS fit of y on (ln x)^2, ln x, 1 with stability diagnostics.

    window is (min x, max x); stability_shift is the largest change of
    any coefficient when the fit repeats on the upper half of the
    ln x window (NaN when that half holds too few points to refit);
    kappa_* bound the coefficient error under a bounded remainder:
    |coef - truth| <= R * kappa when |remainder| <= R at the samples.
    """

    a: float
    b: float
    c: float
    stderr_a: float
    stderr_b: float
    stderr_c: float
    window: Tuple[float, float]
    stability_shift: float
    kappa_a: float
    kappa_b: float
    kappa_c: float

    def __post_init__(self) -> None:
        if not (self.stderr_a >= 0 and self.stderr_b >= 0
                and self.stderr_c >= 0):
            raise ValueError("standard errors must be nonnegative")
        if not self.window[0] < self.window[1]:
            raise ValueError("window must satisfy min < max")

    def predict(self, x):
        """Fitted value a (ln x)^2 + b ln x + c, elementwise."""
        u = np.log(np.asarray(x, dtype=float))
        return self.a * u * u + self.b * u + self.c

    def to_dict(self) -> dict:
        """Plain-float form for embedding in JSON manifests."""
        return {**asdict(self), "window": list(self.window)}


def _solve(u: np.ndarray, y: np.ndarray):
    """Core OLS on the columns (u^2, u, 1); returns coef, H, XtX_inv."""
    X = np.column_stack([u * u, u, np.ones_like(u)])
    sv = np.linalg.svd(X, compute_uv=False)
    if sv[-1] <= _COND_FLOOR * sv[0]:
        raise SingularDesign(
            "design matrix numerically rank deficient on this window")
    XtX_inv = np.linalg.inv(X.T @ X)
    H = XtX_inv @ X.T
    return H @ y, H, XtX_inv, X


def fit_log_square(samples: Iterable[Sequence[float]]) -> LogFit:
    """Fit y = a (ln x)^2 + b ln x + c to (x, y) samples by OLS.

    Needs at least 5 samples with positive, finite, pairwise distinct
    x and finite y.  Raises SingularDesign when the logs collapse to
    3 or fewer distinct values (distinct x this close round to the
    same double under ln) or the design loses rank.
    """
    pairs = [(float(x), float(y)) for x, y in samples]
    if len(pairs) < 5:
        raise ValueError("need at least 5 samples")
    pairs.sort()
    x = np.array([p[0] for p in pairs])
    y = np.array([p[1] for p in pairs])
    if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
        raise ValueError("samples must be finite")
    if np.any(x <= 0.0):
        raise ValueError("swept variable must be positive")
    if np.any(np.diff(x) == 0.0):
        raise ValueError("swept values must be distinct")

    u = np.log(x)
    if np.unique(u).size <= 3:
        raise SingularDesign("3 or fewer distinct ln x values")

    coef, H, XtX_inv, X = _solve(u, y)
    resid = y - X @ coef
    dof = len(y) - 3
    sigma2 = float(resid @ resid) / dof
    stderr = np.sqrt(np.maximum(sigma2 * np.diag(XtX_inv), 0.0))
    kappa = np.abs(H).sum(axis=1)

    # Refit on the upper half of the ln x window; the largest
    # coefficient movement is the window-stability diagnostic.
    mid = 0.5 * (u[0] + u[-1])
    keep = u >= mid
    shift = math.nan
    if keep.sum() >= 4 and np.unique(u[keep]).size >= 4:
        try:
            coef_half, _, _, _ = _solve(u[keep], y[keep])
            shift = float(np.max(np.abs(coef_half - coef)))
        except SingularDesign:
            pass

    return LogFit(
        a=float(coef[0]), b=float(coef[1]), c=float(coef[2]),
        stderr_a=float(stderr[0]), stderr_b=float(stderr[1]),
        stderr_c=float(stderr[2]),
        window=(float(x[0]), float(x[-1])),
        stability_shift=shift,
        kappa_a=float(kappa[0]), kappa_b=float(kappa[1]),
        kappa_c=float(kappa[2]),
    )
