"""Band dispersions, saddle-point detection, and Morse normal forms.

The lab studies two bands, each on its own domain:

* Hubbard-type band e(k) = -cos k1 - cos k2 + theta (1 + cos k1 cos k2) - mu
  on the torus [-pi, pi)^2, with 0 < theta < 1 so the only critical points
  are the four corners of {0, pi}^2.  For mu = 0 the saddles (pi, 0) and
  (0, pi) sit exactly on the Fermi surface with Hessian eigenvalues
  {theta - 1, 1 + theta}.
* XY model e(k) = k1 k2 on [-1, 1]^2: the exact product normal form.

The normal-form factorization writes e(p + A k) = a(k) P1(k) P2(k) with
P1 = k1 - k2^{nu1} b(k2), P2 = k2 - k1^{nu2} c(k1), where the columns of A
span the two isotropic directions of the Hessian (so the zero curves
become tangent to the axes).  The branches k1 = phi1(k2) and
k2 = phi2(k1) are root-found where they are used, each in the bracket
|phi| <= |t| / 2 by the bracketed Newton that geometry shares
(``_newton``).  nu is the order of the first Taylor coefficient of the
branch that passes a relative-significance test; an exactly straight
branch is kept in product form (nu = None, b = 0).  a = e / (P1 P2) is
evaluated exactly at the patch's cell midpoints, none of which lies on
an axis, and the normal form keeps its range [a_min, a_max] and, as
max_residual, the largest |e| at the branch points.  Nothing is
interpolated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import DegenerateHessian, FactorizationFailed, FlatBranch

__all__ = [
    "DispersionModel",
    "SingularPoint",
    "NormalForm",
    "evaluate",
    "gradient",
    "hessian",
    "find_singular_points",
    "morse_normal_form",
]


@dataclass(frozen=True)
class DispersionModel:
    """One of the two bands above; ``domain`` follows from ``kind``: the
    torus [-pi, pi)^2 for hubbard, the box [-1, 1]^2 for xy."""

    kind: str  # "hubbard" | "xy"
    theta: float = 0.0
    mu: float = 0.0

    def __post_init__(self) -> None:
        if self.kind == "hubbard":
            if not 0.0 < self.theta < 1.0:
                raise ValueError("hubbard model needs 0 < theta < 1")
            if not math.isfinite(self.mu):
                raise ValueError("hubbard model needs a finite mu")
        elif self.kind == "xy":
            if self.theta != 0.0 or self.mu != 0.0:
                raise ValueError("xy model takes no theta or mu")
        else:
            raise ValueError(f"unknown model kind {self.kind!r}")

    @property
    def domain(self) -> Tuple[Tuple[float, float], Tuple[float, float]]:
        if self.kind == "hubbard":
            return (-math.pi, math.pi), (-math.pi, math.pi)
        return (-1.0, 1.0), (-1.0, 1.0)

    @classmethod
    def hubbard(cls, theta: float, mu: float = 0.0) -> "DispersionModel":
        return cls(kind="hubbard", theta=float(theta), mu=float(mu))

    @classmethod
    def xy(cls) -> "DispersionModel":
        return cls(kind="xy")


def _split(k: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    k = np.asarray(k, dtype=float)
    return k[..., 0], k[..., 1]


def evaluate(model: DispersionModel, k) -> np.ndarray:
    k1, k2 = _split(k)
    if model.kind == "hubbard":
        c1, c2 = np.cos(k1), np.cos(k2)
        return -c1 - c2 + model.theta * (1.0 + c1 * c2) - model.mu
    return k1 * k2


def gradient(model: DispersionModel, k) -> np.ndarray:
    k1, k2 = _split(k)
    if model.kind == "hubbard":
        g1 = np.sin(k1) * (1.0 - model.theta * np.cos(k2))
        g2 = np.sin(k2) * (1.0 - model.theta * np.cos(k1))
        return np.stack([g1, g2], axis=-1)
    return np.stack([k2, k1], axis=-1)


def hessian(model: DispersionModel, k) -> np.ndarray:
    k1, k2 = _split(k)
    if model.kind == "hubbard":
        h11 = np.cos(k1) * (1.0 - model.theta * np.cos(k2))
        h22 = np.cos(k2) * (1.0 - model.theta * np.cos(k1))
        h12 = model.theta * np.sin(k1) * np.sin(k2)
        row1 = np.stack([h11, h12], axis=-1)
        row2 = np.stack([h12, h22], axis=-1)
        return np.stack([row1, row2], axis=-2)
    base = np.array([[0.0, 1.0], [1.0, 0.0]])
    return np.broadcast_to(base, np.shape(k1) + (2, 2)).copy()


@dataclass(frozen=True)
class SingularPoint:
    location: np.ndarray
    hessian_eigenvalues: Tuple[float, float]
    hessian_rotation: np.ndarray  # columns are the eigenvectors


def _critical_points(model: DispersionModel) -> List[Tuple[float, float]]:
    """Every zero of the gradient: with 0 < theta < 1 the hubbard gradient
    vanishes only at the four corners of {0, pi}^2, the xy one at 0."""
    if model.kind == "hubbard":
        return [(0.0, 0.0), (math.pi, math.pi), (math.pi, 0.0), (0.0, math.pi)]
    return [(0.0, 0.0)]


_SURFACE_TOL = 1e-10  # largest |e| of a point on the Fermi surface
_HESSIAN_TOL = 1e-8  # smallest |Hessian eigenvalue| of a nondegenerate saddle


def find_singular_points(model: DispersionModel) -> List[SingularPoint]:
    """The critical points that lie on the Fermi surface (|e| below
    tolerance) and are saddles."""
    found = []
    for point in _critical_points(model):
        k = np.array(point)
        if abs(float(evaluate(model, k))) >= _SURFACE_TOL:
            continue  # critical but off the Fermi surface
        H = hessian(model, k)
        eigvals, eigvecs = np.linalg.eigh(H)
        if np.min(np.abs(eigvals)) < _HESSIAN_TOL:
            raise DegenerateHessian(
                f"Hessian eigenvalue {eigvals} below tolerance at {k}"
            )
        if eigvals[0] * eigvals[1] >= 0:
            continue  # extremum, not a Van Hove point
        found.append(
            SingularPoint(
                location=k,
                hessian_eigenvalues=(float(eigvals[0]), float(eigvals[1])),
                hessian_rotation=eigvecs,
            )
        )
    return found


# ---------------------------------------------------------------------------
# Bracketed Newton, shared with geometry
# ---------------------------------------------------------------------------

_NEWTON_ITER = 100  # Newton or bisection steps of one root, at most
_UNIT_ROUNDOFF = 2.0 ** -53  # of float64


def _root_tol(model: DispersionModel) -> float:
    """16 unit roundoffs of the hubbard band's scale 2 + 2 theta + |mu|:
    the |e| at which a point counts as on the curve."""
    return 16.0 * _UNIT_ROUNDOFF * (2.0 + 2.0 * model.theta + abs(model.mu))


def _newton(fg, lo: np.ndarray, hi: np.ndarray, t: np.ndarray, tol: np.ndarray):
    """Roots of increasing functions g on brackets [lo, hi] with
    g(lo) < 0 < g(hi), from the first guesses t.

    ``fg(idx, t)`` returns g and g' of the roots idx at t.  Newton's step
    is taken when it stays strictly inside the bracket, the bracket's
    midpoint otherwise; a root stops once |g| <= tol or its bracket is a
    few ulps wide, and only the others are evaluated again.  It returns
    the last t, g and g' of each root; lo and hi are narrowed in place.
    Bisection alone narrows a bracket of width pi to one ulp in about 53
    halvings, well inside ``_NEWTON_ITER``.
    """
    idx = np.arange(len(t))
    g, dg = fg(idx, t)
    for _ in range(_NEWTON_ITER):
        idx = idx[~((np.abs(g[idx]) <= tol[idx])
                    | (hi[idx] - lo[idx] <= 8.0 * _UNIT_ROUNDOFF * hi[idx]))]
        if not len(idx):
            break
        ti, gi = t[idx], g[idx]
        lo[idx] = np.where(gi < 0.0, ti, lo[idx])
        hi[idx] = np.where(gi > 0.0, ti, hi[idx])
        with np.errstate(divide="ignore", invalid="ignore"):
            step = ti - gi / dg[idx]
        # a NaN step (zero slope) fails the test and bisects
        t[idx] = np.where((step > lo[idx]) & (step < hi[idx]), step,
                          0.5 * (lo[idx] + hi[idx]))
        g[idx], dg[idx] = fg(idx, t[idx])
    return t, g, dg


# ---------------------------------------------------------------------------
# Morse normal form
# ---------------------------------------------------------------------------

_CELLS = 40  # cells per side of the patch; a is taken at their midpoints
_STENCIL = np.arange(-3, 4)  # branch samples t = j radius / 4 for the order


@dataclass(frozen=True)
class NormalForm:
    """e(p + A k) = a(k) (k1 - k2^nu1 b(k2)) (k2 - k1^nu2 c(k1)) on the
    patch |k1|, |k2| <= radius; nu None means the branch is the axis.

    a_min and a_max are the least and largest |a| = |e / (P1 P2)| at the
    patch's 40 x 40 cell midpoints.  max_residual is the largest |e| at
    the branch points k1 = k2^nu1 b and k2 = k1^nu2 c where they were
    computed: how far {e = 0} lies from the factors' zero set.
    """

    A: np.ndarray
    nu1: Optional[int]
    nu2: Optional[int]
    radius: float
    a_min: float
    a_max: float
    max_residual: float


def _isotropic_frame(p: SingularPoint) -> np.ndarray:
    lam = np.asarray(p.hessian_eigenvalues)
    vecs = p.hessian_rotation
    i_pos = int(np.argmax(lam))
    i_neg = 1 - i_pos
    u = vecs[:, i_pos] / math.sqrt(lam[i_pos]) + vecs[:, i_neg] / math.sqrt(
        -lam[i_neg]
    )
    v = vecs[:, i_pos] / math.sqrt(lam[i_pos]) - vecs[:, i_neg] / math.sqrt(
        -lam[i_neg]
    )
    A = np.column_stack([u / np.linalg.norm(u), v / np.linalg.norm(v)])
    return A


def _branches(ebar, debar, t: np.ndarray, tol: float) -> np.ndarray:
    """Rows phi1(t) and phi2(t): the roots of ebar(phi, t) = 0 and
    ebar(t, phi) = 0 in the bracket |phi| <= |t| / 2, by ``_newton``.

    g = sign * ebar, the sign taken from ebar's rise across the bracket,
    increases along it.  phi = 0 at t = 0, where the bracket is a point.
    Newton starts one step from the axis phi = 0.  A branch that the
    bracket does not enclose raises FactorizationFailed.
    """
    tt = np.concatenate([t, t])
    first = np.arange(len(tt)) < len(t)  # phi is k1, else k2

    def at(idx, phi):
        return np.where(first[idx, None], np.stack([phi, tt[idx]], axis=-1),
                        np.stack([tt[idx], phi], axis=-1))

    idx = np.arange(len(tt))
    lo, hi = -0.5 * np.abs(tt), 0.5 * np.abs(tt)
    e_lo, e_hi = ebar(at(idx, lo)), ebar(at(idx, hi))
    if not np.all((e_lo * e_hi <= 0.0) | (tt == 0.0)):
        raise FactorizationFailed("a branch leaves the bracket |phi| <= |t|/2")
    sign = np.sign(e_hi - e_lo)

    def fg(idx, phi):  # g and its derivative along phi's own axis
        k = at(idx, phi)
        return (sign[idx] * ebar(k),
                sign[idx] * np.where(first[idx], *debar(k).T))

    # one Newton step from the axis first: |ebar| there can already be
    # below tol on a small patch, long before phi is resolved
    g, dg = fg(idx, np.zeros_like(tt))
    with np.errstate(divide="ignore", invalid="ignore"):
        start = np.clip(np.nan_to_num(-g / dg), lo, hi)
    phi, _, _ = _newton(fg, lo, hi, start, np.full(len(tt), tol))
    return phi.reshape(2, len(t))


def _branch_order(
    samples: np.ndarray, radius: float, max_order: int = 6,
    threshold: float = 1e-4,
) -> Optional[int]:
    """Order of the first significant Taylor coefficient of a branch
    sampled at t = j radius / 4, j = -3 .. 3 (``_STENCIL``).

    None means the branch is numerically the exact axis (pure product
    form).  Raises FlatBranch for a branch that deviates from the axis
    with no polynomial order up to max_order.
    """
    h = radius / 4.0
    scale = float(np.max(np.abs(samples)))
    if scale < 1e-12 * radius:
        return None
    # Taylor coefficients of the degree-6 interpolant through the stencil
    V = np.vander(_STENCIL.astype(float), 7, increasing=True)
    coeffs = np.linalg.solve(V, samples) / h ** np.arange(7)
    window = 3.0 * h
    for m in range(2, max_order + 1):
        if abs(coeffs[m]) * window ** m >= threshold * scale:
            return m
    raise FlatBranch(
        f"no significant branch derivative up to order {max_order}"
    )


def morse_normal_form(
    model: DispersionModel, p: SingularPoint, radius: float = 0.1
) -> NormalForm:
    """Factor e(p + A k) = a(k) (k1 - k2^nu1 b)(k2 - k1^nu2 c) on the
    square patch of half-width ``radius``.

    The branches are solved exactly where they are used, a is e / (P1 P2)
    at the patch's cell midpoints, and nothing is interpolated.  When a
    branch leaves its bracket or a vanishes or changes sign
    (FactorizationFailed), the radius is halved, up to 6 times.
    """
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValueError("radius must be positive and finite")
    A = _isotropic_frame(p)
    loc = p.location
    tol = _root_tol(model)

    def ebar(k):
        return evaluate(model, loc + k @ A.T)

    def debar(k):
        return gradient(model, loc + k @ A.T) @ A

    for attempt in range(7):
        try:
            return _build_normal_form(A, ebar, debar, radius / 2 ** attempt, tol)
        except FactorizationFailed as exc:
            failure = exc
    raise FactorizationFailed(f"after 6 radius halvings: {failure}")


def _build_normal_form(A, ebar, debar, rho: float, tol: float) -> NormalForm:
    mid = np.linspace(-rho, rho, 2 * _CELLS + 1)[1::2]
    t = np.concatenate([_STENCIL * (rho / 4.0), mid])
    phi = _branches(ebar, debar, t, tol)
    nu = [_branch_order(row[:len(_STENCIL)], rho) for row in phi]
    phi[[n is None for n in nu]] = 0.0  # product form: the branch is the axis
    residual = max(float(np.max(np.abs(ebar(np.stack(k, axis=-1)))))
                   for k in ((phi[0], t), (t, phi[1])))

    phi1, phi2 = phi[:, len(_STENCIL):]
    K1, K2 = np.meshgrid(mid, mid, indexing="ij")
    with np.errstate(divide="ignore", invalid="ignore"):
        a = ebar(np.stack([K1, K2], axis=-1)) \
            / ((K1 - phi1[None, :]) * (K2 - phi2[:, None]))
    if not (np.all(np.isfinite(a)) and (np.all(a > 0.0) or np.all(a < 0.0))):
        raise FactorizationFailed("a(k) vanishes or changes sign on the patch")
    return NormalForm(A=A, nu1=nu[0], nu2=nu[1], radius=rho,
                      a_min=float(np.min(np.abs(a))),
                      a_max=float(np.max(np.abs(a))), max_residual=residual)
