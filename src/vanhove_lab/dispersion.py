"""Band dispersions, saddle-point detection, and Morse normal forms.

The lab studies two bands, each on its own domain:

* Hubbard-type band e(k) = -cos k1 - cos k2 + theta (1 + cos k1 cos k2) - mu
  on the torus [-pi, pi)^2, with 0 < theta < 1 so the only critical points
  are the four corners of {0, pi}^2.  For mu = 0 the saddles (pi, 0) and
  (0, pi) sit exactly on the Fermi surface with Hessian eigenvalues
  {theta - 1, 1 + theta}.
* XY model e(k) = k1 k2 on [-1, 1]^2: the exact product normal form.

The normal-form factorization writes e(p + A k) = a(k) P1(k) P2(k) with
P1 = k1 - k2^{nu1} b(k), P2 = k2 - k1^{nu2} c(k), where the columns of A
span the two isotropic directions of the Hessian (so the zero curves
become tangent to the axes) and the branch functions are found by 1D
Newton continuation.  nu is the order of the first Taylor coefficient of
the branch that passes a relative-significance test; an exactly straight
branch is kept in product form (nu = None, b = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import DegenerateHessian, FactorizationFailed, FlatBranch

__all__ = [
    "DispersionModel",
    "SingularPoint",
    "GridField",
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
_FACTORIZATION_TOL = 1e-6  # largest residual of an accepted normal form


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
# Morse normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridField:
    """Scalar field sampled on a uniform square grid with bilinear lookup."""

    axis: np.ndarray  # shared 1D axis for both coordinates
    values: np.ndarray  # shape (n, n), indexed [i1, i2]

    def __call__(self, k) -> np.ndarray:
        k = np.asarray(k, dtype=float)
        k1, k2 = k[..., 0], k[..., 1]
        a = self.axis
        h = a[1] - a[0]
        f1 = np.clip((k1 - a[0]) / h, 0.0, len(a) - 1.000001)
        f2 = np.clip((k2 - a[0]) / h, 0.0, len(a) - 1.000001)
        i1 = f1.astype(int)
        i2 = f2.astype(int)
        t1 = f1 - i1
        t2 = f2 - i2
        v = self.values
        return (
            v[i1, i2] * (1 - t1) * (1 - t2)
            + v[i1 + 1, i2] * t1 * (1 - t2)
            + v[i1, i2 + 1] * (1 - t1) * t2
            + v[i1 + 1, i2 + 1] * t1 * t2
        )


@dataclass(frozen=True)
class NormalForm:
    A: np.ndarray
    nu1: Optional[int]
    nu2: Optional[int]
    a_fn: GridField
    b_fn: GridField
    c_fn: GridField
    radius: float
    max_residual: float

    def factors(self, k) -> Tuple[np.ndarray, np.ndarray]:
        k = np.asarray(k, dtype=float)
        k1, k2 = k[..., 0], k[..., 1]
        b = self.b_fn(k)
        c = self.c_fn(k)
        p1 = k1 - (k2 ** self.nu1 * b if self.nu1 is not None else b)
        p2 = k2 - (k1 ** self.nu2 * c if self.nu2 is not None else c)
        return p1, p2

    def reconstruct(self, k) -> np.ndarray:
        p1, p2 = self.factors(k)
        return self.a_fn(k) * p1 * p2


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


def _branch_solver(ebar_fn, debar_fn, axis_index: int):
    """Newton solver for the branch tangent to the given axis.

    axis_index 0 solves ebar(phi, t) = 0 for phi (branch near k2-axis is
    k1 = phi(k2)); axis_index 1 solves ebar(t, phi) = 0.
    """

    def solve(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        phi = np.zeros_like(t)
        scale = None
        prev = math.inf
        for _ in range(60):
            if axis_index == 0:
                pts = np.stack([phi, t], axis=-1)
            else:
                pts = np.stack([t, phi], axis=-1)
            r = ebar_fn(pts)
            if scale is None:
                scale = 1.0 + float(np.max(np.abs(r)))
            d = debar_fn(pts)[..., axis_index]
            step = np.where(t == 0.0, 0.0, r / np.where(d == 0.0, 1.0, d))
            phi = phi - step
            mx = float(np.max(np.abs(step)))
            if mx < 1e-14 or mx >= prev:  # done, or at the roundoff floor
                break
            prev = mx
        if axis_index == 0:
            pts = np.stack([phi, t], axis=-1)
        else:
            pts = np.stack([t, phi], axis=-1)
        if float(np.max(np.abs(ebar_fn(pts)))) > 1e-10 * scale:
            raise FactorizationFailed("branch Newton did not converge")
        return phi

    return solve


def _branch_order(
    solve: Callable, radius: float, max_order: int = 6, threshold: float = 1e-4
) -> Tuple[Optional[int], float]:
    """Order of the first significant Taylor coefficient of the branch.

    Returns (nu, leading_coefficient); nu None means the branch is
    numerically the exact axis (pure product form).  Raises FlatBranch
    for a branch that deviates from the axis with no polynomial order up
    to max_order.
    """
    h = radius / 4.0
    js = np.arange(-3, 4)
    samples = solve(js * h)
    scale = float(np.max(np.abs(samples)))
    if scale < 1e-12 * radius:
        return None, 0.0
    # Taylor coefficients of the degree-6 interpolant through the stencil
    V = np.vander(js.astype(float), 7, increasing=True)
    coeff_scaled = np.linalg.solve(V, samples)  # coefficients in t = k/h
    coeffs = coeff_scaled / h ** np.arange(7)
    window = 3.0 * h
    for m in range(2, max_order + 1):
        if abs(coeffs[m]) * window ** m >= threshold * scale:
            return int(m), float(coeffs[m])
    raise FlatBranch(
        f"no significant branch derivative up to order {max_order}"
    )


def morse_normal_form(
    model: DispersionModel,
    p: SingularPoint,
    radius: float = 0.1,
    grid: int = 41,
) -> NormalForm:
    """Factor e(p + A k) = a(k) (k1 - k2^nu1 b)(k2 - k1^nu2 c) on a
    square grid of half-width ``radius``.

    The residual is measured at the grid nodes and, through the bilinear
    interpolants, at all cell midpoints; if the midpoint residual
    exceeds the tolerance the radius is halved (up to 6 times) before
    giving up.
    """
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValueError("radius must be positive and finite")
    if grid < 2:
        raise ValueError("grid needs at least 2 nodes per side")
    A = _isotropic_frame(p)
    loc = p.location

    def ebar(k):
        return evaluate(model, loc[None, :] + np.asarray(k) @ A.T)

    def debar(k):
        g = gradient(model, loc[None, :] + np.asarray(k) @ A.T)
        return g @ A

    for attempt in range(7):
        rho = radius / 2 ** attempt
        try:
            nf = _build_normal_form(A, ebar, debar, rho, grid)
        except FactorizationFailed:
            continue
        if nf.max_residual <= _FACTORIZATION_TOL:
            return nf
    raise FactorizationFailed(
        f"residual above {_FACTORIZATION_TOL} after 6 radius halvings"
    )


def _build_normal_form(A, ebar, debar, rho, grid) -> NormalForm:
    solve1 = _branch_solver(ebar, debar, 0)  # k1 = phi1(k2)
    solve2 = _branch_solver(ebar, debar, 1)  # k2 = phi2(k1)
    nu1, lead1 = _branch_order(solve1, rho)
    nu2, lead2 = _branch_order(solve2, rho)

    axis = np.linspace(-rho, rho, grid)
    K1, K2 = np.meshgrid(axis, axis, indexing="ij")

    phi1 = solve1(axis)  # branch positions per k2 value
    phi2 = solve2(axis)

    def b_values():
        if nu1 is None:
            return np.zeros((grid, grid))
        with np.errstate(divide="ignore", invalid="ignore"):
            row = np.where(axis != 0.0, phi1 / axis ** nu1, lead1)
        return np.broadcast_to(row[None, :], (grid, grid)).copy()

    def c_values():
        if nu2 is None:
            return np.zeros((grid, grid))
        with np.errstate(divide="ignore", invalid="ignore"):
            col = np.where(axis != 0.0, phi2 / axis ** nu2, lead2)
        return np.broadcast_to(col[:, None], (grid, grid)).copy()

    bv = b_values()
    cv = c_values()
    P1 = K1 - phi1[None, :]
    P2 = K2 - phi2[:, None]
    pts = np.stack([K1.ravel(), K2.ravel()], axis=-1)
    E = ebar(pts).reshape(grid, grid)
    den = P1 * P2
    floor = 1e-12 * max(float(np.max(np.abs(E))), 1e-30)
    good = np.abs(den) > floor
    av = np.where(good, E / np.where(good, den, 1.0), np.nan)
    av = _fill_nan_nearest(av)

    a_fn = GridField(axis=axis, values=av)
    b_fn = GridField(axis=axis, values=bv)
    c_fn = GridField(axis=axis, values=cv)
    nf = NormalForm(
        A=A, nu1=nu1, nu2=nu2, a_fn=a_fn, b_fn=b_fn, c_fn=c_fn,
        radius=rho, max_residual=np.inf,
    )

    if not np.all(np.isfinite(av)) or float(np.min(np.abs(av))) < 1e-6:
        raise FactorizationFailed("a(k) not bounded away from zero on grid")

    mid = (axis[:-1] + axis[1:]) / 2.0
    M1, M2 = np.meshgrid(mid, mid, indexing="ij")
    probe = np.stack([M1.ravel(), M2.ravel()], axis=-1)
    res_mid = np.max(np.abs(ebar(probe) - nf.reconstruct(probe)))
    res_node = np.max(np.abs(E - nf.reconstruct(pts).reshape(grid, grid)))
    return NormalForm(
        A=A, nu1=nu1, nu2=nu2, a_fn=a_fn, b_fn=b_fn, c_fn=c_fn, radius=rho,
        max_residual=float(max(res_mid, res_node)),
    )


def _fill_nan_nearest(v: np.ndarray) -> np.ndarray:
    """Replace NaN nodes by the nearest finite node value (small count)."""
    out = v.copy()
    bad = np.argwhere(~np.isfinite(out))
    if len(bad) == 0:
        return out
    good = np.argwhere(np.isfinite(out))
    for i, j in bad:
        d = np.abs(good[:, 0] - i) + np.abs(good[:, 1] - j)
        gi, gj = good[np.argmin(d)]
        out[i, j] = out[gi, gj]
    return out
