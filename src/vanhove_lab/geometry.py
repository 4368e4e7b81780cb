"""Fermi-curve tracing and the overlap / small-set measurements.

The zero set {e = 0} is built from the shape of the two bands.  The xy
band's zero set is the two axes, written directly as four half-axes from
the saddle at the origin.  On the hubbard band with 0 < theta < 1, e is
strictly monotone along every ray k = c + r u from a pocket center c
while |k_i - c_i| < pi.  From c = Gamma (used for mu <= 0) the slope is
u . grad e = sum_i u_i sin(r u_i) (1 - theta cos k_j) > 0, since
1 - theta cos k_j > 0 and u_i sin(r u_i) >= 0, zero only where u_i = 0.
From c = (pi, pi) (used for mu > 0) each sine changes sign, so the slope
is < 0.  So each ray meets {e = 0} at most once, and the curve is r(phi)
in polar coordinates about c.  The curve
is solved by safeguarded Newton on 1,024 coarse rays, cut at uniform
arclength of that coarse chain into segments of about the step, and each
new point is solved on its own ray, all rays as one array.  At mu = 0
the curve runs through the saddles, which lie on the rays phi = a pi / 2
on the edge of the square about Gamma; it is cut there into four open
arcs whose end points are set to the saddle images.  Otherwise it is one
closed curve, or none when mu lies on or beyond a band edge.

The overlap length arclen{k on curve : |e(p + k)| <= T} is measured
(``overlap_lengths``) on a trace at the fixed step 0.01, each segment the
cubic Hermite between its end points with the exact tangents there
(``_segments``).  A gradient bound screens out the segments where
|e(p + k)| stays above max T, first in groups of eight, and the rest are
cut at the extremum of e(p + k) where one can hide a dip.  On each piece
the crossings of e(p + k) = +/-T are found by bracketed Newton, and the
flagged intervals' arclength comes by Gauss-Legendre quadrature, with an
error bound from the residuals, the curve's distance from {e = 0} and
the quadrature (``_flag``).  Both bands are even and their curves symmetric under
k -> -k, so translating by -p gives the same lengths.  The scaling
experiment samples translation momenta p, measures the overlap at
thresholds M^j, and compares with the bound (M^j / delta)^(1/n0) outside
a delta^2 fraction of exceptional p.

The interval lemma check verifies |{x : |f(x)| <= eps}| against the
bound 2^(k+1) (eps/eta)^(1/k) for polynomials with |f^(k)| >= eta.  Both
come from polynomial roots, all found by one eigenvalue call on stacked
companion matrices (``_real_roots``): the measure exactly, from the
pieces of [-1, 1] between the roots of f - eps and f + eps, and the
hypothesis at the ends and the roots of f^(k) and f^(k+1), where |f^(k)|
is least.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial import polynomial as P

from .dispersion import (
    DispersionModel,
    evaluate,
    find_singular_points,
    gradient,
    hessian,
    morse_normal_form,
    _newton,
    _root_tol,
)
from .errors import HypothesisViolated

__all__ = [
    "CurveSample",
    "OverlapScalingReport",
    "IntervalLemmaResult",
    "trace_fermi_curve",
    "overlap_lengths",
    "overlap_scaling_experiment",
    "interval_lemma_check",
]


@dataclass(frozen=True)
class CurveSample:
    points: np.ndarray  # (n, 2), unwrapped coordinates along the trace
    cumulative_arclength: np.ndarray  # (n,), starts at 0, strictly increasing
    closed: bool = False

    @property
    def total_length(self) -> float:
        return float(self.cumulative_arclength[-1])

    def segment_lengths(self) -> np.ndarray:
        return np.diff(self.cumulative_arclength)


_MAX_STEPS = 2_000_000  # most steps (segments) on one traced branch
_RAYS = 1024  # coarse rays of the hubbard construction, a multiple of 4
_INTERVAL = np.array([-1.0, 1.0])  # the interval lemma's interval


def _ray_roots(
    model: DispersionModel, center: np.ndarray, sign: float,
    phi: np.ndarray, r: np.ndarray,
) -> np.ndarray:
    """The points center + r u on {e = 0}, u = (cos phi, sin phi), one per
    ray, starting from the radii r.

    sign * e increases along each ray up to the square's edge at
    R = pi / max(|u1|, |u2|), from below zero at the center to at least
    zero at the edge, so [0, R] brackets its one root (``_newton``, to
    |e| <= ``_root_tol``).
    """
    u = np.stack([np.cos(phi), np.sin(phi)], axis=-1)

    def fg(idx, r):
        k = center + r[:, None] * u[idx]
        return sign * evaluate(model, k), \
            sign * np.sum(gradient(model, k) * u[idx], axis=-1)

    hi = math.pi / np.maximum(np.abs(u[:, 0]), np.abs(u[:, 1]))
    r, _, _ = _newton(fg, np.zeros_like(r), hi, r,
                      np.full(len(r), _root_tol(model)))
    return center + r[:, None] * u


def _step_count(length: float, step: float) -> int:
    """Equal segments of about ``step`` on a branch of the given length;
    three at least, so that a closed branch stays a polygon."""
    n = length / step
    if not n <= _MAX_STEPS:
        raise ValueError(
            f"step {step!r} cuts one branch into {n:.4g} segments, above "
            f"the limit of {_MAX_STEPS}"
        )
    return max(3, round(n))


def _sample(points: np.ndarray, closed: bool) -> CurveSample:
    seg = np.hypot(*np.diff(points, axis=0).T)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    return CurveSample(points=points, cumulative_arclength=cum, closed=closed)


def _hubbard_branches(model: DispersionModel, step: float) -> List[CurveSample]:
    mu = model.mu
    # the pocket's center, and the sign that makes e increase outward
    center = np.zeros(2) if mu <= 0.0 else np.full(2, math.pi)
    sign = 1.0 if mu <= 0.0 else -1.0
    if not sign * float(evaluate(model, center)) < -_root_tol(model):
        return []  # mu on or beyond a band edge
    phi = 2.0 * math.pi * np.arange(_RAYS + 1) / _RAYS
    pts = np.empty((_RAYS + 1, 2))
    closed = mu != 0.0
    if closed:
        ends = np.array([0, _RAYS])
        solve = np.arange(_RAYS + 1) < _RAYS  # the last ray is the first
    else:
        # four arcs between the rays phi = a pi / 2, which end exactly on
        # the saddle images
        ends = np.arange(0, _RAYS + 1, _RAYS // 4)
        solve = np.ones(_RAYS + 1, dtype=bool)
        solve[ends] = False
        pts[ends] = [[math.pi, 0.0], [0.0, math.pi], [-math.pi, 0.0],
                     [0.0, -math.pi], [math.pi, 0.0]]
    pts[solve] = _ray_roots(model, center, sign, phi[solve],
                            np.ones(np.count_nonzero(solve)))
    if closed:
        pts[-1] = pts[0]
    coarse = [(phi[i:j + 1], _sample(pts[i:j + 1], closed))
              for i, j in zip(ends[:-1], ends[1:])]
    counts = [_step_count(c.total_length, step) for _, c in coarse]
    branches = []
    for (phi_c, c), n in zip(coarse, counts):
        # rays at uniform arclength of the coarse chain, started from its
        # interpolated radii
        s = c.total_length * (np.arange(1, n) / n)
        cum = c.cumulative_arclength
        radius = np.hypot(*(c.points - center).T)
        fine = _ray_roots(model, center, sign, np.interp(s, cum, phi_c),
                          np.interp(s, cum, radius))
        branches.append(
            _sample(np.concatenate([c.points[:1], fine, c.points[-1:]]), closed)
        )
    return branches


def trace_fermi_curve(model: DispersionModel, step: float = 0.01) -> List[CurveSample]:
    """All connected branches of {e = 0}, as ordered point chains with
    segments of about ``step``.

    The xy band gives its four half-axes, each from the saddle at the
    origin to the edge of the box.  The hubbard band gives one closed
    curve around its pocket's center, or at mu = 0 four open arcs, each
    running counterclockwise about Gamma from one saddle image to the
    next and ending exactly on both.  Each branch is cut into
    n = max(3, round(L / step)) segments of about equal length, L its
    length; an n above ``_MAX_STEPS`` raises ``ValueError`` before any
    fine point is built.  A mu on or beyond a band edge gives no branch.
    """
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError("step must be positive and finite")
    if model.kind == "hubbard":
        return _hubbard_branches(model, step)
    t = np.linspace(0.0, 1.0, _step_count(1.0, step) + 1)[:, None]
    axes = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))
    return [_sample(t * np.array(d), False) for d in axes]


# ---------------------------------------------------------------------------
# Overlap measurements
# ---------------------------------------------------------------------------


_OVERLAP_STEP = 0.01  # trace step of the scaling experiment
_BLOCK = 16_384  # segments, or segment-threshold pairs, per overlap block
_SLACK = 1e-12  # relative rounding allowance of the segment screening
_GROUP = 8  # segments per group of the coarse screening
_SADDLE_GRAD = 1e-10  # |grad e| at or below which a curve point is a saddle
# the Gauss-Legendre arclength rule on [0, 1], and the rule it is checked by
_GAUSS, _GAUSS_LOW = (((x + 1.0) / 2.0, w / 2.0) for x, w in
                      map(np.polynomial.legendre.leggauss, (4, 3)))


class _Segments(NamedTuple):
    """A traced curve as cubic Hermite segments H(t) = c0 + c1 t + c2 t^2
    + c3 t^3, t in [0, 1], one from each traced point to the next, with
    end derivatives h T0 and h T1: h the chord length and T0, T1 the
    exact unit tangents of {e = 0} at the ends (``_tangents``)."""

    points: np.ndarray  # (N, 2) the branch points, branch after branch
    start: np.ndarray  # (S,) index in points of each segment's first point
    coef: np.ndarray  # (S, 4, 2) c0, c1, c2, c3
    speed2: np.ndarray  # (S, 5) coefficients of the quartic |H'(t)|^2
    length: np.ndarray  # (S,) arclength by _GAUSS
    arc: np.ndarray  # (S,) length of the control polygon, >= the arclength
    quad_err: np.ndarray  # (S,) |arclength by _GAUSS - by _GAUSS_LOW|
    dist: np.ndarray  # (S,) |e| / |grad e| at H(1/2)
    groups: np.ndarray  # (C + 1,) first segment of each screening group, S
    scale: float  # largest coordinate magnitude on the curve


def _tangents(model: DispersionModel, P: np.ndarray, chord: np.ndarray):
    """Unit tangents of {e = 0} at the curve points P, oriented along the
    chords: grad e turned by a right angle, or at a saddle the Hessian's
    null direction (v . H v = 0) nearest the chord."""
    g = gradient(model, P)
    t = np.stack([-g[:, 1], g[:, 0]], axis=-1)
    for i in np.flatnonzero(np.hypot(t[:, 0], t[:, 1]) <= _SADDLE_GRAD):
        lam, q = np.linalg.eigh(hessian(model, P[i]))  # lam[0] < 0 < lam[1]
        t[i] = max((math.sqrt(lam[1]) * q[:, 0] + s * math.sqrt(-lam[0]) * q[:, 1]
                    for s in (1.0, -1.0)), key=lambda v: abs(v @ chord[i]))
    t /= np.hypot(t[:, 0], t[:, 1])[:, None]
    return np.where(np.sum(t * chord, axis=1) < 0.0, -1.0, 1.0)[:, None] * t


def _hermite(c: np.ndarray, t: np.ndarray):
    """H(t) and H'(t) of the cubics with coefficients c (m, 4, 2)."""
    t = t[:, None]
    return (((c[:, 3] * t + c[:, 2]) * t + c[:, 1]) * t + c[:, 0],
            (3.0 * c[:, 3] * t + 2.0 * c[:, 2]) * t + c[:, 1])


def _arclength(s2: np.ndarray, lo: np.ndarray, hi: np.ndarray, rule) -> np.ndarray:
    """Gauss-Legendre arclength over [lo, hi] of the segments whose
    |H'|^2 has the coefficients s2 (m, 5), constant first."""
    x, w = rule
    t = lo[:, None] + (hi - lo)[:, None] * x
    q = s2[:, 4, None]
    for i in (3, 2, 1, 0):
        q = q * t + s2[:, i, None]
    return (hi - lo) * np.einsum("ij,j->i", np.sqrt(q), w)


def _segments(model: DispersionModel, branches: Sequence[CurveSample]) -> _Segments:
    sizes = np.array([len(b.points) for b in branches])
    first = np.cumsum(sizes) - sizes  # each branch's first point
    start = np.concatenate([f + np.arange(n - 1) for f, n in zip(first, sizes)])
    points = np.concatenate([b.points for b in branches])
    P0, chord = points[start], points[start + 1] - points[start]
    h = np.hypot(chord[:, 0], chord[:, 1])[:, None]
    m0 = h * _tangents(model, P0, chord)
    m1 = h * _tangents(model, points[start + 1], chord)
    coef = np.stack([P0, m0, 3.0 * chord - 2.0 * m0 - m1, m0 + m1 - 2.0 * chord],
                    axis=1)
    a, b, d = m0, 2.0 * coef[:, 2], 3.0 * coef[:, 3]  # H' = a + b t + d t^2
    dot = lambda u, v: np.sum(u * v, axis=-1)  # noqa: E731
    speed2 = np.stack([dot(a, a), 2.0 * dot(a, b), dot(b, b) + 2.0 * dot(a, d),
                       2.0 * dot(b, d), dot(d, d)], axis=-1)
    one = np.ones(len(start))
    length = _arclength(speed2, 0.0 * one, one, _GAUSS)
    mid, _ = _hermite(coef, 0.5 * one)
    g = gradient(model, mid)
    return _Segments(
        points, start, coef, speed2, length,
        arc=2.0 * h[:, 0] / 3.0 + np.hypot(*(chord - (m0 + m1) / 3.0).T),
        quad_err=np.abs(length - _arclength(speed2, 0.0 * one, one, _GAUSS_LOW)),
        dist=np.abs(evaluate(model, mid)) / np.hypot(g[:, 0], g[:, 1]),
        # a branch's first segment is its first point's index less the
        # number of branches before it
        groups=np.concatenate([f - i + np.arange(0, n - 1, _GROUP) for i, (f, n)
                               in enumerate(zip(first, sizes))] + [[len(start)]]),
        scale=float(np.max(np.abs(points))),
    )


def _grad_bound(model: DispersionModel, k: np.ndarray, radius: np.ndarray):
    """A bound on |grad e| over the disc of the given radius about each
    point k (already translated)."""
    if model.kind == "hubbard":
        # |d e / d k_i| = |sin k_i (1 - theta cos k_j)| <= 1 + theta
        return math.sqrt(2.0) * (1.0 + model.theta)
    # xy: grad e = (k2, k1), so |grad e| = |k| <= |center| + radius
    return np.hypot(k[..., 0], k[..., 1]) + radius


def _flag(model, segs, ps, ip, iseg, f_ends, bounds, thresholds, lengths, errors):
    """Add the flagged arclength of the segments iseg translated by the
    momenta ps[ip], and its error bound, to lengths[ip] and errors[ip].

    f_ends holds F = e(p + H) at the segments' ends, and bounds the
    range of |F| on each (``overlap_lengths``).  At a threshold T above
    that range a segment is flagged whole, below it not at all.  Between,
    it is cut where F' changes sign, at F's extremum, so that F is
    monotone on each piece as long as F' changes sign at most once on a
    segment.  On a monotone piece {|F| <= T} is one interval, ended by
    the piece's ends or by roots of F = -T and F = T (``_newton``).  A
    root's error in arclength is (|F - level| + G d) |H'| / |F'|, d the
    segment's distance from {e = 0} and G the gradient bound, and at most
    the segment's arc bound.  Each flagged interval adds the segment's
    quadrature error times its share of [0, 1].
    """
    T = thresholds[None, :]
    whole = bounds[:, 1, None] <= T
    r, j = np.nonzero(whole)
    np.add.at(lengths, (ip[r], j), segs.length[iseg[r]])
    np.add.at(errors, (ip[r], j), segs.quad_err[iseg[r]])
    mixed = ~(bounds[:, 0, None] > T) & ~whole
    sub = np.flatnonzero(np.any(mixed, axis=1))
    ip, iseg, f_ends, mixed = ip[sub], iseg[sub], f_ends[sub], mixed[sub]
    tol = _root_tol(model)
    c = segs.coef[iseg]
    c[:, 0] += ps[ip]
    k1 = ps[ip] + segs.points[segs.start[iseg] + 1]
    s0, s1 = (np.sum(gradient(model, k) * d, axis=-1) for k, d in
              ((c[:, 0], c[:, 1]), (k1, c[:, 1] + 2.0 * c[:, 2] + 3.0 * c[:, 3])))

    # the extremum of F where F' changes sign, as a root of sigma F'
    split = np.flatnonzero(s0 * s1 < 0.0)
    cs, sigma = c[split], np.sign(s1[split])

    def curvature(idx, t):
        k, d = _hermite(cs[idx], t)
        dd = 6.0 * cs[idx, 3] * t[:, None] + 2.0 * cs[idx, 2]
        g, H = gradient(model, k), hessian(model, k)
        d2 = np.einsum("mi,mij,mj->m", d, H, d) + np.sum(g * dd, axis=-1)
        return sigma[idx] * np.sum(g * d, axis=-1), sigma[idx] * d2

    s0, s1 = s0[split], s1[split]
    t_ext, _, _ = _newton(curvature, np.zeros_like(s0), np.ones_like(s0),
                          s0 / (s0 - s1), tol * segs.arc[iseg[split]])
    f_ext = evaluate(model, _hermite(cs, t_ext)[0])

    # monotone pieces [a, b]: each segment up to its extremum, then the rest
    q = np.append(np.arange(len(c)), split)
    a, b = np.append(np.zeros(len(c)), t_ext), np.ones(len(q))
    fa, fb = np.append(f_ends[:, 0], f_ext), np.append(f_ends[:, 1], f_ends[split, 1])
    b[split], fb[split] = t_ext, f_ext
    s = np.where(fb >= fa, 1.0, -1.0)  # s F increases along the piece
    ga, gb = (s * fa)[:, None], (s * fb)[:, None]
    t_lo = np.where(ga >= -T, a[:, None], b[:, None])
    t_hi = np.where(gb <= T, b[:, None], a[:, None])
    mixed = mixed[q]
    need = [(ga < -T) & (-T < gb) & mixed, (ga < T) & (T < gb) & mixed]

    # the crossings of s F = -T and s F = T, all in one solve, none solved
    # beyond its segment's own distance from {e = 0}
    (r_lo, j_lo), (r_hi, j_hi) = (np.nonzero(n) for n in need)
    rq = np.concatenate([r_lo, r_hi])
    level = np.concatenate([-thresholds[j_lo], thresholds[j_hi]])
    cr, sr, seg = c[q[rq]], s[rq], iseg[q[rq]]
    slack = _grad_bound(model, cr[:, 0], segs.arc[seg]) * segs.dist[seg]

    def crossing(idx, t):
        k, d = _hermite(cr[idx], t)
        return (sr[idx] * evaluate(model, k) - level[idx],
                sr[idx] * np.sum(gradient(model, k) * d, axis=-1))

    x0 = (level - ga[rq, 0]) / (gb[rq, 0] - ga[rq, 0])
    root, resid, slope = _newton(crossing, a[rq], b[rq], a[rq] + x0 * (b[rq] - a[rq]),
                                 np.fmax(slack, tol))
    with np.errstate(divide="ignore", invalid="ignore"):
        r_err = (np.abs(resid) + slack) \
            * np.hypot(*_hermite(cr, root)[1].T) / np.abs(slope)
    r_err = np.fmin(r_err, segs.arc[seg])
    t_lo[need[0]], t_hi[need[1]] = root[:len(r_lo)], root[len(r_lo):]
    err = np.zeros_like(t_lo)
    err[need[0]] += r_err[:len(r_lo)]
    err[need[1]] += r_err[len(r_lo):]
    flagged = (t_hi > t_lo) & mixed
    err += np.where(flagged, segs.quad_err[iseg[q]][:, None] * (t_hi - t_lo), 0.0)
    r, j = np.nonzero(flagged)
    np.add.at(lengths, (ip[q[r]], j), _arclength(
        segs.speed2[iseg[q[r]]], t_lo[r, j], t_hi[r, j], _GAUSS))
    r, j = np.nonzero(flagged | need[0] | need[1])
    np.add.at(errors, (ip[q[r]], j), err[r, j])


def _range(model, k, f, arc, scale):
    """Bounds on |F| along curve pieces of arc bound arc whose ends are
    the translated points k (..., 2, 2), where F takes the values f."""
    G = _grad_bound(model, k[..., 0, :], arc)
    mean = 0.5 * (np.abs(f[..., 0]) + np.abs(f[..., 1]))
    half = 0.5 * G * arc + _SLACK * (1.0 + 2.0 * mean + G * scale)
    return mean - half, mean + half


def overlap_lengths(
    model: DispersionModel,
    branches: Sequence[CurveSample],
    ps,
    thresholds,
) -> Tuple[np.ndarray, np.ndarray]:
    """Arc lengths of {k on the branches : |e(p + k)| <= T} on the cubic
    Hermite curve through the traced points, one row per momentum p of
    ps (m, 2) and one column per threshold T, and bounds on their errors.
    Both bands are even, so the lengths of |e(p - k)| are those of the
    branches with their points negated.

    The segment table (``_segments``) is built once for all of them.
    |F| = |e(p + H)| is G-Lipschitz in arclength, so on a piece of
    curve with end values F_0, F_1 and arc bound a it stays within
    (|F_0| + |F_1|)/2 +/- G a/2, plus a slack for the rounding of e, of
    the translation and of the bound (``_range``).  Groups of ``_GROUP``
    segments whose lower bound exceeds max T are skipped, then such
    segments of the other groups, in blocks of about ``_BLOCK`` segments;
    the kept ones are flagged (``_flag``) in blocks of about ``_BLOCK``
    segment-threshold pairs.
    """
    thresholds = np.asarray(thresholds, dtype=float)
    if not (thresholds.ndim == 1 and len(thresholds)
            and np.all(np.isfinite(thresholds) & (thresholds > 0.0))):
        raise ValueError("thresholds must be positive and finite")
    ps = np.asarray(ps, dtype=float)
    if ps.ndim != 2 or ps.shape[1] != 2 or not len(ps):
        raise ValueError(f"ps must have shape (m, 2), m >= 1, not {ps.shape}")
    if not branches:
        raise ValueError("no branch to measure")
    segs = _segments(model, branches)
    t_max = float(thresholds.max())
    scale = segs.scale + float(np.max(np.abs(ps)))
    g0, g1 = segs.groups[:-1], segs.groups[1:]
    coarse = segs.points[np.stack([segs.start[g0], segs.start[g1 - 1] + 1],
                                  axis=-1)]
    g_arc = np.add.reduceat(segs.arc, g0)
    kept = []
    per = max(1, _BLOCK // len(segs.arc))
    for lo in range(0, len(ps), per):
        k = ps[lo:lo + per, None, None, :] + coarse
        low, _ = _range(model, k, evaluate(model, k), g_arc, scale)
        # written as negations so that a NaN bound keeps its segments
        i, g = np.nonzero(~(low > t_max))
        n = g1[g] - g0[g]
        ip = np.repeat(i + lo, n)
        iseg = np.arange(n.sum()) + np.repeat(g0[g] - np.cumsum(n) + n, n)
        k = ps[ip, None, :] + segs.points[segs.start[iseg, None] + [0, 1]]
        f = evaluate(model, k)
        bounds = np.stack(_range(model, k, f, segs.arc[iseg], scale), axis=-1)
        keep = ~(bounds[:, 0] > t_max)
        kept.append((ip[keep], iseg[keep], f[keep], bounds[keep]))
    ip, iseg, f_ends, bounds = (np.concatenate(x) for x in zip(*kept))
    lengths = np.zeros((len(ps), len(thresholds)))
    errors = np.zeros_like(lengths)
    per = max(1, _BLOCK // len(thresholds))
    for lo in range(0, len(ip), per):
        part = slice(lo, lo + per)
        _flag(model, segs, ps, ip[part], iseg[part], f_ends[part],
              bounds[part], thresholds, lengths, errors)
    return lengths, errors


@dataclass(frozen=True)
class OverlapScalingReport:
    """Both bands are even and their Fermi curves symmetric under
    k -> -k, so the overlaps of sign -1 equal those of sign +1.  The
    ``_minus`` fields repeat their sign +1 counterparts, and are kept
    only because ``bench/workloads.py`` reads them."""

    p_samples: np.ndarray  # (num_p, 2)
    j_values: Tuple[int, ...]  # descending (toward smaller thresholds)
    measured_lengths: np.ndarray  # (num_p, num_j)
    length_errors: np.ndarray  # (num_p, num_j), bounds on the lengths' errors
    fitted_exponent: Optional[float]
    fitted_exponent_minus: Optional[float]
    n0: Optional[int]
    bounds: Optional[np.ndarray]  # (num_j,), (M^j/delta)^(1/n0)
    violation_fraction: Optional[np.ndarray]  # per j
    violation_fraction_minus: Optional[np.ndarray]
    total_curve_length: float
    step: float

    def rows(self):
        """(p_x, p_y, j, length, length_error, bound, violated) tuples
        for CSV export."""
        for ip, p in enumerate(self.p_samples):
            for ij, j in enumerate(self.j_values):
                bound = float(self.bounds[ij]) if self.bounds is not None else math.nan
                ell = float(self.measured_lengths[ip, ij])
                violated = bool(ell > bound) if self.bounds is not None else False
                yield (float(p[0]), float(p[1]), int(j), ell,
                       float(self.length_errors[ip, ij]), bound, violated)


def _derive_n0(model: DispersionModel) -> Optional[int]:
    """Largest branch nonflatness order plus one, over all saddles."""
    orders = []
    for p in find_singular_points(model):
        nf = morse_normal_form(model, p)
        for nu in (nf.nu1, nf.nu2):
            if nu is None:
                return None  # exactly flat branch: nesting, no finite order
            orders.append(nu)
    if not orders:
        return None
    return max(orders) + 1


def _fit_envelope(lengths, j_sorted, M, num_drop):
    """Least-squares slope of log(envelope length) against j log M,
    after dropping the worst num_drop samples per threshold; None for a
    single threshold or an envelope of zero length."""
    if lengths.shape[1] < 2:
        return None
    env = np.sort(lengths, axis=0)[len(lengths) - 1 - num_drop]
    if not np.all(env > 0.0):
        return None
    x = np.asarray(j_sorted, dtype=float) * math.log(M)
    slope = np.polyfit(x, np.log(env), 1)[0]
    return float(slope)


def overlap_scaling_experiment(
    model: DispersionModel,
    M: float,
    j_range: Sequence[int],
    num_p: int,
    delta: float,
    rng_seed: int,
) -> OverlapScalingReport:
    """Sample num_p translation momenta uniformly on the model's domain
    (seeded by rng_seed), measure overlap lengths at the thresholds M^j,
    and compare against (M^j/delta)^(1/n0).

    The curve is traced at the fixed step ``_OVERLAP_STEP`` whatever the
    thresholds, and each length comes with an error bound
    (``overlap_lengths``).  Only sign +1 is measured: the report's
    ``_minus`` fields repeat it.  n0 is the largest branch nonflatness
    order over the model's saddles plus one (None, with no bound, for an
    exactly flat branch).  A threshold M^j that rounds to 0 raises
    ``ValueError``.
    """
    if not 1.0 < M < math.inf:
        raise ValueError("M must be finite and exceed 1")
    if num_p < 1:
        raise ValueError("num_p must be at least 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    num_drop = math.ceil(delta ** 2 * num_p)
    if num_drop >= num_p:
        raise ValueError(
            f"dropping ceil(delta^2 num_p) = {num_drop} of {num_p} momenta "
            "leaves none for the envelope fit"
        )
    if not j_range or any(
        not isinstance(j, numbers.Integral) or j >= 0 for j in j_range
    ):
        raise ValueError("j_range must be nonempty negative integers")
    j_sorted = tuple(sorted(set(int(j) for j in j_range), reverse=True))
    thresholds = np.array([M ** j for j in j_sorted])
    if not thresholds[-1] > 0.0:
        raise ValueError(
            f"threshold M^j for M = {M}, j = {j_sorted[-1]} rounds to 0"
        )
    branches = trace_fermi_curve(model, step=_OVERLAP_STEP)
    if not branches:
        raise ValueError("no Fermi curve found for this model")
    total_len = sum(b.total_length for b in branches)
    n0 = _derive_n0(model)

    rng = np.random.default_rng(rng_seed)
    (x0, x1), (y0, y1) = model.domain
    p_samples = np.column_stack(
        [rng.uniform(x0, x1, size=num_p), rng.uniform(y0, y1, size=num_p)]
    )
    lengths, errors = overlap_lengths(model, branches, p_samples, thresholds)

    bounds = viol = None
    if n0 is not None:
        bounds = (thresholds / delta) ** (1.0 / n0)
        viol = np.mean(lengths > bounds[None, :], axis=0)
    fit = _fit_envelope(lengths, j_sorted, M, num_drop)

    return OverlapScalingReport(
        p_samples=p_samples,
        j_values=j_sorted,
        measured_lengths=lengths,
        length_errors=errors,
        fitted_exponent=fit,
        fitted_exponent_minus=fit,
        n0=n0,
        bounds=bounds,
        violation_fraction=viol,
        violation_fraction_minus=viol,
        total_curve_length=total_len,
        step=_OVERLAP_STEP,
    )


# ---------------------------------------------------------------------------
# Interval lemma
# ---------------------------------------------------------------------------


class IntervalLemmaResult(NamedTuple):
    measured_volume: float
    bound: float
    holds: bool


def _real_roots(polys) -> np.ndarray:
    """Real parts of the roots of the polynomials (coefficient arrays,
    constant first, each with a nonzero last coefficient), one row each,
    from one eigenvalue call on stacked companion matrices.

    A companion matrix finds well only the roots that are not small
    against its largest entry, max |c_i / c_n|.  So each polynomial is
    also solved reversed, for the roots 1/x, which finds the roots with
    |x| <= 1 well where c_n is small against the other coefficients; its
    roots with |x| > 1 are read as x = 1.  A companion entry that
    overflows is read as 0.  Every row is padded to the largest degree by
    roots at 0 (at infinity when reversed).  The callers only cut
    [-1, 1] at these points or test there, so a point too many does no
    harm.
    """
    polys = list(polys)
    polys += [c[np.flatnonzero(c)[0]:][::-1] for c in polys]
    n = max(len(c) for c in polys) - 1
    a = np.zeros((len(polys), n + 1))
    for row, c in zip(a, polys):
        row[n + 1 - len(c):] = c
    comp = np.zeros((len(polys), n, n))
    comp[:, 1:, :-1] = np.eye(n - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        comp[:, :, -1] = -a[:, :-1] / a[:, -1:]
    x = np.linalg.eigvals(np.nan_to_num(comp, posinf=0.0, neginf=0.0))
    half = len(polys) // 2
    inv = np.divide(1.0, x[half:], out=np.ones_like(x[half:]),
                    where=np.abs(x[half:]) >= 1.0)
    return np.concatenate([x[:half], inv], axis=1).real


def interval_lemma_check(
    f: Polynomial,
    k: int,
    eta: float,
    eps: float,
) -> IntervalLemmaResult:
    """Measure |{x : |f(x)| <= eps}| on [-1, 1] and compare with
    2^(k+1) (eps/eta)^(1/k).

    f is a ``numpy.polynomial.Polynomial`` with finite real
    coefficients and the default domain and window, so that f.coef are
    its coefficients in x; anything else raises ``ValueError``.  Both
    steps read polynomial roots (``_real_roots``).  The hypothesis
    |g| >= eta, g = f^(k), is checked where |g| is least on [-1, 1]: at
    an end, a root of g or a root of g'.  [-1, 1] is cut at the roots of
    f - eps and f + eps, between which |f| - eps keeps its sign, and the
    measure is the length of the pieces whose midpoint has |f| <= eps; a
    complex root's real part only adds a cut.
    """
    if not (
        isinstance(f, Polynomial)
        and f.coef.dtype.kind == "f"
        and np.all(np.isfinite(f.coef))
        and np.array_equal(f.domain, Polynomial.domain)
        and np.array_equal(f.window, Polynomial.window)
    ):
        raise ValueError(
            "f must be a numpy Polynomial with finite real coefficients and "
            "the default domain and window"
        )
    if not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError("k must be a positive integer")
    for name, v in (("eta", eta), ("eps", eps)):
        if not (math.isfinite(v) and v > 0.0):
            raise ValueError(f"{name} must be positive and finite")
    c = np.trim_zeros(f.coef, "b")
    if len(c) <= k:
        raise HypothesisViolated(f"f^({k}) vanishes identically")
    g = P.polyder(c, k)
    shift = eps * (np.arange(len(c)) == 0)
    # a constant g has no g' and no critical point
    rows = [c - shift, c + shift, g, g[1:] * np.arange(1.0, len(g))]
    roots = np.clip(_real_roots([r for r in rows if len(r)]), *_INTERVAL)
    least = np.min(np.abs(P.polyval(np.append(roots[2:], _INTERVAL), g)))
    # written as a negation so that a NaN fails the hypothesis
    if not least >= eta * (1.0 - 1e-9):
        raise HypothesisViolated(f"|f^({k})| falls below eta={eta} on [-1, 1]")
    cuts = np.sort(np.append(roots[:2], _INTERVAL))
    inside = np.abs(P.polyval(0.5 * (cuts[:-1] + cuts[1:]), c)) <= eps
    measured = float(np.sum(np.diff(cuts)[inside]))
    bound = 2.0 ** (k + 1) * (eps / eta) ** (1.0 / k)
    return IntervalLemmaResult(measured, bound, measured <= bound)
