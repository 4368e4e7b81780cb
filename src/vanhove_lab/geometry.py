"""Fermi-curve tracing and the overlap / small-set measurements.

The zero set {e = 0} is traced by a predictor-corrector march: the
predictor steps along the unit tangent (perpendicular to grad e), the
corrector Newton-projects back onto the level set along grad e.  At a
saddle the level set is an X, so traces terminate there and the four
arcs meeting at the saddle are seeded separately from the isotropic
(null) directions of the Hessian.

One scalar marcher serves both bands.  It works on Python floats, with
points as (x1, x2) tuples and e, grad e in ``math`` from
:func:`~vanhove_lab.dispersion.scalar_functions`.  A branch becomes an
(n, 2) array only when its :class:`CurveSample` is built.  Dot products
and the lengths that enter a point are rounded as numpy rounds them on a
2-vector (``_dot``, ``np.hypot``), so the points are those of the
earlier array marcher, bit for bit.

The overlap length of a traced curve with its translate measures
arclen{k on curve : |e(p +/- k)| <= threshold} by flagging polyline
segments, with linear interpolation at the threshold crossings.  Only
segments whose lower end value lies below the largest threshold can be
flagged, a few percent of the curve.  So each branch is cut once into
chunks of 64 segments with a center and a radius, and for a momentum p a
chunk is evaluated only when |e| at its center is within max T plus a
gradient bound times its radius (``_overlap_lengths``).  One kernel,
``_flagged_lengths``, flags all thresholds of one (p, sign, branch) at
once on the candidate segments of the kept chunks, in curve order: the
set an evaluation of the whole curve would flag, so the lengths are the
same bit for bit.
The scaling experiment samples translation momenta p, measures the
overlap at thresholds M^j, and compares with the bound
(M^j / delta)^(1/n0) outside a delta^2 fraction of exceptional p.

The interval lemma check verifies |{x : |f(x)| <= eps}| against the
bound 2^(k+1) (eps/eta)^(1/k) for polynomials with |f^(k)| >= eta.  The
coefficients bound f's slope and rounding on [-1, 1], so a grid block of
1,024 points whose middle value lies far enough from eps is counted
without evaluating it, and only the few blocks near a crossing are
evaluated (``_sublevel_count``); the count is that of one pass, bit for
bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from numpy.polynomial import Polynomial

from .dispersion import (
    DispersionModel,
    evaluate,
    find_singular_points,
    morse_normal_form,
    scalar_functions,
    _isotropic_frame,
)
from .errors import HypothesisViolated, TraceStalled

__all__ = [
    "CurveSample",
    "OverlapScalingReport",
    "IntervalLemmaResult",
    "trace_fermi_curve",
    "overlap_length",
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


Point = Tuple[float, float]

_TRACE_TOL = 1e-10  # |e| at which a traced point counts as on the curve
_MAX_STEPS = 2_000_000  # steps before one march is declared stalled
_SCAN_GRID = 48  # nodes per side of the sign-change seed scan
_TRACE_STEP_CAP = 0.01  # largest trace step of the scaling experiment
_INTERVAL = (-1.0, 1.0)  # the interval lemma's interval


def _torus_delta(d):
    """Periodic difference in [-pi, pi); works on floats and arrays."""
    return (d + math.pi) % (2.0 * math.pi) - math.pi


def _gap(a: Point, b: Point) -> float:
    """|a - b|, for the step-size and termination tests only.

    ``math.hypot`` can differ from ``np.hypot`` in the last bit, so the
    length that enters a point (``_tangent``) uses ``np.hypot`` instead,
    as the array marcher did.
    """
    return math.hypot(a[0] - b[0], a[1] - b[1])


_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant


def _dot(a1: float, a2: float, b1: float, b2: float) -> float:
    """a1*b1 + a2*b2 rounded as numpy's dot (an OpenBLAS ``ddot`` loop
    with fused multiply-add) rounds a 2-vector product: the second
    product is fused with the sum, so it is rounded once.

    a2*b2 == p + err exactly (Dekker's product), and ``math.fsum``
    rounds the exact sum once.  A plain ``a1*b1 + a2*b2`` moves about a
    quarter of the results by one ulp and the traced points with them.
    """
    p = a2 * b2
    c = _SPLIT * a2
    ah = c - (c - a2)
    al = a2 - ah
    c = _SPLIT * b2
    bh = c - (c - b2)
    bl = b2 - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return math.fsum((a1 * b1, p, err))


def _distance(a: Point, b: Point, periodic: bool) -> float:
    d1, d2 = a[0] - b[0], a[1] - b[1]
    if periodic:
        d1, d2 = _torus_delta(d1), _torus_delta(d2)
    return math.hypot(d1, d2)


def _image_near(target: Point, ref: Point, periodic: bool) -> Point:
    """Representative of target (mod 2 pi) closest to ref."""
    if not periodic:
        return target
    r1, r2 = ref
    return (r1 + _torus_delta(target[0] - r1), r2 + _torus_delta(target[1] - r2))


def _project(fns, x, max_iter=30) -> Point:
    """Newton projection onto {e = 0} along grad e."""
    e, grad = fns
    x1, x2 = x
    for _ in range(max_iter):
        v = e(x1, x2)
        if abs(v) < _TRACE_TOL:
            return x1, x2
        g1, g2 = grad(x1, x2)
        g_sq = _dot(g1, g2, g1, g2)
        if g_sq == 0.0:
            break
        s = v / g_sq
        x1, x2 = x1 - s * g1, x2 - s * g2
    raise TraceStalled(f"level-set projection failed near {(x1, x2)}")


def _project_along(fns, x, direction, max_iter=40) -> Point:
    """1D Newton for e(x + s d) = 0 along a fixed unit direction d."""
    e, grad = fns
    x1, x2 = x
    d1, d2 = direction
    for _ in range(max_iter):
        v = e(x1, x2)
        if abs(v) < _TRACE_TOL:
            return x1, x2
        g1, g2 = grad(x1, x2)
        slope = _dot(g1, g2, d1, d2)
        if slope == 0.0:
            break
        s = v / slope
        x1, x2 = x1 - s * d1, x2 - s * d2
    raise TraceStalled(f"constrained projection failed near {(x1, x2)}")


def _tangent(fns, x) -> Point:
    g1, g2 = fns[1](x[0], x[1])
    n = float(np.hypot(g1, g2))
    if n == 0.0:
        raise TraceStalled(f"vanishing gradient on trace at {tuple(x)}")
    return -g2 / n, g1 / n


def _clip_to_box(x_from, x_to, box):
    """First s in [0, 1] where the segment x_from -> x_to leaves the box,
    with the index of the wall hit; (None, None) if x_to is inside."""
    s_best = None
    wall = None
    for i in range(2):
        lo, hi = box[i]
        d = x_to[i] - x_from[i]
        if x_to[i] < lo:
            s = (lo - x_from[i]) / d if d != 0.0 else 0.0
            side = 0
        elif x_to[i] > hi:
            s = (hi - x_from[i]) / d if d != 0.0 else 0.0
            side = 1
        else:
            continue
        s = min(max(s, 0.0), 1.0)
        if s_best is None or s < s_best:
            s_best = s
            wall = (i, side)
    if wall is None:
        return None, None
    return s_best, wall


class _Marcher:
    def __init__(self, model, step, sing_locs):
        self.fns = scalar_functions(model)
        self.box = model.domain
        self.h = step
        self.sing = sing_locs  # list of (x1, x2)
        self.periodic = model.periodic
        self.stop_r = 1.5 * step

    def near_singular(self, x: Point) -> Optional[Point]:
        for s in self.sing:
            img = _image_near(s, x, self.periodic)
            if _gap(x, img) <= self.stop_r:
                return img
        return None

    def march(self, x0: Point, direction: Point):
        """Trace from x0 until closure, a saddle, the boundary, or stall.

        Returns (points, closed), the points a list of (x1, x2) tuples.
        """
        fns, h = self.fns, self.h
        pts = [x0]
        d1, d2 = direction
        for n_step in range(_MAX_STEPS):
            x = pts[-1]
            x1, x2 = x
            t1, t2 = _tangent(fns, x)
            if t1 * d1 + t2 * d2 < 0.0:
                t1, t2 = -t1, -t2
            d1, d2 = t1, t2
            cand = _project(fns, (x1 + h * t1, x2 + h * t2))
            spacing = _gap(cand, x)
            if not 0.25 * h <= spacing <= 4.0 * h:
                half = 0.5 * h
                cand = _project(fns, (x1 + half * t1, x2 + half * t2))
                spacing = _gap(cand, x)
                if not 0.25 * h <= spacing <= 4.0 * h:
                    raise TraceStalled(
                        f"step spacing {spacing} incompatible with target {h}"
                    )
            # saddle termination: the arc ends on the saddle itself
            img = self.near_singular(cand)
            if img is not None:
                if _gap(img, x) >= 0.25 * h:
                    pts.append(img)
                return pts, False
            # domain boundary (open domains only)
            if not self.periodic:
                s, wall = _clip_to_box(x, cand, self.box)
                if s is not None:
                    b = (x1 + s * (cand[0] - x1), x2 + s * (cand[1] - x2))
                    along = (0.0, 1.0) if wall[0] == 0 else (1.0, 0.0)
                    try:
                        b = _project_along(fns, b, along)
                    except TraceStalled:
                        pass  # keep the chord point; boundary grazing
                    if _gap(b, x) >= 0.25 * h:
                        pts.append(b)
                    return pts, False
            pts.append(cand)
            # closure against the starting point
            if n_step >= 4:
                start_img = _image_near(pts[0], cand, self.periodic)
                dist = _gap(cand, start_img)
                if dist <= 0.75 * h:
                    if dist < 0.25 * h:
                        pts.pop()
                        start_img = _image_near(pts[0], pts[-1], self.periodic)
                    pts.append(start_img)
                    return pts, True
        raise TraceStalled(f"no termination within {_MAX_STEPS} steps")


def trace_fermi_curve(model: DispersionModel, step: float = 0.01) -> List[CurveSample]:
    """All connected branches of {e = 0}, as ordered point chains.

    Branch seeds come from the saddle ray directions (the isotropic
    directions of the Hessian) and from a sign-change scan on a coarse
    grid; traces terminate on a saddle (the arc's last point is the
    saddle itself), at the domain boundary, or on closing up.
    """
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError("step must be positive and finite")
    singular = find_singular_points(model)
    sing_locs = [tuple(p.location.tolist()) for p in singular]
    m = _Marcher(model, step, sing_locs)
    fns = m.fns

    seeds: List[Point] = []
    r_seed = m.stop_r + step
    for p in singular:
        A = _isotropic_frame(p)
        for col in (0, 1):
            for sgn in (+1.0, -1.0):
                raw = p.location + sgn * r_seed * A[:, col]
                try:
                    seeds.append(_project(fns, raw.tolist()))
                except TraceStalled:
                    continue
    seeds.extend(_scan_seeds(model, fns))

    branches: List[CurveSample] = []
    # traced points with their first coordinate (mod 2 pi when periodic)
    traced: List[Tuple[np.ndarray, np.ndarray]] = []
    period = 2.0 * math.pi if model.periodic else math.inf
    # a point within 0.75 step of x lies in this strip around x[0]; the
    # factor 2 covers the rounding of the two reductions mod 2 pi
    strip = 1.5 * step

    def too_close(x) -> bool:
        x_col = x[0] % period if model.periodic else x[0]
        for arr, col in traced:
            dc = np.abs(col - x_col)
            d = arr[(dc < strip) | (dc > period - strip)] - np.array(x)
            if model.periodic:
                d = _torus_delta(d)
            if len(d) and float(np.min(np.hypot(d[:, 0], d[:, 1]))) < 0.75 * step:
                return True
        return False

    for seed in seeds:
        if any(
            _distance(seed, s, model.periodic) < m.stop_r for s in sing_locs
        ):
            continue
        if not _inside(model.domain, seed) and not model.periodic:
            continue
        if too_close(seed):
            continue
        t0 = _tangent(fns, seed)
        fwd, closed = m.march(seed, t0)
        if closed:
            chain = fwd
        else:
            bwd, closed = m.march(seed, (-t0[0], -t0[1]))
            if closed:
                chain = bwd
            else:
                chain = list(reversed(bwd))[:-1] + fwd
        if len(chain) < 2:
            continue
        pts = np.array(chain)
        seg = np.hypot(*(np.diff(pts, axis=0).T))
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        branches.append(
            CurveSample(points=pts, cumulative_arclength=cum, closed=closed)
        )
        traced.append((pts, pts[:, 0] % period if model.periodic else pts[:, 0]))
    return branches


def _inside(box, x) -> bool:
    return all(box[i][0] - 1e-12 <= x[i] <= box[i][1] + 1e-12 for i in range(2))


def _scan_seeds(model, fns) -> List[Point]:
    (x0, x1), (y0, y1) = model.domain
    xs = np.linspace(x0, x1, _SCAN_GRID)
    ys = np.linspace(y0, y1, _SCAN_GRID)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    E = evaluate(model, np.stack([X, Y], axis=-1))
    xs, ys = xs.tolist(), ys.tolist()
    e = fns[0]
    seeds = []
    S = np.sign(E)  # signs, not values: a product of values can overflow
    sign_flip_x = S[:-1, :] * S[1:, :] < 0.0
    sign_flip_y = S[:, :-1] * S[:, 1:] < 0.0
    for (i, j) in np.argwhere(sign_flip_x):
        seeds.append(_bisect_edge(e, (xs[i], ys[j]), (xs[i + 1], ys[j])))
    for (i, j) in np.argwhere(sign_flip_y):
        seeds.append(_bisect_edge(e, (xs[i], ys[j]), (xs[i], ys[j + 1])))
    out = []
    for s in seeds:
        try:
            out.append(_project(fns, s))
        except TraceStalled:
            continue
    return out


def _bisect_edge(e, a: Point, b: Point, iters=40) -> Point:
    fa = e(*a)
    for _ in range(iters):
        mid = (0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1]))
        fm = e(*mid)
        if fa * fm <= 0.0:
            b = mid
        else:
            a = mid
            fa = fm
    return (0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1]))


# ---------------------------------------------------------------------------
# Overlap measurements
# ---------------------------------------------------------------------------


_CHUNK = 64  # segments per prefilter chunk
_BLOCK = 16_384  # points per evaluation block of the overlap rows
_SLACK = 1e-12  # relative rounding allowance of the chunk and block tests
_GRID_BLOCK = 1024  # grid points per block of the sublevel prefilter
_UNIT_ROUNDOFF = 2.0 ** -53  # of float64


class _Chunks(NamedTuple):
    """The branches of a curve cut into chunks of ``_CHUNK`` segments.

    Row c of ``pts`` holds chunk c's points, the first point of the next
    chunk included, so that every segment of the curve lies in exactly
    one chunk; the last chunk of a branch repeats the branch's last
    point, and ``valid`` marks its padded segments false.
    """

    pts: np.ndarray  # (C, _CHUNK + 1, 2)
    segs: np.ndarray  # (C, _CHUNK) segment lengths
    valid: np.ndarray  # (C, _CHUNK) the segment lies on the branch
    centers: np.ndarray  # (C, 2) the middle point of each chunk
    radius: np.ndarray  # (C,) largest distance of a row point from it
    branch: np.ndarray  # (C,) branch index
    n_branches: int
    scale: float  # largest coordinate magnitude on the curve


def _chunk_branches(branches: Sequence[CurveSample]) -> _Chunks:
    pts, segs, valid, centers, radius, branch = [], [], [], [], [], []
    j = np.arange(_CHUNK + 1)
    for ib, b in enumerate(branches):
        n = len(b.points)
        start = _CHUNK * np.arange(-(-(n - 1) // _CHUNK))
        idx = np.minimum(start[:, None] + j, n - 1)
        cum = b.cumulative_arclength
        # cum[i + 1] - cum[i] has the bits of segment_lengths()
        segs.append(cum[idx[:, 1:]] - cum[idx[:, :-1]])
        valid.append(start[:, None] + j[:-1] < n - 1)
        rows = b.points[idx]
        mid = b.points[start + np.minimum(_CHUNK, n - 1 - start) // 2]
        d = rows - mid[:, None, :]
        pts.append(rows)
        centers.append(mid)
        radius.append(np.max(np.hypot(d[..., 0], d[..., 1]), axis=1))
        branch.append(np.full(len(start), ib))
    return _Chunks(
        pts=np.concatenate(pts),
        segs=np.concatenate(segs),
        valid=np.concatenate(valid),
        centers=np.concatenate(centers),
        radius=np.concatenate(radius),
        branch=np.concatenate(branch),
        n_branches=len(branches),
        scale=max(float(np.max(np.abs(b.points))) for b in branches),
    )


def _grad_bound(model: DispersionModel, k: np.ndarray, radius: np.ndarray):
    """A bound on |grad e| over the disc of the given radius about each
    chunk center k (already translated)."""
    if model.kind == "hubbard":
        # |d e / d k_i| = |sin k_i (1 - theta cos k_j)| <= 1 + theta
        return math.sqrt(2.0) * (1.0 + model.theta)
    # xy: grad e = (k2, k1), so |grad e| = |k| <= |center| + radius
    return np.hypot(k[..., 0], k[..., 1]) + radius


def _flagged_lengths(
    a: np.ndarray, b: np.ndarray, segs: np.ndarray, thresholds: np.ndarray
) -> np.ndarray:
    """Flagged arc length of a set of polyline segments at each threshold T.

    a, b are |e| at the segment ends, segs the segment lengths.  With lo,
    hi the smaller and larger end value, a segment counts fully when
    hi <= T and by the fraction (T - lo) / (hi - lo) when it crosses T
    (e taken as linear along it).  The caller passes only the candidate
    segments, those with lo <= max(T), in curve order, so the
    threshold-by-segment table is built on that short set.
    """
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    # a segment with hi == lo is never partly flagged
    width = np.where(hi > lo, hi - lo, np.inf)
    T = thresholds[:, None]
    frac = np.where(hi <= T, 1.0, np.maximum(T - lo, 0.0) / width)
    return np.sum(frac * segs, axis=1)


def _overlap_lengths(
    model: DispersionModel,
    chunks: _Chunks,
    p: np.ndarray,
    signs: Tuple[int, ...],
    thresholds: np.ndarray,
) -> np.ndarray:
    """(len(signs), len(thresholds)) overlap lengths of a chunked curve
    with its translate by p.

    By the mean value theorem |e(x)| >= |e(c)| - G r on a chunk with
    center c, radius r and gradient bound G, so a chunk with
    |e(c)| > max(T) + G r holds no candidate segment and is skipped.
    The slack added to the right side covers the rounding of e, of the
    translation and of the radius.  The kept chunks are evaluated
    exactly and their candidate segments flagged branch by branch in
    curve order: the compacted set, the table and its sum are those of
    an evaluation of the whole curve, bit for bit.
    """
    t_max = thresholds.max()
    sgn = np.array(signs, dtype=float)[:, None, None]
    kc = p + sgn * chunks.centers  # (S, C, 2)
    ec = np.abs(evaluate(model, kc))
    G = _grad_bound(model, kc, chunks.radius)
    scale = chunks.scale + float(np.max(np.abs(p)))
    reach = t_max + G * chunks.radius + _SLACK * (1.0 + ec + G * scale)
    # written as a negation so that a NaN bound keeps its chunk
    s_idx, c_idx = np.nonzero(~(ec > reach))
    # rows in blocks of about _BLOCK points, to bound the temporaries;
    # (-1) * x + p has the bits of p - x
    vals = np.empty((len(c_idx), _CHUNK + 1))
    step = _BLOCK // (_CHUNK + 1)
    for lo in range(0, len(c_idx), step):
        k = chunks.pts[c_idx[lo:lo + step]]
        k *= sgn[s_idx[lo:lo + step]]
        k += p
        vals[lo:lo + step] = np.abs(evaluate(model, k))
    a, b = vals[:, :-1], vals[:, 1:]
    hit = (np.minimum(a, b) <= t_max) & chunks.valid[c_idx]
    a, b, segs = a[hit], b[hit], chunks.segs[c_idx][hit]
    # kept rows come sorted by (sign, branch); find each group's hits
    n_groups = len(signs) * chunks.n_branches
    group = s_idx * chunks.n_branches + chunks.branch[c_idx]
    ends = np.concatenate([[0], np.cumsum(np.count_nonzero(hit, axis=1))])
    bounds = ends[np.searchsorted(group, np.arange(n_groups + 1))]
    out = np.zeros((len(signs), len(thresholds)))
    for g in range(n_groups):
        lo, hi = bounds[g], bounds[g + 1]
        if hi > lo:
            out[g // chunks.n_branches] += _flagged_lengths(
                a[lo:hi], b[lo:hi], segs[lo:hi], thresholds
            )
    return out


def overlap_length(
    model: DispersionModel,
    curve: CurveSample,
    p,
    sign: int = +1,
    threshold: float = 1e-3,
) -> float:
    """Arc length of {k on curve : |e(p + sign k)| <= threshold}."""
    if not (math.isfinite(threshold) and threshold > 0.0):
        raise ValueError("threshold must be positive and finite")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    p = np.asarray(p, dtype=float)
    if p.shape != (2,):
        raise ValueError(f"p must have shape (2,), not {p.shape}")
    out = _overlap_lengths(
        model, _chunk_branches([curve]), p, (sign,), np.array([threshold])
    )
    return float(out[0, 0])


@dataclass(frozen=True)
class OverlapScalingReport:
    p_samples: np.ndarray  # (num_p, 2)
    j_values: Tuple[int, ...]  # descending (toward smaller thresholds)
    measured_lengths: np.ndarray  # (num_p, num_j), sign +
    measured_lengths_minus: np.ndarray  # (num_p, num_j), sign -
    fitted_exponent: Optional[float]
    fitted_exponent_minus: Optional[float]
    n0: Optional[int]
    bounds: Optional[np.ndarray]  # (num_j,), (M^j/delta)^(1/n0)
    violation_fraction: Optional[np.ndarray]  # per j, sign +
    violation_fraction_minus: Optional[np.ndarray]
    total_curve_length: float
    step: float

    def rows(self, sign: int = +1):
        """(p_x, p_y, j, length, bound, violated) tuples for CSV export."""
        lengths = (
            self.measured_lengths if sign == +1 else self.measured_lengths_minus
        )
        for ip, p in enumerate(self.p_samples):
            for ij, j in enumerate(self.j_values):
                bound = float(self.bounds[ij]) if self.bounds is not None else math.nan
                ell = float(lengths[ip, ij])
                violated = bool(ell > bound) if self.bounds is not None else False
                yield (float(p[0]), float(p[1]), int(j), ell, bound, violated)


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


def _fit_envelope(lengths, j_sorted, M, num_drop, floor):
    """Least-squares slope of log(envelope length) against j log M,
    after dropping the worst num_drop samples per threshold."""
    env = []
    for ij in range(lengths.shape[1]):
        col = np.sort(lengths[:, ij])
        kept = col[: len(col) - num_drop] if num_drop > 0 else col
        env.append(max(float(kept[-1]), floor))
    env = np.asarray(env)
    if len(env) < 2:
        return None
    x = np.asarray(j_sorted, dtype=float) * math.log(M)
    y = np.log(env)
    slope = np.polyfit(x, y, 1)[0]
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

    The curve is traced with step min(0.01, M^min(j)), never coarser
    than the smallest threshold, and n0 is the largest branch
    nonflatness order over the model's saddles plus one (None, with no
    bound, for an exactly flat branch).  A threshold M^j below the
    smallest normal float raises ``ValueError``.
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
    smallest = M ** j_sorted[-1]
    if smallest < np.finfo(float).tiny:
        raise ValueError(
            f"threshold M^j for M = {M}, j = {j_sorted[-1]} underflows the "
            "smallest normal float"
        )
    step = min(_TRACE_STEP_CAP, smallest)
    branches = trace_fermi_curve(model, step=step)
    if not branches:
        raise ValueError("no Fermi curve found for this model")
    total_len = sum(b.total_length for b in branches)
    n0 = _derive_n0(model)

    rng = np.random.default_rng(rng_seed)
    (x0, x1), (y0, y1) = model.domain
    p_samples = np.column_stack(
        [rng.uniform(x0, x1, size=num_p), rng.uniform(y0, y1, size=num_p)]
    )

    thresholds = np.array([M ** j for j in j_sorted])
    chunks = _chunk_branches(branches)
    both = np.array(
        [_overlap_lengths(model, chunks, p, (+1, -1), thresholds) for p in p_samples]
    )
    lengths = {+1: both[:, 0].copy(), -1: both[:, 1].copy()}

    bounds = None
    viol = {+1: None, -1: None}
    if n0 is not None:
        bounds = (thresholds / delta) ** (1.0 / n0)
        for sign in (+1, -1):
            viol[sign] = np.mean(lengths[sign] > bounds[None, :], axis=0)

    fit = {
        sign: _fit_envelope(lengths[sign], j_sorted, M, num_drop, floor=step)
        for sign in (+1, -1)
    }

    return OverlapScalingReport(
        p_samples=p_samples,
        j_values=j_sorted,
        measured_lengths=lengths[+1],
        measured_lengths_minus=lengths[-1],
        fitted_exponent=fit[+1],
        fitted_exponent_minus=fit[-1],
        n0=n0,
        bounds=bounds,
        violation_fraction=viol[+1],
        violation_fraction_minus=viol[-1],
        total_curve_length=total_len,
        step=float(step),
    )


# ---------------------------------------------------------------------------
# Interval lemma
# ---------------------------------------------------------------------------


class IntervalLemmaResult(NamedTuple):
    measured_volume: float
    bound: float
    holds: bool


def _sublevel_count(f, eps: float, x: np.ndarray) -> int:
    """Number of grid points x (ascending, in [-1, 1]) with |f(x)| <= eps.

    The grid is cut into blocks of ``_GRID_BLOCK`` points, and f is
    first evaluated at each block's middle point xm.  With c = f.coef,
    n = len(c) and r the block's largest |x - xm| (at an end, since x
    ascends), |f(x) - f(xm)| <= L r on the block, L = sum i |c_i|, and
    Horner's rounding moves each computed value by at most
    delta = gamma_{2n} sum |c_i| (Higham, Accuracy and Stability of
    Numerical Algorithms, sec. 5.1).  So a block whose |f(xm)| exceeds
    eps by more than L r + 2 delta holds no flag, and one below eps by
    more than that is flagged whole; the relative slack covers the
    rounding of the bound itself.  Every other block is evaluated.
    Horner works element by element, so the count is that of one pass
    over the whole grid, bit for bit.
    """
    c = np.abs(f.coef.astype(float))
    n = len(c)
    gamma = 2 * n * _UNIT_ROUNDOFF / (1.0 - 2 * n * _UNIT_ROUNDOFF)
    delta = gamma * float(np.sum(c))
    L = float(np.dot(np.arange(n), c))
    start = np.arange(0, len(x), _GRID_BLOCK)
    end = np.minimum(start + _GRID_BLOCK, len(x)) - 1
    mid = (start + end) // 2
    r = np.maximum(x[mid] - x[start], x[end] - x[mid])
    fm = np.abs(np.asarray(f(x[mid]), dtype=float))
    reach = L * r + 2.0 * delta
    reach += _SLACK * (reach + eps)
    # a NaN fails both tests, so its block is evaluated
    full = fm < eps - reach
    mixed = ~(fm > eps + reach) & ~full
    count = int(np.sum(end[full] - start[full] + 1))
    for i in np.flatnonzero(mixed):
        fx = np.asarray(f(x[start[i]:end[i] + 1]), dtype=float)
        count += int(np.count_nonzero(np.abs(fx) <= eps))
    return count


def interval_lemma_check(
    f: Polynomial,
    k: int,
    eta: float,
    eps: float,
    grid: int = 1_000_000,
) -> IntervalLemmaResult:
    """Measure |{x : |f(x)| <= eps}| on [-1, 1] and compare with
    2^(k+1) (eps/eta)^(1/k).

    f is a ``numpy.polynomial.Polynomial`` with finite real
    coefficients and the default domain and window, so that f(x) is
    Horner's rule on f.coef (``_sublevel_count`` bounds it from them);
    anything else raises ``ValueError``.  The derivative hypothesis
    |f^(k)| >= eta is verified first by k-fold finite differencing on a
    coarse stencil grid.  The measure is the flagged share of ``grid``
    equispaced points, times 2.
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
    a, b = _INTERVAL
    grid = int(grid)
    if grid < 2:
        raise ValueError("grid needs at least 2 points")

    n_check = 2001
    xc = np.linspace(a, b, n_check)
    h = xc[1] - xc[0]
    dk = np.diff(np.asarray(f(xc), dtype=float), k) / h ** k
    # written as a negation so that a NaN fails the hypothesis
    if not float(np.min(np.abs(dk))) >= eta * (1.0 - 1e-9):
        raise HypothesisViolated(
            f"|f^({k})| falls below eta={eta} on the check grid"
        )

    # the float64 count over grid has the bits of np.mean of the flags
    count = _sublevel_count(f, eps, np.linspace(a, b, grid))
    measured = float(np.float64(count) / grid * (b - a))
    bound = 2.0 ** (k + 1) * (eps / eta) ** (1.0 / k)
    return IntervalLemmaResult(measured, bound, measured <= bound)
