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
    gradient,
    morse_normal_form,
)
from .errors import HypothesisViolated

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


_MAX_STEPS = 2_000_000  # most steps (segments) on one traced branch
_RAYS = 1024  # coarse rays of the hubbard construction, a multiple of 4
_RAY_ITER = 100  # Newton or bisection steps of one ray solve, at most
_TRACE_STEP_CAP = 0.01  # largest trace step of the scaling experiment
_INTERVAL = (-1.0, 1.0)  # the interval lemma's interval
_UNIT_ROUNDOFF = 2.0 ** -53  # of float64


def _root_tol(model: DispersionModel) -> float:
    """16 unit roundoffs of the hubbard band's scale 2 + 2 theta + |mu|:
    the |e| at which a point counts as on the curve."""
    return 16.0 * _UNIT_ROUNDOFF * (2.0 + 2.0 * model.theta + abs(model.mu))


def _ray_roots(
    model: DispersionModel, center: np.ndarray, sign: float,
    phi: np.ndarray, r: np.ndarray,
) -> np.ndarray:
    """The points center + r u on {e = 0}, u = (cos phi, sin phi), one per
    ray, starting from the radii r.

    sign * e increases along each ray up to the square's edge at
    R = pi / max(|u1|, |u2|), from below zero at the center to at least
    zero at the edge, so [0, R] brackets its one root.  Newton's step is
    taken when it stays inside the bracket, the bracket's midpoint
    otherwise; the solve ends once every |e| is within ``_root_tol``.
    It returns the points of its last evaluation.  Bisection alone narrows
    a bracket of width pi to one ulp of r in about 53 halvings, well
    inside ``_RAY_ITER``.
    """
    u = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    lo = np.zeros_like(r)
    hi = math.pi / np.maximum(np.abs(u[:, 0]), np.abs(u[:, 1]))
    tol = _root_tol(model)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_RAY_ITER):
            k = center + r[:, None] * u
            f = sign * evaluate(model, k)
            if np.all(np.abs(f) <= tol):
                break
            lo = np.where(f < 0.0, r, lo)
            hi = np.where(f > 0.0, r, hi)
            g = gradient(model, k)
            newton = r - f / (sign * (g[:, 0] * u[:, 0] + g[:, 1] * u[:, 1]))
            # a NaN step (zero slope) fails the test and bisects
            r = np.where((newton >= lo) & (newton <= hi), newton, 0.5 * (lo + hi))
    return k


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


_CHUNK = 64  # segments per prefilter chunk
_BLOCK = 16_384  # points per evaluation block of the overlap rows
_SLACK = 1e-12  # relative rounding allowance of the chunk and block tests
_GRID_BLOCK = 1024  # grid points per block of the sublevel prefilter


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
    smallest normal float raises ``ValueError``, and so does a step that
    cuts a branch into more than ``_MAX_STEPS`` segments.
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


def _grid_points(i: np.ndarray, grid: int) -> np.ndarray:
    """Points i of ``np.linspace(a, b, grid)`` by its own formula, bit
    for bit: i * ((b - a) / (grid - 1)) + a, the last point set to b."""
    a, b = _INTERVAL
    return np.where(i == grid - 1, b, i * ((b - a) / (grid - 1)) + a)


def _sublevel_count(f, eps: float, grid: int) -> int:
    """Number of points x of ``np.linspace(-1, 1, grid)`` with |f(x)| <= eps.

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
    over the whole grid, bit for bit, of which only the points read are
    formed (``_grid_points``).
    """
    c = np.abs(f.coef.astype(float))
    n = len(c)
    gamma = 2 * n * _UNIT_ROUNDOFF / (1.0 - 2 * n * _UNIT_ROUNDOFF)
    delta = gamma * float(np.sum(c))
    L = float(np.dot(np.arange(n), c))
    start = np.arange(0, grid, _GRID_BLOCK)
    end = np.minimum(start + _GRID_BLOCK, grid) - 1
    mid = (start + end) // 2
    xs, xm, xe = (_grid_points(i, grid) for i in (start, mid, end))
    r = np.maximum(xm - xs, xe - xm)
    fm = np.abs(np.asarray(f(xm), dtype=float))
    reach = L * r + 2.0 * delta
    reach += _SLACK * (reach + eps)
    # a NaN fails both tests, so its block is evaluated
    full = fm < eps - reach
    mixed = ~(fm > eps + reach) & ~full
    count = int(np.sum(end[full] - start[full] + 1))
    for i in np.flatnonzero(mixed):
        x = _grid_points(np.arange(start[i], end[i] + 1), grid)
        fx = np.asarray(f(x), dtype=float)
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
    count = _sublevel_count(f, eps, grid)
    measured = float(np.float64(count) / grid * (b - a))
    bound = 2.0 ** (k + 1) * (eps / eta) ** (1.0 / k)
    return IntervalLemmaResult(measured, bound, measured <= bound)
