"""Curve tracing, overlap measurement, and the interval lemma."""

import functools
import math
import re

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from vanhove_lab import geometry as geo
from vanhove_lab.dispersion import (
    DispersionModel,
    _isotropic_frame,
    evaluate,
    find_singular_points,
    gradient,
)
from vanhove_lab.errors import HypothesisViolated
from vanhove_lab.geometry import (
    interval_lemma_check,
    overlap_lengths,
    overlap_scaling_experiment,
    trace_fermi_curve,
)

TRACE_TOL = 1e-10


def _check_curve_invariants(model, branches, step):
    for b in branches:
        assert np.max(np.abs(evaluate(model, b.points))) < TRACE_TOL
        seg = b.segment_lengths()
        assert np.all(seg >= 0.25 * step - 1e-12)
        assert np.all(seg <= 4.0 * step + 1e-12)
        assert np.all(np.diff(b.cumulative_arclength) > 0.0)


def test_xy_trace_four_half_axes():
    m = DispersionModel.xy()
    branches = trace_fermi_curve(m, step=0.01)
    assert len(branches) == 4
    total = sum(b.total_length for b in branches)
    assert total == pytest.approx(4.0, rel=0.01)
    _check_curve_invariants(m, branches, 0.01)


def test_hubbard_half_filling_arcs_meet_saddles():
    m = DispersionModel.hubbard(0.3, 0.0)
    branches = trace_fermi_curve(m, step=0.01)
    _check_curve_invariants(m, branches, 0.01)
    saddles = [np.array([math.pi, 0.0]), np.array([0.0, math.pi])]

    def is_saddle_image(x):
        for s in saddles:
            d = (x - s + math.pi) % (2 * math.pi) - math.pi
            if np.hypot(*d) < 1e-9:
                return True
        return False

    assert len(branches) == 4
    for b in branches:
        assert is_saddle_image(b.points[0])
        assert is_saddle_image(b.points[-1])
    total = sum(b.total_length for b in branches)
    assert math.isfinite(total) and total > 10.0


def test_trace_determinism():
    m = DispersionModel.hubbard(0.3, 0.0)
    a = trace_fermi_curve(m, step=0.01)
    b = trace_fermi_curve(m, step=0.01)
    assert len(a) == len(b)
    for ba, bb in zip(a, b):
        assert np.array_equal(ba.points, bb.points)
        assert np.array_equal(ba.cumulative_arclength, bb.cumulative_arclength)


def test_hubbard_away_from_half_filling_single_closed_curve():
    m = DispersionModel.hubbard(0.3, -1.0)
    assert evaluate(m, np.array([math.pi, 0.0])) == pytest.approx(1.0)
    branches = trace_fermi_curve(m, step=0.01)
    assert len(branches) == 1
    assert branches[0].closed
    _check_curve_invariants(m, branches, 0.01)


@pytest.mark.parametrize("theta", [0.2, 0.5, 0.8])
def test_traced_points_have_nonvanishing_gradient(theta):
    m = DispersionModel.hubbard(theta, 0.0)
    branches = trace_fermi_curve(m, step=0.01)
    saddles = np.array([[math.pi, 0.0], [0.0, math.pi]])
    for b in branches:
        g = gradient(m, b.points)
        gn = np.hypot(g[:, 0], g[:, 1])
        d = b.points[:, None, :] - saddles[None, :, :]
        d = (d + math.pi) % (2 * math.pi) - math.pi
        dist = np.min(np.hypot(d[..., 0], d[..., 1]), axis=1)
        away = dist > 0.05
        assert np.all(gn[away] > 0.0)


# ---------------------------------------------------------------------------
# reference: a predictor-corrector array marcher
# ---------------------------------------------------------------------------
#
# Each step below works on 2-vectors through ``evaluate``/``gradient``.
# It knows nothing of either band's shape: it seeds branches from the
# saddles' isotropic directions and a sign-change scan, steps along the
# tangent and Newton-projects back onto {e = 0}.  The ray construction
# of ``trace_fermi_curve`` is checked against it within stated bounds.


class _RefStalled(Exception):
    """A reference projection or march did not converge."""


def _ref_torus_delta(d):
    return (d + math.pi) % (2.0 * math.pi) - math.pi


def _ref_image_near(target, ref, periodic):
    if not periodic:
        return target
    return ref + _ref_torus_delta(target - ref)


def _ref_project(model, x, tol, max_iter=30):
    x = np.array(x, dtype=float)
    for _ in range(max_iter):
        v = float(evaluate(model, x))
        if abs(v) < tol:
            return x
        g = gradient(model, x)
        g2 = float(g @ g)
        if g2 == 0.0:
            break
        x = x - (v / g2) * g
    raise _RefStalled(f"level-set projection failed near {x}")


def _ref_project_along(model, x, direction, tol, max_iter=40):
    x = np.array(x, dtype=float)
    d = np.asarray(direction, dtype=float)
    for _ in range(max_iter):
        v = float(evaluate(model, x))
        if abs(v) < tol:
            return x
        slope = float(gradient(model, x) @ d)
        if slope == 0.0:
            break
        x = x - (v / slope) * d
    raise _RefStalled(f"constrained projection failed near {x}")


def _ref_inside(box, x):
    return all(box[i][0] - 1e-12 <= x[i] <= box[i][1] + 1e-12 for i in range(2))


def _ref_clip_to_box(x_from, x_to, box):
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


def _ref_tangent(model, x):
    g = gradient(model, x)
    n = float(np.hypot(g[0], g[1]))
    if n == 0.0:
        raise _RefStalled(f"vanishing gradient on trace at {x}")
    return np.array([-g[1], g[0]]) / n


class _RefMarcher:
    def __init__(self, model, step, tol, max_steps, sing_locs):
        self.model = model
        self.h = step
        self.tol = tol
        self.max_steps = max_steps
        self.sing = sing_locs
        self.periodic = model.kind == "hubbard"
        self.stop_r = 1.5 * step

    def near_singular(self, x):
        for s in self.sing:
            img = _ref_image_near(s, x, self.periodic)
            if np.hypot(*(x - img)) <= self.stop_r:
                return img
        return None

    def march(self, x0, direction):
        model, h = self.model, self.h
        pts = [np.array(x0, dtype=float)]
        d_prev = np.asarray(direction, dtype=float)
        box = model.domain
        for n_step in range(self.max_steps):
            x = pts[-1]
            t = _ref_tangent(model, x)
            if float(t @ d_prev) < 0.0:
                t = -t
            d_prev = t
            cand = _ref_project(model, x + h * t, self.tol)
            spacing = float(np.hypot(*(cand - x)))
            if not 0.25 * h <= spacing <= 4.0 * h:
                cand = _ref_project(model, x + 0.5 * h * t, self.tol)
                spacing = float(np.hypot(*(cand - x)))
                if not 0.25 * h <= spacing <= 4.0 * h:
                    raise _RefStalled(
                        f"step spacing {spacing} incompatible with target {h}"
                    )
            img = self.near_singular(cand)
            if img is not None:
                if np.hypot(*(img - x)) >= 0.25 * h:
                    pts.append(img)
                return pts, False
            if not self.periodic:
                s, wall = _ref_clip_to_box(x, cand, box)
                if s is not None:
                    b = x + s * (cand - x)
                    i, _ = wall
                    tangent_dir = np.zeros(2)
                    tangent_dir[1 - i] = 1.0
                    try:
                        b = _ref_project_along(model, b, tangent_dir, self.tol)
                    except _RefStalled:
                        pass
                    if np.hypot(*(b - x)) >= 0.25 * h:
                        pts.append(b)
                    return pts, False
            pts.append(cand)
            if n_step >= 4:
                start_img = _ref_image_near(pts[0], cand, self.periodic)
                dist = float(np.hypot(*(cand - start_img)))
                if dist <= 0.75 * h:
                    if dist < 0.25 * h:
                        pts.pop()
                        start_img = _ref_image_near(pts[0], pts[-1], self.periodic)
                    pts.append(start_img)
                    return pts, True
        raise _RefStalled(f"no termination within {self.max_steps} steps")


def _ref_bisect_edge(model, a, b, iters=40):
    fa = float(evaluate(model, a))
    for _ in range(iters):
        mid = 0.5 * (a + b)
        fm = float(evaluate(model, mid))
        if fa * fm <= 0.0:
            b = mid
        else:
            a = mid
            fa = fm
    return 0.5 * (a + b)


def _ref_scan_seeds(model, n, tol):
    (x0, x1), (y0, y1) = model.domain
    xs = np.linspace(x0, x1, n)
    ys = np.linspace(y0, y1, n)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    E = evaluate(model, np.stack([X, Y], axis=-1))
    seeds = []
    for (i, j) in np.argwhere(E[:-1, :] * E[1:, :] < 0.0):
        seeds.append(_ref_bisect_edge(
            model, np.array([xs[i], ys[j]]), np.array([xs[i + 1], ys[j]])))
    for (i, j) in np.argwhere(E[:, :-1] * E[:, 1:] < 0.0):
        seeds.append(_ref_bisect_edge(
            model, np.array([xs[i], ys[j]]), np.array([xs[i], ys[j + 1]])))
    out = []
    for s in seeds:
        try:
            out.append(_ref_project(model, s, tol))
        except _RefStalled:
            continue
    return out


@functools.cache
def _ref_trace(model, step, tol=1e-10, max_steps=2_000_000, scan_grid=48):
    """(points, cumulative_arclength, closed) per branch, array marcher;
    built once per model and step."""
    periodic = model.kind == "hubbard"
    singular = find_singular_points(model)
    sing_locs = [p.location for p in singular]
    m = _RefMarcher(model, step, tol, max_steps, sing_locs)
    seeds = []
    r_seed = m.stop_r + step
    for p in singular:
        A = _isotropic_frame(p)
        for col in (0, 1):
            for sgn in (+1.0, -1.0):
                try:
                    seeds.append(_ref_project(
                        model, p.location + sgn * r_seed * A[:, col], tol))
                except _RefStalled:
                    continue
    seeds.extend(_ref_scan_seeds(model, scan_grid, tol))

    out = []

    def too_close(x):
        for arr, _, _ in out:
            d = arr - x[None, :]
            if periodic:
                d = _ref_torus_delta(d)
            if float(np.min(np.hypot(d[:, 0], d[:, 1]))) < 0.75 * step:
                return True
        return False

    for seed in seeds:
        if any(float(np.hypot(*_ref_delta(seed, s, periodic))) < m.stop_r
               for s in sing_locs):
            continue
        if not _ref_inside(model.domain, seed) and not periodic:
            continue
        if too_close(seed):
            continue
        t0 = _ref_tangent(model, seed)
        fwd, closed = m.march(seed, t0)
        if closed:
            chain = fwd
        else:
            bwd, closed = m.march(seed, -t0)
            chain = bwd if closed else list(reversed(bwd))[:-1] + fwd
        if len(chain) < 2:
            continue
        pts = np.array(chain)
        seg = np.hypot(*(np.diff(pts, axis=0).T))
        out.append((pts, np.concatenate([[0.0], np.cumsum(seg)]), closed))
    return out


def _ref_delta(a, b, periodic):
    d = a - b
    return _ref_torus_delta(d) if periodic else d


_SADDLE_IMAGES = np.array([[math.pi, 0.0], [0.0, math.pi], [-math.pi, 0.0],
                           [0.0, -math.pi]])

_TRACE_MODELS = [
    DispersionModel.hubbard(theta, mu)
    for theta in (0.1, 0.3, 0.5, 0.8) for mu in (0.0, 0.2, -0.2)
]


def _same_ends(a, b, periodic):
    """Whether two open branches (point arrays) end on the same two
    points, in either order, mod 2 pi on the torus."""
    d = a[[0, -1]][:, None, :] - b[[0, -1]][None, :, :]
    if periodic:
        d = _ref_torus_delta(d)
    near = np.hypot(d[..., 0], d[..., 1]) < 1e-9
    return bool((near[0, 0] and near[1, 1]) or (near[0, 1] and near[1, 0]))


@pytest.mark.parametrize(
    "model",
    _TRACE_MODELS + [DispersionModel.hubbard(0.3, -1.0), DispersionModel.xy()],
    ids=[f"hubbard-{m.theta}-{m.mu}" for m in _TRACE_MODELS]
    + ["hubbard-0.3--1.0", "xy"],
)
def test_trace_matches_array_reference(model):
    step = 0.01
    ref = _ref_trace(model, step)
    got = trace_fermi_curve(model, step=step)
    assert len(got) == len(ref) > 0
    assert sorted(b.closed for b in got) == sorted(c for _, _, c in ref)
    # open arcs end on the same points: saddle images, or the xy box
    got_open = [b.points for b in got if not b.closed]
    ref_open = [p for p, _, c in ref if not c]
    for a, others in ((got_open, ref_open), (ref_open, got_open)):
        for x in a:
            assert any(_same_ends(x, y, model.kind == "hubbard") for y in others)
    total = sum(b.total_length for b in got)
    ref_total = sum(cum[-1] for _, cum, _ in ref)
    assert abs(total - ref_total) <= step ** 2 * ref_total


@pytest.mark.parametrize("step", [0.01, 2.0 ** -12])
@pytest.mark.parametrize(
    "model", _TRACE_MODELS + [DispersionModel.xy()],
    ids=[f"hubbard-{m.theta}-{m.mu}" for m in _TRACE_MODELS] + ["xy"],
)
def test_trace_points_on_curve_at_uniform_spacing(model, step):
    branches = trace_fermi_curve(model, step=step)
    for b in branches:
        assert np.max(np.abs(evaluate(model, b.points))) <= 1e-14
        seg = b.segment_lengths()
        assert np.all((0.9 * step <= seg) & (seg <= 1.1 * step))
        if b.closed:
            assert np.array_equal(b.points[-1], b.points[0])
    if model.kind == "hubbard" and model.mu == 0.0:
        assert len(branches) == 4 and not any(b.closed for b in branches)
        for b in branches:
            for end in b.points[[0, -1]]:
                assert any(np.array_equal(end, s) for s in _SADDLE_IMAGES)
    again = trace_fermi_curve(model, step=step)
    for a, b in zip(branches, again):
        assert a.points.tobytes() == b.points.tobytes()
        assert a.cumulative_arclength.tobytes() == b.cumulative_arclength.tobytes()


@pytest.mark.parametrize("theta", [0.3, 0.8])
@pytest.mark.parametrize("edge", ["gamma", "m"])
def test_small_pocket_is_one_closed_branch(theta, edge):
    # a pocket of radius sqrt(2 |mu - edge| / lambda) about Gamma or M,
    # lambda the Hessian's eigenvalue there; far below the spacing of a
    # coarse sign-change grid
    if edge == "gamma":
        band_edge, lam, mu = 2 * theta - 2, 1 - theta, 2 * theta - 2 + 1e-3
    else:
        band_edge, lam, mu = 2 + 2 * theta, 1 + theta, 2 + 2 * theta - 1e-3
    model = DispersionModel.hubbard(theta, mu)
    branches = trace_fermi_curve(model, step=0.01)
    assert len(branches) == 1 and branches[0].closed
    circle = 2 * math.pi * math.sqrt(2 * abs(mu - band_edge) / lam)
    assert branches[0].total_length == pytest.approx(circle, rel=0.01)
    # on or beyond the edge there is no curve
    for outside in (band_edge, band_edge + (1.0 if edge == "m" else -1.0)):
        assert trace_fermi_curve(DispersionModel.hubbard(theta, outside)) == []


@pytest.mark.parametrize("step", [1e-7, 1e-300, 5e-324])
def test_trace_rejects_step_that_needs_too_many_points(step):
    for model in (DispersionModel.hubbard(0.3, 0.0), DispersionModel.xy()):
        with pytest.raises(ValueError, match=re.escape(f"step {step!r} cuts")) as e:
            trace_fermi_curve(model, step=step)
        assert f"limit of {geo._MAX_STEPS}" in str(e.value)


def _ref_overlap_lengths(model, branches, p, thresholds):
    """Flagged length of the polyline through the traced points, with
    F = e(p + k) taken as linear along each segment: the share of
    the segment where |F| <= T.  Also returns the polyline's own error at
    each threshold: linear interpolation misplaces a crossing of F = +/-T
    by about h^2 |F''| / (8 |F'|), with F'' h^2 and F' h read from the
    differences of F at the neighbouring points."""
    T, t_max = thresholds[:, None], thresholds.max()
    out, err = np.zeros(len(thresholds)), np.zeros(len(thresholds))
    for b in branches:
        F = evaluate(model, p + b.points)
        above, below = F > t_max, F < -t_max
        idx = np.flatnonzero(~(above[:-1] & above[1:]) & ~(below[:-1] & below[1:]))
        a, c = F[idx], F[idx + 1]
        lo, hi = np.minimum(a, c), np.maximum(a, c)
        segs = b.segment_lengths()[idx]
        width = np.where(hi > lo, hi - lo, np.inf)
        inside = np.maximum(np.minimum(hi, T) - np.maximum(lo, -T), 0.0) / width
        out += np.sum(np.where(hi > lo, inside, np.abs(lo) <= T) * segs, axis=1)
        crossings = ((lo < T) & (T < hi)).astype(float) + ((lo < -T) & (-T < hi))
        # second differences at both ends (the nearest interior point's at a
        # branch end)
        i = np.clip(np.stack([idx, idx + 1]), 1, len(F) - 2)
        curv = np.max(np.abs(F[i + 1] - 2.0 * F[i] + F[i - 1]), axis=0)
        err += np.sum(crossings * segs * curv / (8.0 * width), axis=1)
    return out, err


def _reflected(b):
    """The branch b with its points negated: e(p + k) on it is e(p - k)
    on b."""
    return geo.CurveSample(points=-b.points,
                           cumulative_arclength=b.cumulative_arclength,
                           closed=b.closed)


def _hubbard_flag_curves():
    """(model, branch, p, thresholds): 80 translated hubbard curves, each
    branch also reflected."""
    m = DispersionModel.hubbard(0.3, 0.0)
    T = 2.0 ** np.arange(-6.0, -13.0, -1.0)
    rng = np.random.default_rng(2)
    for b in trace_fermi_curve(m, step=0.01):
        for p in rng.uniform(-math.pi, math.pi, size=(10, 2)):
            for branch in (b, _reflected(b)):
                yield m, branch, p, T


def _kernel(model, branches, ps, T):
    return overlap_lengths(model, branches, np.atleast_2d(ps), T)


def _overlap(model, branches, p, T):
    """Length and error bound at one momentum p and threshold T."""
    lengths, errors = overlap_lengths(model, branches, [p], [T])
    return float(lengths[0, 0]), float(errors[0, 0])


def test_flagged_lengths_match_per_threshold_reference():
    # all thresholds at once give each threshold's own run, to rounding
    n_cases = 0
    for m, b, p, T in _hubbard_flag_curves():
        got, got_err = _kernel(m, [b], p, T)
        for j, t in enumerate(T):
            length, error = _overlap(m, [b], p, t)
            assert got[0, j] == pytest.approx(length, rel=1e-14, abs=1e-15)
            assert got_err[0, j] == pytest.approx(error, rel=1e-12, abs=1e-15)
        n_cases += 1
    assert n_cases == 4 * 10 * 2


def test_flagged_lengths_on_threshold_and_empty():
    # on the +x half-axis e((x, 0) + (0, 0.5)) = x / 2 is linear: a
    # threshold at a traced point's value flags exactly up to that point
    m = DispersionModel.xy()
    b = trace_fermi_curve(m, step=0.01)[0]
    assert np.all(b.points[:, 1] == 0.0) and np.all(b.points[:, 0] >= 0.0)
    T = 0.5 * b.points[[7, 40, 99], 0]
    got, err = _kernel(m, [b], np.array([0.0, 0.5]), T)
    np.testing.assert_allclose(got[0], b.points[[7, 40, 99], 0], rtol=1e-14)
    assert np.all(err[0] < 1e-15)
    # far from the curve nothing is flagged, and nothing is uncertain
    got, err = _kernel(m, [b], np.array([2.0, 2.0]), T)
    assert np.array_equal(got, np.zeros((1, 3))) and np.array_equal(err, got)


class _CountingEvaluate:
    """Stands in for ``geometry.evaluate``; counts its calls and points."""

    def __init__(self):
        self.calls = 0
        self.points = 0

    def __call__(self, model, k):
        self.calls += 1
        self.points += np.size(k) // 2
        return evaluate(model, k)


def _assert_screening_exact(monkeypatch, model, branches, ps, T):
    """The screened kernel against the same kernel with an infinite
    rounding slack, which keeps every segment and flags none whole; also
    the points each run evaluates."""
    counts = []
    for slack in (geo._SLACK, math.inf):
        counter = _CountingEvaluate()
        with monkeypatch.context() as mp:
            mp.setattr(geo, "_SLACK", slack)
            mp.setattr(geo, "evaluate", counter)
            counts.append((_kernel(model, branches, ps, T), counter.points))
    (got, n_got), (ref, n_ref) = counts
    np.testing.assert_allclose(got[0], ref[0], rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(got[1], ref[1], rtol=1e-12, atol=1e-15)
    return got, n_got, n_ref


def test_prefilter_matches_unfiltered_loop_on_hubbard_curves(monkeypatch):
    n_got = n_ref = 0
    for m, b, p, T in _hubbard_flag_curves():
        _, got, ref = _assert_screening_exact(monkeypatch, m, [b], p, T)
        n_got, n_ref = n_got + got, n_ref + ref
    # the bound skips most of the curve
    assert n_got < 0.5 * n_ref


def test_prefilter_matches_unfiltered_loop_on_scaling_run(monkeypatch):
    m = DispersionModel.hubbard(0.3, 0.0)
    rep = overlap_scaling_experiment(
        m, M=2.0, j_range=range(-6, -10, -1), num_p=100, delta=0.1, rng_seed=42
    )
    T = np.array([2.0 ** j for j in rep.j_values])
    got, _, _ = _assert_screening_exact(
        monkeypatch, m, trace_fermi_curve(m, rep.step), rep.p_samples, T)
    assert np.array_equal(got[0], rep.measured_lengths)
    assert np.array_equal(got[1], rep.length_errors)


def test_overlap_lengths_match_array_reference_curve():
    # the Hermite lengths on the ray construction's curve against the
    # polyline on the reference marcher's curve at step 2^-11, within the
    # reported error plus that polyline's own
    m = DispersionModel.hubbard(0.3, 0.0)
    rep = overlap_scaling_experiment(
        m, M=2.0, j_range=range(-6, -10, -1), num_p=100, delta=0.1, rng_seed=42
    )
    ref = [geo.CurveSample(points=p, cumulative_arclength=cum, closed=closed)
           for p, cum, closed in _ref_trace(m, 2.0 ** -11)]
    T = np.array([2.0 ** j for j in rep.j_values])
    for ip, p in enumerate(rep.p_samples):
        want, chord = _ref_overlap_lengths(m, ref, p, T)
        gap = np.abs(rep.measured_lengths[ip] - want)
        assert np.all(gap <= rep.length_errors[ip] + chord + 1e-13)


def test_overlap_lengths_match_fine_polyline_on_criterion_9():
    # criterion 9's run against the polyline at step 2^-14, within the
    # reported error plus that polyline's own
    m = DispersionModel.hubbard(0.3, 0.0)
    rep = overlap_scaling_experiment(
        m, M=2.0, j_range=range(-6, -13, -1), num_p=500, delta=0.1, rng_seed=42
    )
    assert rep.step == 0.01
    fine = trace_fermi_curve(m, step=2.0 ** -14)
    T = np.array([2.0 ** j for j in rep.j_values])
    for ip, p in enumerate(rep.p_samples):
        want, chord = _ref_overlap_lengths(m, fine, p, T)
        gap = np.abs(rep.measured_lengths[ip] - want)
        assert np.all(gap <= rep.length_errors[ip] + chord + 1e-13)


def test_overlap_flags_tangential_dip_inside_one_segment():
    # the mu = -1 curve is symmetric under k1 <-> k2 and k -> -k, so its
    # normal at the diagonal point P is the diagonal.  With
    # p = -P - (y, y), p + P = -(y, y) lies on the diagonal too, where
    # grad e is normal to the curve: F = e(p + k) has a minimum
    # F(P) = e(y, y) at P, a tangential touch between the curve and its
    # translate.  Both ends of P's 0.01 segment stay above the threshold.
    theta = 0.3
    m = DispersionModel.hubbard(theta, -1.0)

    def diagonal(level):
        # e(y, y) = theta c^2 - 2 c + theta + 1 with c = cos y
        return math.acos((1.0 - math.sqrt(1.0 - theta * (theta + 1.0 - level)))
                         / theta)

    x, y = diagonal(0.0), diagonal(1e-4)
    p = -np.array([x + y, x + y])
    curve = trace_fermi_curve(m, step=0.01)[0]
    d = curve.points[:, 0] - curve.points[:, 1]
    i = np.flatnonzero((d[:-1] < 0.0) != (d[1:] < 0.0))[0]
    ends = np.abs(evaluate(m, p + curve.points[[i, i + 1]]))
    T = 0.5 * (1e-4 + ends.min())
    assert ends.min() > T
    # the polyline through the traced points misses the dip
    assert _ref_overlap_lengths(m, [curve], p, np.array([T]))[0][0] == 0.0
    length, error = _overlap(m, [curve], p, T)
    fine = trace_fermi_curve(m, step=2.0 ** -16)
    want, chord = _ref_overlap_lengths(m, fine, p, np.array([T]))
    assert length > 0.003
    assert abs(length - want[0]) <= error + chord[0]


@pytest.mark.parametrize(
    "model", [DispersionModel.hubbard(0.3, mu) for mu in (0.0, 0.2, -0.2)]
    + [DispersionModel.xy()],
    ids=["hubbard-0.0", "hubbard-0.2", "hubbard--0.2", "xy"],
)
def test_sign_minus_equals_sign_plus_within_error(model):
    # both bands are even and their curves symmetric under k -> -k, so
    # {|e(p - k)| <= T} and {|e(p + k)| <= T} have the same length; sign -1
    # is measured on the reflected branches
    branches = trace_fermi_curve(model, step=0.01)
    rng = np.random.default_rng(5)
    (x0, x1), (y0, y1) = model.domain
    ps = np.column_stack([rng.uniform(x0, x1, 12), rng.uniform(y0, y1, 12)])
    T = [2.0 ** -3, 2.0 ** -8, 2.0 ** -12]
    plus, plus_err = overlap_lengths(model, branches, ps, T)
    minus, minus_err = overlap_lengths(model, [_reflected(b) for b in branches],
                                       ps, T)
    assert np.all(np.abs(plus - minus) <= plus_err + minus_err + 1e-15)


def test_prefilter_matches_unfiltered_loop_on_xy_branches(monkeypatch):
    # the per-segment bound |grad e| <= |start| + arc
    m = DispersionModel.xy()
    branches = trace_fermi_curve(m, step=0.01)
    T = 2.0 ** np.arange(-4.0, -9.0, -1.0)
    rng = np.random.default_rng(7)
    ps = np.concatenate([rng.uniform(-1.0, 1.0, size=(20, 2)),
                         [[0.5, 0.0], [0.0, -0.3], [0.0, 0.0]]])
    for bs in (branches, [_reflected(b) for b in branches]):
        _, n_got, n_ref = _assert_screening_exact(monkeypatch, m, bs, ps, T)
        assert n_got < 0.5 * n_ref


def test_prefilter_rows_in_several_blocks_match_unfiltered_loop(monkeypatch):
    # many momenta near 0 keep the whole reflected curve near e = 0, so
    # both the screening and the flagging run in several blocks
    m = DispersionModel.hubbard(0.3, 0.0)
    branches = [_reflected(b) for b in trace_fermi_curve(m, step=0.01)]
    T = 2.0 ** np.arange(-6.0, -12.0, -1.0)
    ps = np.random.default_rng(3).uniform(-2e-3, 2e-3, size=(40, 2))
    counter = _CountingEvaluate()
    with monkeypatch.context() as mp:
        mp.setattr(geo, "evaluate", counter)
        got = _kernel(m, branches, ps, T)
    segs = geo._segments(m, branches)
    assert counter.calls >= 2 * math.ceil(len(ps) / (geo._BLOCK // len(segs.arc)))
    assert len(ps) * len(segs.arc) > 2 * (geo._BLOCK // len(T))
    # one block per momentum: the sums do not depend on the blocks
    for ip, p in enumerate(ps):
        one = _kernel(m, branches, p, T)
        np.testing.assert_allclose(got[0][ip], one[0][0], rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(got[1][ip], one[1][0], rtol=1e-12, atol=1e-15)
    _assert_screening_exact(monkeypatch, m, branches, ps, T)


@pytest.mark.parametrize("n", [2, 3, 40, 64, 65, 66, 7 * 64 + 1, 7 * 64 + 2])
def test_prefilter_matches_unfiltered_loop_on_short_and_ragged_branches(
        n, monkeypatch):
    # fewer segments than one screening group, and cuts whose last group
    # is short
    m = DispersionModel.hubbard(0.3, 0.0)
    full = max(trace_fermi_curve(m, step=2.0 ** -9), key=lambda b: len(b.points))
    rng = np.random.default_rng(n)
    T = 2.0 ** np.arange(-2.0, -9.0, -1.0)
    n_nonzero = 0
    for start in rng.integers(0, len(full.points) - n, size=5):
        cut = geo.CurveSample(
            points=full.points[start:start + n],
            cumulative_arclength=full.cumulative_arclength[start:start + n],
        )
        # p = 0 keeps the whole cut on the level set
        for p in (np.zeros(2), rng.uniform(-0.1, 0.1, size=2)):
            for c in (cut, _reflected(cut)):
                got, _, _ = _assert_screening_exact(monkeypatch, m, [c], p, T)
                n_nonzero += bool(got[0][0, 0] > 0.0)
    assert n_nonzero > 0


@pytest.mark.parametrize(
    "model", [DispersionModel.hubbard(theta, mu)
              for theta in (0.3, 0.8) for mu in (0.0, 0.2, -0.2)]
    + [DispersionModel.xy()],
    ids=[f"hubbard-{t}-{mu}" for t in (0.3, 0.8) for mu in (0.0, 0.2, -0.2)]
    + ["xy"],
)
def test_segments_are_hermite_cubics_with_exact_end_tangents(model):
    branches = trace_fermi_curve(model, step=0.01)
    segs = geo._segments(model, branches)
    n = len(segs.arc)
    assert n == sum(len(b.points) - 1 for b in branches)
    # each segment runs from its traced point to the next
    P = np.concatenate([b.points for b in branches])
    H0, D0 = geo._hermite(segs.coef, np.zeros(n))
    H1, D1 = geo._hermite(segs.coef, np.ones(n))
    assert np.array_equal(H0, P[segs.start])
    np.testing.assert_allclose(H1, P[segs.start + 1], rtol=0.0, atol=1e-15)
    # end derivatives are the chord length times a unit tangent of
    # {e = 0}: normal to grad e, or at a saddle along one branch
    h = np.hypot(*(P[segs.start + 1] - P[segs.start]).T)
    for D, end in ((D0, 0), (D1, 1)):
        np.testing.assert_allclose(np.hypot(D[:, 0], D[:, 1]), h, rtol=1e-14)
        g = gradient(model, P[segs.start + end])
        assert np.all(np.abs(np.sum(g * D, axis=1)) <= 1e-14 * h)
    # C1 across each interior point
    inner = segs.start[1:] == segs.start[:-1] + 1
    u0 = D0[1:] / h[1:, None]
    u1 = D1[:-1] / h[:-1, None]
    np.testing.assert_allclose(u0[inner], u1[inner], rtol=0.0, atol=1e-14)
    # arclength between the chord and the control polygon, and the curve
    # within the measured 2.3e-8 of {e = 0} (3.1e-9 at theta = 0.3)
    assert np.all(h <= segs.length * (1.0 + 1e-15))
    assert np.all(segs.length <= segs.arc * (1.0 + 1e-15))
    assert np.all(segs.quad_err <= 1e-12 * segs.length)
    assert np.max(segs.dist) <= (3e-8 if model.theta == 0.8 else 3.1e-9)
    # the screening groups tile the segments, one branch each
    g = segs.groups
    assert g[0] == 0 and g[-1] == n and np.all(np.diff(g) >= 1)
    assert np.all(np.diff(g) <= geo._GROUP)
    starts = np.cumsum([0] + [len(b.points) - 1 for b in branches])
    assert set(starts[:-1]) <= set(g)


@pytest.mark.parametrize("step", [math.nan, math.inf, 0.0])
def test_trace_rejects_bad_step(step):
    m = DispersionModel.hubbard(0.3, 0.0)
    with pytest.raises(ValueError, match="^step must"):
        trace_fermi_curve(m, step=step)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, 0.0, -1e-3])
def test_overlap_length_rejects_bad_threshold(threshold):
    m = DispersionModel.hubbard(0.3, -1.0)
    curve = trace_fermi_curve(m, step=0.01)[0]
    with pytest.raises(ValueError):
        overlap_lengths(m, [curve], np.zeros((1, 2)), [threshold])


@pytest.mark.parametrize(
    "p", [0.5, [0.5], [0.1, 0.2, 0.3], [[0.1, 0.2, 0.3]], np.zeros((0, 2))])
def test_overlap_length_rejects_p_not_a_2_vector(p):
    # ps must be a nonempty (m, 2) array of momenta
    m = DispersionModel.hubbard(0.3, -1.0)
    curve = trace_fermi_curve(m, step=0.01)[0]
    with pytest.raises(ValueError):
        overlap_lengths(m, [curve], p, [1e-3])


def test_overlap_at_zero_momentum_is_full_length():
    m = DispersionModel.hubbard(0.3, -1.0)
    curve = trace_fermi_curve(m, step=0.01)[0]
    length, error = _overlap(m, [curve], np.zeros(2), 1.0)
    # the arclength of the Hermite curve exceeds its chords' and meets
    # that of a fine polyline within the error plus its chord deficit
    fine = trace_fermi_curve(m, step=2.0 ** -14)[0]
    assert length > curve.total_length
    assert length == pytest.approx(fine.total_length, abs=error + 1e-9)


def test_overlap_flat_branch_fully_flagged():
    # on the xy model a translation along a flat branch keeps that branch
    # on the level set at every threshold (a nested direction), while the
    # overlap of a generic translation shrinks with the threshold
    m = DispersionModel.xy()
    branches = trace_fermi_curve(m, step=0.01)
    plus_x = [
        b
        for b in branches
        if np.all(np.abs(b.points[:, 1]) < 1e-9) and np.all(b.points[:, 0] >= 0)
    ]
    assert len(plus_x) == 1
    b = plus_x[0]
    generic = []
    for T in 2.0 ** np.arange(-5.0, -9.0, -1.0):
        L, _ = _overlap(m, [b], [0.5, 0.0], T)
        assert L == pytest.approx(b.total_length, rel=1e-12)
        generic.append(_overlap(m, branches, [0.3, 0.4], T)[0])
    assert generic[-1] > 0.0
    assert np.all(np.diff(generic) < 0.0)


def test_overlap_linear_interpolation_exact():
    # along the +x half-axis, e((x,0) + (0,0.5)) = 0.5 x is linear in
    # arclength, so the crossing interpolation is exact
    m = DispersionModel.xy()
    branches = trace_fermi_curve(m, step=0.01)
    b = [
        c
        for c in branches
        if np.all(np.abs(c.points[:, 1]) < 1e-9) and np.all(c.points[:, 0] >= 0)
    ][0]
    T = 0.1
    L, _ = _overlap(m, [b], [0.0, 0.5], T)
    x_lo = float(np.min(b.points[:, 0]))
    assert L == pytest.approx(T / 0.5 - x_lo, abs=1e-9)


def test_overlap_bound_on_momentum_ring():
    # random translations of magnitude 0.2 at threshold 2^-10: the
    # (M^j/delta)^(1/4) bound holds for >= 99% of momenta outside the
    # exceptional set, which consists of the tangency cones around the
    # four curve-arm directions at the saddles (translating the curve
    # along its own asymptote keeps it close to itself)
    m = DispersionModel.hubbard(0.3, 0.0)
    branches = trace_fermi_curve(m, step=0.01)
    arm_dirs = []
    for s in find_singular_points(m):
        A = _isotropic_frame(s)
        for c in (0, 1):
            arm_dirs.append(math.atan2(A[1, c], A[0, c]) % math.pi)

    def in_cone(angle, half_width=0.25):
        a = angle % math.pi
        return any(
            min(abs(a - d), math.pi - abs(a - d)) < half_width for d in arm_dirs
        )

    rng = np.random.default_rng(11)
    angles = rng.uniform(0.0, 2 * math.pi, size=200)
    ps = 0.2 * np.column_stack([np.cos(angles), np.sin(angles)])
    bound = (2.0 ** -10 / 0.1) ** 0.25
    lengths, _ = overlap_lengths(m, branches, ps, [2.0 ** -10])
    outside = 0
    outside_ok = 0
    for alpha, L in zip(angles, lengths[:, 0]):
        if L > bound:
            # every violator must sit in a tangency cone
            assert in_cone(alpha), (alpha, L)
        if not in_cone(alpha):
            outside += 1
            if L <= bound:
                outside_ok += 1
    assert outside >= 80  # enough draws land outside the cones
    assert outside_ok / outside >= 0.99


def test_scaling_experiment_report_shape_and_monotonicity():
    m = DispersionModel.hubbard(0.3, 0.0)
    rep = overlap_scaling_experiment(
        m, M=2.0, j_range=range(-8, -4), num_p=60, delta=0.1, rng_seed=1
    )
    assert rep.n0 == 4
    assert rep.j_values == (-5, -6, -7, -8)
    assert rep.measured_lengths.shape == (60, 4)
    assert np.all(rep.measured_lengths >= 0.0)
    # thresholds shrink along the j axis, so lengths cannot grow
    assert np.all(np.diff(rep.measured_lengths, axis=1) <= 1e-12)
    assert rep.fitted_exponent is not None
    assert rep.fitted_exponent == pytest.approx(rep.fitted_exponent_minus, abs=1e-6)
    assert np.all((rep.length_errors >= 0.0) & (rep.length_errors < 1e-6))
    rows = list(rep.rows())
    assert len(rows) == 60 * 4
    assert all(len(r) == 7 for r in rows)


def test_scaling_experiment_deterministic():
    m = DispersionModel.hubbard(0.3, 0.0)
    kw = dict(M=2.0, j_range=[-5, -6], num_p=20, delta=0.1, rng_seed=9)
    a = overlap_scaling_experiment(m, **kw)
    b = overlap_scaling_experiment(m, **kw)
    assert np.array_equal(a.p_samples, b.p_samples)
    assert np.array_equal(a.measured_lengths, b.measured_lengths)
    assert a.fitted_exponent == b.fitted_exponent


@pytest.mark.parametrize(
    "num_p,delta",
    [(0, 0.1), (5, 0.0), (5, 1.0), (1, 0.99), (1, 0.1), (2, 0.99)],
)
def test_scaling_experiment_rejects_inputs_that_leave_no_sample(num_p, delta):
    # num_p < 1, delta outside (0, 1), or ceil(delta^2 num_p) >= num_p:
    # the envelope fit would drop every momentum
    m = DispersionModel.hubbard(0.3, 0.0)
    with pytest.raises(ValueError):
        overlap_scaling_experiment(
            m, M=2.0, j_range=[-5, -6], num_p=num_p, delta=delta, rng_seed=0
        )


@pytest.mark.parametrize(
    "M,j_range", [(1e300, [-1, -2]), (2.0, [-5, -1075]), (2.0, [-1, -1100])]
)
def test_scaling_experiment_rejects_underflowing_threshold(M, j_range):
    # M^min j rounds to 0.0
    m = DispersionModel.hubbard(0.3, 0.0)
    msg = re.escape(f"threshold M^j for M = {M}, j = {min(j_range)} rounds to 0")
    with pytest.raises(ValueError, match=msg):
        overlap_scaling_experiment(
            m, M=M, j_range=j_range, num_p=5, delta=0.1, rng_seed=0
        )


@pytest.mark.parametrize("j_range", [[-0.5], [-5.7, -6]])
def test_scaling_experiment_rejects_non_integer_exponents(j_range):
    # int() would truncate them toward zero, to j = 0 and j = -5
    m = DispersionModel.hubbard(0.3, 0.0)
    with pytest.raises(ValueError, match="negative integers"):
        overlap_scaling_experiment(
            m, M=2.0, j_range=j_range, num_p=5, delta=0.1, rng_seed=0
        )


def test_scaling_experiment_single_threshold_no_fit():
    m = DispersionModel.hubbard(0.3, 0.0)
    rep = overlap_scaling_experiment(
        m, M=2.0, j_range=[-6], num_p=10, delta=0.1, rng_seed=3
    )
    assert rep.fitted_exponent is None
    assert rep.measured_lengths.shape == (10, 1)


def test_scaling_experiment_runs_subnormal_threshold():
    # a threshold only has to be positive: 2^-1050 runs at the fixed step,
    # and its lengths are zero within their errors
    m = DispersionModel.hubbard(0.3, 0.0)
    rep = overlap_scaling_experiment(
        m, M=2.0, j_range=[-1, -1050], num_p=10, delta=0.1, rng_seed=3
    )
    assert rep.step == 0.01
    assert np.all(rep.measured_lengths[:, 1] <= rep.length_errors[:, 1])
    assert np.all(np.isfinite(rep.length_errors))


def test_envelope_fit_at_deep_thresholds():
    # the trace step no longer floors the envelope: down to 2^-20 it keeps
    # falling, from criterion 9's 2^-0.75 per j to the 2^-1 of transversal
    # crossings, whose length is proportional to the threshold
    m = DispersionModel.hubbard(0.3, 0.0)
    kw = dict(M=2.0, num_p=500, delta=0.1, rng_seed=42)
    shallow = overlap_scaling_experiment(m, j_range=range(-6, -13, -1), **kw)
    deep = overlap_scaling_experiment(m, j_range=range(-6, -21, -1), **kw)
    drop = math.ceil(0.1 ** 2 * 500)
    env = np.sort(deep.measured_lengths, axis=0)[500 - 1 - drop]
    assert env[-1] < 1e-3
    np.testing.assert_allclose(np.diff(np.log2(env[-4:])), -1.0, atol=1e-3)
    x = np.array(deep.j_values) * math.log(2.0)
    assert deep.fitted_exponent == pytest.approx(np.polyfit(x, np.log(env), 1)[0])
    assert shallow.fitted_exponent < deep.fitted_exponent < 1.0


def test_interval_lemma_linear_exact():
    res = interval_lemma_check(Polynomial([0.0, 1.0]), k=1, eta=1.0, eps=0.1)
    assert res.measured_volume == pytest.approx(0.2, rel=1e-14)
    assert res.bound == pytest.approx(0.4)
    assert res.holds


def test_interval_lemma_quadratic_exact():
    res = interval_lemma_check(Polynomial([0.0, 0.0, 1.0]), k=2, eta=2.0, eps=0.01)
    assert res.measured_volume == pytest.approx(0.2, rel=1e-14)
    assert res.bound == pytest.approx(8.0 * math.sqrt(0.005))
    assert res.holds


@pytest.mark.parametrize(
    "f,k,eta,volume,eps_values",
    [
        (Polynomial([0.0, 1.0]), 1, 1.0, lambda e: 2.0 * e,
         [0.1, 1e-3, 1e-6, 1e-9]),
        (Polynomial([0.0, 0.0, 3.7]), 2, 7.4, lambda e: 2.0 * math.sqrt(e / 3.7),
         [0.1, 1e-3, 1e-6, 1e-9]),
        (Polynomial([0.0, 0.0, 0.0, 1.0]), 3, 6.0, lambda e: 2.0 * e ** (1 / 3),
         [0.1, 1e-3, 1e-6, 1e-9]),
        # shifted: rounding the constant term of f -/+ eps moves the roots
        # by about 1e-16 |c0| / |f'|, below 1e-14 of the measure at these eps
        (Polynomial([0.25, -2.0, 4.0]), 2, 8.0, math.sqrt, [0.1, 1e-2, 1e-3]),
        (Polynomial([0.125, -1.5, 6.0, -8.0]), 3, 48.0,
         lambda e: 2.0 * (e / 8.0) ** (1 / 3), [0.1, 1e-2, 1e-3]),
    ],
    ids=["x", "3.7 x^2", "x^3", "4 (x - 1/4)^2", "-8 (x - 1/4)^3"],
)
def test_interval_lemma_measure_closed_forms(f, k, eta, volume, eps_values):
    for eps in eps_values:
        res = interval_lemma_check(f, k, eta, eps)
        assert res.measured_volume == pytest.approx(volume(eps), rel=1e-14)


def test_interval_lemma_random_cubics():
    rng = np.random.default_rng(5)
    for _ in range(100):
        a3 = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0)
        a2, a1, a0 = rng.uniform(-1.0, 1.0, size=3)
        eta = 6.0 * abs(a3) * 0.999
        eps = rng.uniform(1e-4, 0.05)
        res = interval_lemma_check(Polynomial([a0, a1, a2, a3]), k=3, eta=eta,
                                   eps=eps)
        assert res.holds


def test_interval_lemma_hypothesis_violated():
    with pytest.raises(HypothesisViolated):
        interval_lemma_check(Polynomial([0.0, 0.0, 0.0, 1.0]), k=2, eta=0.1, eps=0.01)


def test_interval_lemma_hypothesis_checked_at_its_minimum():
    # f' = 2x vanishes at x = 0 alone, between the points of a stencil
    with pytest.raises(HypothesisViolated):
        interval_lemma_check(Polynomial([0.0, 0.0, 1.0]), k=1, eta=9e-4, eps=1e-6)
    # |f'| is least, at 1, at a critical point of f' (f' = 1 + u^2 + u^3/2,
    # u = x - 1/2, at x = 1/2, which no root of f' has as its real part)
    # or at an end (f' = 2 + x, at -1)
    for coef in ([0.0, 1.1875, -0.3125, 0.25 / 3.0, 0.125], [0.0, 2.0, 0.5]):
        f = Polynomial(coef)
        assert interval_lemma_check(f, k=1, eta=1.0, eps=1e-3).holds
        with pytest.raises(HypothesisViolated):
            interval_lemma_check(f, k=1, eta=1.0 + 1e-6, eps=1e-3)


def test_interval_lemma_validation():
    line = Polynomial([0.0, 1.0])
    with pytest.raises(ValueError):
        interval_lemma_check(line, k=0, eta=1.0, eps=0.1)
    with pytest.raises(ValueError):
        interval_lemma_check(line, k=1, eta=-1.0, eps=0.1)
    with pytest.raises(TypeError):
        interval_lemma_check(line, k=1, eta=1.0, eps=0.1, grid=1000)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="eta must be positive and finite"):
            interval_lemma_check(line, k=1, eta=bad, eps=0.1)
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            interval_lemma_check(line, k=1, eta=1.0, eps=bad)
    with pytest.raises(ValueError, match="k must be a positive integer"):
        interval_lemma_check(line, k=1.5, eta=1.0, eps=0.1)
    # the roots come from the coefficients: only a plain real polynomial
    not_polys = [
        lambda x: x,
        Polynomial([0.0, 1.0], domain=[0.0, 1.0]),
        Polynomial([0.0, 1.0], window=[0.0, 1.0]),
        Polynomial([0.0, 1.0j]),
        np.polynomial.Chebyshev([0.0, 1.0]),
        # a NaN would fail every comparison and pass as a hypothesis
        Polynomial([math.nan, 1.0]),
        Polynomial([math.inf, 1.0]),
        Polynomial([0.0, math.nan]),
    ]
    for f in not_polys:
        with pytest.raises(ValueError, match="numpy Polynomial"):
            interval_lemma_check(f, k=1, eta=0.5, eps=0.1)


def _assert_one_pass_count(f, k, eta, eps, grid=200_001):
    """The measure against the count of points of np.linspace(-1, 1, grid)
    with |f| <= eps, times the spacing h: each of the at most deg f
    intervals of the set holds its length / h points, give or take one,
    and 2 deg f roots of f -/+ eps cut [-1, 1].  f is evaluated by
    Horner's rule in place, in cache-sized chunks."""
    x = np.linspace(-1.0, 1.0, grid)
    h = 2.0 / (grid - 1)
    count = 0
    for lo in range(0, grid, 1 << 15):
        xs = x[lo:lo + (1 << 15)]
        y = np.full_like(xs, f.coef[-1])
        for c in f.coef[-2::-1]:
            y *= xs
            y += c
        count += np.count_nonzero(np.abs(y) <= eps)
    res = interval_lemma_check(f, k, eta, eps)
    assert abs(res.measured_volume - count * h) <= 2 * f.degree() * h
    return res


# The sublevel-set edge cases below keep the names they had when the
# measure was a grid count behind a block prefilter; a grid size now sets
# the spacing of the one-pass count the exact measure is checked against.


@pytest.mark.parametrize("grid", [100_000, 5_000, 300])
@pytest.mark.parametrize("where", ["grid point", "block middle"])
@pytest.mark.parametrize("sign", [+1.0, -1.0])
def test_sublevel_prefilter_tangent_to_eps(grid, where, sign):
    # f = sign (eps - (x - x0)^2) touches +eps (sign +1) or -eps (sign -1)
    # at x0 from inside {|f| <= eps}, which is |x - x0| <= sqrt(2 eps), and
    # sign (eps + (x - x0)^2) from outside, where the set is {x0} alone.
    # x0 is a point of the count's grid or the middle between two.  The
    # double root of f -/+ eps at x0 splits by about sqrt(1e-16 |c0|), and
    # the piece between may be lost or kept
    x = np.linspace(-1.0, 1.0, grid)
    i0 = 2 * grid // 3
    x0 = float(x[i0] if where == "grid point" else 0.5 * (x[i0] + x[i0 + 1]))
    for eps in (0.02, 1e-3, 3e-9):
        f = sign * Polynomial([eps - x0 * x0, 2.0 * x0, -1.0])
        res = _assert_one_pass_count(f, 2, 1.999, eps, grid)
        assert res.measured_volume == pytest.approx(2.0 * math.sqrt(2.0 * eps),
                                                    rel=1e-12, abs=1e-7)
        f = sign * Polynomial([eps + x0 * x0, -2.0 * x0, 1.0])
        res = _assert_one_pass_count(f, 2, 1.999, eps, grid)
        assert res.measured_volume <= 1e-7


@pytest.mark.parametrize("sign", [+1.0, -1.0])
def test_sublevel_prefilter_constant_at_eps(sign):
    # a constant f, with or without trailing zero coefficients, has
    # f^(k) = 0 for every k, however near eps it lies
    eps = 0.1
    for c in (eps, np.nextafter(eps, 1.0), np.nextafter(eps, 0.0), 0.05):
        for f in (Polynomial([sign * c]), Polynomial([sign * c, 0.0, 0.0])):
            for k in (1, 2, 3):
                with pytest.raises(HypothesisViolated):
                    interval_lemma_check(f, k=k, eta=1e-3, eps=eps)


@pytest.mark.parametrize("grid", [2, 7, 1023, 1024, 3077, 123_457])
def test_sublevel_prefilter_partial_blocks(grid):
    # trailing zero coefficients change neither the roots nor the measure
    f = Polynomial([0.01, -0.3, 0.0, 1.0])
    padded = Polynomial([0.01, -0.3, 0.0, 1.0, 0.0, 0.0])
    for eps in (1e-4, 0.02, 10.0):
        res = _assert_one_pass_count(f, 3, 5.99, eps, grid)
        assert interval_lemma_check(padded, 3, 5.99, eps) == res


def test_interval_lemma_measure_with_negligible_leading_coefficient():
    # 0.5 + x + c2 x^2 has a root near -1 / c2, which swamps the companion
    # matrix; the root near -0.5 -/+ eps comes from the reversed polynomial
    for c2 in (1e-10, 1e-14, 1e-20, 1e-300):
        f = Polynomial([0.5, 1.0, c2])
        res = _assert_one_pass_count(f, 1, 0.5, 0.1)
        assert res.measured_volume == pytest.approx(0.2, abs=1e-10)
    # 1 / 1e-320 overflows; 1 + 1e-320 x stays above 0.1 on [-1, 1]
    res = interval_lemma_check(Polynomial([1.0, 1e-320]), 1, 1e-321, 0.1)
    assert res.measured_volume == 0.0


@pytest.mark.parametrize("degree", range(6))
@pytest.mark.parametrize("sign", [+1.0, -1.0])
def test_sublevel_prefilter_degrees(degree, sign):
    rng = np.random.default_rng(degree)
    for _ in range(20):
        coef = rng.uniform(-1.0, 1.0, size=degree + 1)
        coef[-1] = sign * rng.uniform(0.2, 2.0)
        eps = 10.0 ** rng.uniform(-4.0, 0.0)
        if degree == 0:
            with pytest.raises(HypothesisViolated):
                interval_lemma_check(Polynomial(coef), 1, 1e-3, eps)
            continue
        eta = 0.5 * math.factorial(degree) * abs(coef[-1])
        _assert_one_pass_count(Polynomial(coef), degree, eta, eps)


@pytest.mark.parametrize(
    "grid", [1000, 16_384, 16_385, 123_457, 200_000, 2_000_001]
)
def test_interval_lemma_blocked_count_matches_one_pass_mean(grid):
    # the criterion-10 corpus
    from vanhove_lab.cli import _interval_corpus

    for _, k, eta, eps, f in _interval_corpus(seed=0, per_k=100):
        _assert_one_pass_count(f, k, eta, eps, grid)
