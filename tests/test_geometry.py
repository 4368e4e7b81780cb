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
    overlap_length,
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
        self.periodic = model.periodic
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
            if model.periodic:
                d = _ref_torus_delta(d)
            if float(np.min(np.hypot(d[:, 0], d[:, 1]))) < 0.75 * step:
                return True
        return False

    for seed in seeds:
        if any(float(np.hypot(*_ref_delta(seed, s, model.periodic))) < m.stop_r
               for s in sing_locs):
            continue
        if not _ref_inside(model.domain, seed) and not model.periodic:
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
            assert any(_same_ends(x, y, model.periodic) for y in others)
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


def _ref_flagged_length(vals, segs, threshold):
    """The per-threshold flagging kernel the batched one replaced."""
    a, b = vals[:-1], vals[1:]
    fa = a <= threshold
    fb = b <= threshold
    frac = np.zeros_like(segs)
    frac[fa & fb] = 1.0
    out = fa & ~fb
    frac[out] = (threshold - a[out]) / (b[out] - a[out])
    into = ~fa & fb
    frac[into] = (threshold - b[into]) / (a[into] - b[into])
    return float(np.sum(frac * segs))


def _candidates(vals, segs, thresholds):
    """End values and lengths of the segments with min(a, b) <= max(T),
    in curve order: the set ``_flagged_lengths`` expects."""
    a, b = vals[:-1], vals[1:]
    idx = np.flatnonzero(np.minimum(a, b) <= thresholds.max())
    return a[idx], b[idx], segs[idx]


def _ref_flagged_lengths(vals, segs, thresholds):
    """The unfiltered flagging of a whole branch that the chunk
    prefilter replaced, kept as the bit-identity reference."""
    a, b, segs = _candidates(vals, segs, thresholds)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    width = np.where(hi > lo, hi - lo, np.inf)
    T = thresholds[:, None]
    frac = np.where(hi <= T, 1.0, np.maximum(T - lo, 0.0) / width)
    return np.sum(frac * segs, axis=1)


def _ref_overlap_lengths(model, branches, p, sign, thresholds):
    """The unfiltered per-branch loop: evaluate every curve point."""
    out = np.zeros(len(thresholds))
    for b in branches:
        k = p + b.points if sign > 0 else p - b.points
        vals = np.abs(evaluate(model, k))
        out += _ref_flagged_lengths(vals, b.segment_lengths(), thresholds)
    return out


def _hubbard_flag_curves():
    """(model, branch, p, sign, thresholds): 80 translated hubbard curves."""
    m = DispersionModel.hubbard(0.3, 0.0)
    T = 2.0 ** np.arange(-6.0, -13.0, -1.0)
    rng = np.random.default_rng(2)
    rng.uniform(0.5, 1.5, size=10)  # the draws of the hand case
    for b in trace_fermi_curve(m, step=2.0 ** -9):
        for p in rng.uniform(-math.pi, math.pi, size=(10, 2)):
            for sign in (+1, -1):
                yield m, b, p, sign, T


def _flag_cases():
    T = np.array([0.25, 0.01, 0.002])
    # pairs: both in (0.001, 0.002 at 0.01), leaving (0.002 -> 0.5),
    # entering (0.5 -> 0.003), a == b inside (0.003, 0.003), leaving
    # (-> 0.7), a == b outside (0.7, 0.7), ends exactly on a threshold
    # (0.25 and 0.002), both out (0.7 -> 0.3)
    hand = np.array([0.001, 0.002, 0.5, 0.003, 0.003, 0.7, 0.7, 0.25, 0.002,
                     0.7, 0.3])
    rng = np.random.default_rng(2)
    segs = rng.uniform(0.5, 1.5, size=len(hand) - 1)
    yield hand, segs, T
    yield np.full(6, 0.6), np.ones(5), T  # no candidate segment
    yield np.zeros(4), np.ones(3), T  # a == b == 0 everywhere
    for m, b, p, sign, T in _hubbard_flag_curves():
        vals = np.abs(evaluate(m, p[None, :] + sign * b.points))
        yield vals, b.segment_lengths(), T


def test_flagged_lengths_match_per_threshold_reference():
    n_cases = 0
    for vals, segs, T in _flag_cases():
        got = geo._flagged_lengths(*_candidates(vals, segs, T), T)
        ref = np.array([_ref_flagged_length(vals, segs, t) for t in T])
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0.0)
        n_cases += 1
    assert n_cases == 3 + 4 * 10 * 2


def test_flagged_lengths_on_threshold_and_empty():
    vals, segs, T = next(_flag_cases())
    # at T = 0.002 only the pair (0.001, 0.002) counts, fully; the three
    # pairs with 0.002 as their lower end contribute a zero fraction
    assert geo._flagged_lengths(*_candidates(vals, segs, T), T)[2] == segs[0]
    empty = _candidates(np.full(6, 0.6), np.ones(5), T)
    assert np.array_equal(geo._flagged_lengths(*empty, T), np.zeros(3))


class _CountingEvaluate:
    """Stands in for ``geometry.evaluate``; counts its calls and points."""

    def __init__(self):
        self.calls = 0
        self.points = 0

    def __call__(self, model, k):
        self.calls += 1
        self.points += np.size(k) // 2
        return evaluate(model, k)


def _prefiltered(model, branches, p, sign, T):
    return geo._overlap_lengths(model, geo._chunk_branches(branches), p,
                                (sign,), T)[0]


def test_prefilter_matches_unfiltered_loop_on_hubbard_curves(monkeypatch):
    # traced before counting: the trace evaluates e too
    cases = list(_hubbard_flag_curves())
    counter = _CountingEvaluate()
    monkeypatch.setattr(geo, "evaluate", counter)
    n_cases = n_points = 0
    for m, b, p, sign, T in cases:
        got = _prefiltered(m, [b], p, sign, T)
        assert np.array_equal(got, _ref_overlap_lengths(m, [b], p, sign, T))
        n_cases += 1
        n_points += len(b.points)
    assert n_cases == 80
    # the bound skips most of the curve
    assert counter.points < 0.25 * n_points


def test_prefilter_matches_unfiltered_loop_on_scaling_run():
    m = DispersionModel.hubbard(0.3, 0.0)
    rep = overlap_scaling_experiment(
        m, M=2.0, j_range=range(-6, -10, -1), num_p=100, delta=0.1, rng_seed=42
    )
    branches = trace_fermi_curve(m, step=rep.step)
    T = np.array([2.0 ** j for j in rep.j_values])
    for ip, p in enumerate(rep.p_samples):
        for sign, lengths in ((+1, rep.measured_lengths),
                              (-1, rep.measured_lengths_minus)):
            ref = _ref_overlap_lengths(m, branches, p, sign, T)
            assert np.array_equal(lengths[ip], ref)


def test_overlap_lengths_match_array_reference_curve():
    # the polyline lengths on the ray construction's curve and on the
    # reference marcher's curve, at the scaling run's step
    m = DispersionModel.hubbard(0.3, 0.0)
    rep = overlap_scaling_experiment(
        m, M=2.0, j_range=range(-6, -10, -1), num_p=100, delta=0.1, rng_seed=42
    )
    branches = trace_fermi_curve(m, step=rep.step)
    ref = [geo.CurveSample(points=p, cumulative_arclength=cum, closed=closed)
           for p, cum, closed in _ref_trace(m, rep.step)]
    T = np.array([2.0 ** j for j in rep.j_values])
    for p in rep.p_samples:
        for sign in (+1, -1):
            got = _ref_overlap_lengths(m, branches, p, sign, T)
            want = _ref_overlap_lengths(m, ref, p, sign, T)
            assert np.all(np.abs(got - want) <= 0.5 * rep.step)


def test_prefilter_matches_unfiltered_loop_on_xy_branches(monkeypatch):
    # the per-chunk bound |grad e| <= |center| + radius
    m = DispersionModel.xy()
    branches = trace_fermi_curve(m, step=2.0 ** -9)
    counter = _CountingEvaluate()
    monkeypatch.setattr(geo, "evaluate", counter)
    T = 2.0 ** np.arange(-4.0, -9.0, -1.0)
    rng = np.random.default_rng(7)
    ps = np.concatenate([rng.uniform(-1.0, 1.0, size=(20, 2)),
                         [[0.5, 0.0], [0.0, -0.3], [0.0, 0.0]]])
    n_points = 0
    for p in ps:
        for sign in (+1, -1):
            got = _prefiltered(m, branches, p, sign, T)
            assert np.array_equal(got, _ref_overlap_lengths(m, branches, p, sign, T))
            n_points += sum(len(b.points) for b in branches)
    assert counter.points < 0.5 * n_points


def test_prefilter_rows_in_several_blocks_match_unfiltered_loop(monkeypatch):
    # a tiny p keeps the whole curve near e = 0 for sign -1, so the kept
    # rows span several evaluation blocks
    m = DispersionModel.hubbard(0.3, 0.0)
    branches = trace_fermi_curve(m, step=2.0 ** -11)
    chunks = geo._chunk_branches(branches)
    counter = _CountingEvaluate()
    monkeypatch.setattr(geo, "evaluate", counter)
    T = 2.0 ** np.arange(-6.0, -12.0, -1.0)
    p = np.array([1e-3, -2e-3])
    got = geo._overlap_lengths(m, chunks, p, (+1, -1), T)
    rows_per_block = geo._BLOCK // (geo._CHUNK + 1)
    assert counter.calls >= 1 + math.ceil(len(chunks.pts) / rows_per_block) >= 4
    for i, sign in enumerate((+1, -1)):
        assert np.array_equal(got[i], _ref_overlap_lengths(m, branches, p, sign, T))


@pytest.mark.parametrize("n", [2, 3, 40, 64, 65, 66, 7 * 64 + 1, 7 * 64 + 2])
def test_prefilter_matches_unfiltered_loop_on_short_and_ragged_branches(n):
    # shorter than one chunk, and 64 k + 1 (k full chunks) or 64 k + 2
    # (a last chunk of one segment) points
    m = DispersionModel.hubbard(0.3, 0.0)
    full = max(trace_fermi_curve(m, step=2.0 ** -9),
               key=lambda b: len(b.points))
    rng = np.random.default_rng(n)
    T = 2.0 ** np.arange(-2.0, -9.0, -1.0)
    n_nonzero = 0
    for start in rng.integers(0, len(full.points) - n, size=20):
        # segment lengths spread over three decades make the sums depend
        # on which segments enter them, padding ones included
        segs = 10.0 ** rng.uniform(-3.0, 0.0, size=n - 1)
        cut = geo.CurveSample(
            points=full.points[start:start + n],
            cumulative_arclength=np.concatenate([[0.0], np.cumsum(segs)]),
        )
        # p = 0 keeps the whole cut on the level set
        for p in (np.zeros(2), rng.uniform(-0.1, 0.1, size=2)):
            for sign in (+1, -1):
                got = _prefiltered(m, [cut], p, sign, T)
                assert np.array_equal(got, _ref_overlap_lengths(m, [cut], p, sign, T))
                n_nonzero += bool(got[0] > 0.0)
                one = _ref_overlap_lengths(m, [cut], p, sign, T[-1:])
                assert overlap_length(m, cut, p, sign, T[-1]) == one[0]
    assert n_nonzero > 0


def test_chunks_cover_each_segment_once_within_their_radius():
    m = DispersionModel.hubbard(0.3, 0.0)
    branches = trace_fermi_curve(m, step=0.01)
    chunks = geo._chunk_branches(branches)
    assert np.array_equal(
        chunks.segs[chunks.valid],
        np.concatenate([b.segment_lengths() for b in branches]),
    )
    d = chunks.pts - chunks.centers[:, None, :]
    assert np.all(np.hypot(d[..., 0], d[..., 1]) <= chunks.radius[:, None])
    # each row starts where the previous row of its branch ended
    same = chunks.branch[1:] == chunks.branch[:-1]
    assert np.array_equal(chunks.pts[1:, 0][same], chunks.pts[:-1, -1][same])


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
        overlap_length(m, curve, np.zeros(2), +1, threshold)


@pytest.mark.parametrize("p", [0.5, [0.5], [0.1, 0.2, 0.3], [[0.1, 0.2]]])
def test_overlap_length_rejects_p_not_a_2_vector(p):
    m = DispersionModel.hubbard(0.3, -1.0)
    curve = trace_fermi_curve(m, step=0.01)[0]
    with pytest.raises(ValueError):
        overlap_length(m, curve, p, +1, 1e-3)


def test_overlap_at_zero_momentum_is_full_length():
    m = DispersionModel.hubbard(0.3, -1.0)
    curve = trace_fermi_curve(m, step=0.01)[0]
    L = overlap_length(m, curve, np.zeros(2), +1, 1.0)
    assert L == curve.total_length


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
        L = overlap_length(m, b, np.array([0.5, 0.0]), +1, T)
        assert L == pytest.approx(b.total_length, rel=1e-12)
        generic.append(
            sum(overlap_length(m, c, np.array([0.3, 0.4]), +1, T) for c in branches)
        )
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
    L = overlap_length(m, b, np.array([0.0, 0.5]), +1, T)
    x_lo = float(np.min(b.points[:, 0]))
    assert L == pytest.approx(T / 0.5 - x_lo, abs=1e-9)


def test_overlap_bound_on_momentum_ring():
    # random translations of magnitude 0.2 at threshold 2^-10: the
    # (M^j/delta)^(1/4) bound holds for >= 99% of momenta outside the
    # exceptional set, which consists of the tangency cones around the
    # four curve-arm directions at the saddles (translating the curve
    # along its own asymptote keeps it close to itself)
    m = DispersionModel.hubbard(0.3, 0.0)
    step = 2.0 ** -10
    branches = trace_fermi_curve(m, step=step)
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
    outside = 0
    outside_ok = 0
    for alpha, p in zip(angles, ps):
        L = sum(
            overlap_length(m, b, p, +1, 2.0 ** -10) for b in branches
        )
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
    assert np.all(np.diff(rep.measured_lengths_minus, axis=1) <= 1e-12)
    assert rep.fitted_exponent is not None
    assert rep.fitted_exponent == pytest.approx(rep.fitted_exponent_minus, abs=1e-6)
    rows = list(rep.rows(+1))
    assert len(rows) == 60 * 4
    assert all(len(r) == 6 for r in rows)


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
    "M,j_range", [(1e300, [-1, -2]), (2.0, [-5, -1075]), (2.0, [-1023])]
)
def test_scaling_experiment_rejects_underflowing_threshold(M, j_range):
    # M^min j is 0.0 or subnormal, and so would the derived trace step be
    m = DispersionModel.hubbard(0.3, 0.0)
    msg = re.escape(f"threshold M^j for M = {M}, j = {min(j_range)} underflows")
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


def test_interval_lemma_linear_exact():
    res = interval_lemma_check(Polynomial([0.0, 1.0]), k=1, eta=1.0, eps=0.1)
    assert res.measured_volume == pytest.approx(0.2, abs=1e-5)
    assert res.bound == pytest.approx(0.4)
    assert res.holds


def test_interval_lemma_quadratic_exact():
    res = interval_lemma_check(Polynomial([0.0, 0.0, 1.0]), k=2, eta=2.0, eps=0.01)
    assert res.measured_volume == pytest.approx(0.2, abs=1e-5)
    assert res.bound == pytest.approx(8.0 * math.sqrt(0.005))
    assert res.holds


def test_interval_lemma_random_cubics():
    rng = np.random.default_rng(5)
    for _ in range(100):
        a3 = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0)
        a2, a1, a0 = rng.uniform(-1.0, 1.0, size=3)
        eta = 6.0 * abs(a3) * 0.999
        eps = rng.uniform(1e-4, 0.05)
        res = interval_lemma_check(
            Polynomial([a0, a1, a2, a3]),
            k=3,
            eta=eta,
            eps=eps,
            grid=100_000,
        )
        assert res.holds


def test_interval_lemma_hypothesis_violated():
    with pytest.raises(HypothesisViolated):
        interval_lemma_check(Polynomial([0.0, 0.0, 0.0, 1.0]), k=2, eta=0.1, eps=0.01)


def test_interval_lemma_validation():
    line = Polynomial([0.0, 1.0])
    with pytest.raises(ValueError):
        interval_lemma_check(line, k=0, eta=1.0, eps=0.1)
    with pytest.raises(ValueError):
        interval_lemma_check(line, k=1, eta=-1.0, eps=0.1)
    for grid in (-1, 0, 1):
        with pytest.raises(ValueError):
            interval_lemma_check(line, k=1, eta=1.0, eps=0.1, grid=grid)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="eta must be positive and finite"):
            interval_lemma_check(line, k=1, eta=bad, eps=0.1)
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            interval_lemma_check(line, k=1, eta=1.0, eps=bad)
    with pytest.raises(ValueError, match="k must be a positive integer"):
        interval_lemma_check(line, k=1.5, eta=1.0, eps=0.1)
    # the prefilter reads the coefficients: only a plain real polynomial
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


def _assert_blocked_count_is_one_pass(f, eps, grid):
    """The prefiltered count equals one pass over the grid, and so does
    the checked volume where f meets the lemma's hypothesis (which needs
    finite coefficients)."""
    x = np.linspace(-1.0, 1.0, grid)
    one_pass = np.abs(f(x)) <= eps
    assert geo._sublevel_count(f, eps, grid) == np.count_nonzero(one_pass)
    k = f.degree()
    if 1 <= k <= 3 and np.all(np.isfinite(f.coef)):
        eta = 0.5 * math.factorial(k) * abs(f.coef[-1])
        res = interval_lemma_check(f, k, eta, eps, grid=grid)
        assert res.measured_volume == float(np.mean(one_pass) * 2.0)


@pytest.mark.parametrize("grid", [2, 1025, 1_000_000, 1_000_003])
def test_grid_points_are_linspace_bits(grid):
    # every block, block middle and block end the prefilter forms is the
    # matching part of the linspace it stands in for
    x = np.linspace(-1.0, 1.0, grid)
    start = np.arange(0, grid, geo._GRID_BLOCK)
    end = np.minimum(start + geo._GRID_BLOCK, grid) - 1
    mid = (start + end) // 2
    for i in (start, mid, end):
        assert np.array_equal(geo._grid_points(i, grid), x[i])
    for s, e in zip(start, end):
        assert np.array_equal(geo._grid_points(np.arange(s, e + 1), grid),
                              x[s:e + 1])


@pytest.mark.parametrize("grid", [100_000, 5_000, 300])
@pytest.mark.parametrize("where", ["grid point", "block middle"])
@pytest.mark.parametrize("sign", [+1.0, -1.0])
def test_sublevel_prefilter_tangent_to_eps(grid, where, sign):
    # |f| = eps + (x - x0)^2 touches eps at x0: a block's middle point,
    # or the grid point after it
    x = np.linspace(-1.0, 1.0, grid)
    start = geo._GRID_BLOCK * (len(range(0, grid, geo._GRID_BLOCK)) // 2)
    end = min(start + geo._GRID_BLOCK, grid) - 1
    i0 = (start + end) // 2 + (where == "grid point")
    x0 = float(x[i0])
    for eps in (1e-3, 0.25, 3.0e-9):
        f = sign * Polynomial([eps + x0 * x0, -2.0 * x0, 1.0])
        _assert_blocked_count_is_one_pass(f, eps, grid)


@pytest.mark.parametrize("sign", [+1.0, -1.0])
def test_sublevel_prefilter_constant_at_eps(sign):
    eps = 0.1
    for c in (eps, np.nextafter(eps, 1.0), np.nextafter(eps, 0.0)):
        f = Polynomial([sign * c])
        for grid in (2, 1000, 4096, 5000):
            _assert_blocked_count_is_one_pass(f, eps, grid)
            assert geo._sublevel_count(f, eps, grid) \
                == (grid if c <= eps else 0)


def test_sublevel_prefilter_rounding_alone_crosses_eps():
    # f = 1 + c1 x with c1 x = 2^-53 (1 + 1e-9) at a block middle xm:
    # f(xm) rounds up to 1 + 2^-52, while f at the grid point below xm
    # rounds down to 1 = eps.  The slope bound c1 r is far below one ulp,
    # so only the rounding allowance keeps this block for evaluation.
    grid = 100_000
    x = np.linspace(-1.0, 1.0, grid)
    start = geo._GRID_BLOCK * (3 * grid // (4 * geo._GRID_BLOCK))
    xm = float(x[start + (geo._GRID_BLOCK - 1) // 2])
    f = Polynomial([1.0, 2.0 ** -53 * (1.0 + 1e-9) / xm])
    assert f(xm) > 1.0
    one_pass = np.count_nonzero(np.abs(f(x)) <= 1.0)
    assert 0 < one_pass < grid
    assert geo._sublevel_count(f, 1.0, grid) == one_pass


@pytest.mark.parametrize(
    "grid", [2, 7, geo._GRID_BLOCK - 1, geo._GRID_BLOCK, 3 * geo._GRID_BLOCK + 5,
             123_457]
)
def test_sublevel_prefilter_partial_blocks(grid):
    f = Polynomial([0.01, -0.3, 0.0, 1.0])
    for eps in (1e-4, 0.02, 10.0):
        _assert_blocked_count_is_one_pass(f, eps, grid)


def test_sublevel_prefilter_nan_coefficient_keeps_every_block():
    for coef in ([math.nan, 1.0], [0.0, math.nan], [0.1, 1.0, math.nan],
                 [0.0, math.inf, 1.0]):
        with np.errstate(invalid="ignore"):
            _assert_blocked_count_is_one_pass(Polynomial(coef), 0.05, 10_000)


@pytest.mark.parametrize("degree", range(6))
@pytest.mark.parametrize("sign", [+1.0, -1.0])
def test_sublevel_prefilter_degrees(degree, sign):
    rng = np.random.default_rng(degree)
    for _ in range(20):
        coef = rng.uniform(-1.0, 1.0, size=degree + 1)
        coef[-1] = sign * rng.uniform(0.2, 2.0)
        eps = 10.0 ** rng.uniform(-4.0, 0.0)
        _assert_blocked_count_is_one_pass(Polynomial(coef), eps, 50_000)


class _CountedPolynomial(Polynomial):
    points = 0  # grid points this class was called on

    def __call__(self, arg):
        type(self).points += np.size(arg)
        return super().__call__(arg)


def test_interval_lemma_evaluates_few_grid_points():
    # a return to evaluating the whole grid fails here
    from vanhove_lab.cli import _interval_corpus

    grid = 200_000
    corpus = _interval_corpus(seed=0, per_k=100)
    _CountedPolynomial.points = 0
    for _, k, eta, eps, f in corpus:
        g = _CountedPolynomial(f.coef)
        assert interval_lemma_check(g, k, eta, eps, grid=grid) \
            == interval_lemma_check(f, k, eta, eps, grid=grid)
    assert _CountedPolynomial.points < 0.05 * grid * len(corpus)


@pytest.mark.parametrize("grid", [1000, 16_384, 16_385, 123_457, 200_000])
def test_interval_lemma_blocked_count_matches_one_pass_mean(grid):
    # the criterion-10 corpus; blocks of 16,384 points
    from vanhove_lab.cli import _interval_corpus

    x = np.linspace(-1.0, 1.0, grid)
    for _, k, eta, eps, f in _interval_corpus(seed=0, per_k=100):
        one_pass = float(np.mean(np.abs(f(x)) <= eps) * 2.0)
        assert interval_lemma_check(f, k, eta, eps, grid=grid).measured_volume \
            == one_pass
