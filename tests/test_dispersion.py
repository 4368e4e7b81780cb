"""Dispersion models, saddle detection, and the Morse factorization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanhove_lab.dispersion import (
    DispersionModel,
    SingularPoint,
    evaluate,
    find_singular_points,
    gradient,
    hessian,
    morse_normal_form,
)
from vanhove_lab.errors import FactorizationFailed, FlatBranch


def test_hubbard_point_values():
    m = DispersionModel.hubbard(theta=0.3, mu=0.0)
    assert evaluate(m, np.array([math.pi, 0.0])) == pytest.approx(0.0, abs=1e-15)
    assert evaluate(m, np.array([0.0, 0.0])) == pytest.approx(-1.4, abs=1e-15)


def test_xy_point_value():
    m = DispersionModel.xy()
    assert evaluate(m, np.array([0.5, -0.2])) == pytest.approx(-0.1, abs=1e-15)


def test_hubbard_theta_validation():
    with pytest.raises(ValueError):
        DispersionModel.hubbard(theta=1.0)
    with pytest.raises(ValueError):
        DispersionModel.hubbard(theta=0.0)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    for m in (DispersionModel.hubbard(0.3), DispersionModel.xy()):
        k = rng.uniform(-2.0, 2.0, size=(100, 2))
        g = gradient(m, k)
        h = 1e-6
        for i in range(2):
            dp = k.copy()
            dm = k.copy()
            dp[:, i] += h
            dm[:, i] -= h
            fd = (evaluate(m, dp) - evaluate(m, dm)) / (2 * h)
            scale = np.maximum(np.abs(g[:, i]), 1.0)
            assert np.all(np.abs(fd - g[:, i]) / scale < 1e-6)


def test_hessian_symmetric_and_matches_gradient_differences():
    rng = np.random.default_rng(8)
    m = DispersionModel.hubbard(0.45, 0.1)
    k = rng.uniform(-3.0, 3.0, size=(50, 2))
    H = hessian(m, k)
    assert np.array_equal(H[:, 0, 1], H[:, 1, 0])
    h = 1e-6
    for i in range(2):
        dp = k.copy()
        dm = k.copy()
        dp[:, i] += h
        dm[:, i] -= h
        fd = (gradient(m, dp) - gradient(m, dm)) / (2 * h)
        assert np.max(np.abs(fd - H[:, :, i])) < 1e-8


@given(
    k1=st.floats(-math.pi, math.pi),
    k2=st.floats(-math.pi, math.pi),
    theta=st.floats(0.05, 0.95),
)
@settings(max_examples=80, deadline=None)
def test_hubbard_symmetries(k1, k2, theta):
    m = DispersionModel.hubbard(theta)
    k = np.array([k1, k2])
    assert evaluate(m, k) == pytest.approx(evaluate(m, -k), abs=1e-14)
    assert evaluate(m, k) == pytest.approx(
        evaluate(m, k[::-1].copy()), abs=1e-14
    )


def test_hubbard_saddles_at_half_filling():
    m = DispersionModel.hubbard(theta=0.3, mu=0.0)
    pts = find_singular_points(m)
    locs = sorted(tuple(np.round(p.location, 8)) for p in pts)
    assert locs == [(0.0, math.pi), (math.pi, 0.0)] or locs == sorted(
        [(0.0, round(math.pi, 8)), (round(math.pi, 8), 0.0)]
    )
    for p in pts:
        lo, hi = sorted(p.hessian_eigenvalues)
        assert lo == pytest.approx(-0.7, abs=1e-8)
        assert hi == pytest.approx(1.3, abs=1e-8)
        assert lo * hi < 0.0
        # rotation columns are unit eigenvectors
        R = p.hessian_rotation
        assert np.allclose(R.T @ R, np.eye(2), atol=1e-12)
        assert abs(float(evaluate(m, p.location))) < 1e-10
        assert np.linalg.norm(gradient(m, p.location)) < 1e-10


def test_saddle_locations_are_exact():
    for theta in (0.1, 0.3, 0.999):
        locs = [tuple(p.location) for p in
                find_singular_points(DispersionModel.hubbard(theta=theta))]
        assert locs == [(math.pi, 0.0), (0.0, math.pi)]
    (p,) = find_singular_points(DispersionModel.xy())
    assert tuple(p.location) == (0.0, 0.0)


def test_xy_saddle():
    pts = find_singular_points(DispersionModel.xy())
    assert len(pts) == 1
    p = pts[0]
    assert np.allclose(p.location, [0.0, 0.0], atol=1e-12)
    assert sorted(p.hessian_eigenvalues) == pytest.approx([-1.0, 1.0])


def test_off_surface_saddles_excluded():
    m = DispersionModel.hubbard(theta=0.3, mu=0.5)
    assert find_singular_points(m) == []


def _saddle_at(model, loc):
    pts = find_singular_points(model)
    for p in pts:
        if np.allclose(p.location, loc, atol=1e-6):
            return p
    raise AssertionError(f"no saddle found at {loc}")


def test_xy_normal_form_is_exact_product():
    m = DispersionModel.xy()
    p = _saddle_at(m, [0.0, 0.0])
    nf = morse_normal_form(m, p, radius=0.5)
    assert nf.nu1 is None and nf.nu2 is None
    assert abs(np.linalg.det(nf.A)) > 0.5
    # the axes are the zero set, and |a| = 1 for the bilinear model in
    # the isotropic frame
    assert nf.max_residual == 0.0
    assert nf.a_min == pytest.approx(1.0, abs=1e-12)
    assert nf.a_max == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("loc", [(0.0, math.pi), (math.pi, 0.0)],
                         ids=["0pi", "pi0"])
@pytest.mark.parametrize("theta", [0.05, 0.3, 0.8])
def test_hubbard_branch_order_is_cubic(theta, loc):
    m = DispersionModel.hubbard(theta=theta, mu=0.0)
    p = _saddle_at(m, loc)
    nf = morse_normal_form(m, p)
    assert nf.nu1 == 3
    assert nf.nu2 == 3
    assert nf.radius == 0.1
    assert abs(np.linalg.det(nf.A)) > 1e-3


def test_hubbard_normal_form_residual():
    # max_residual is |e| at the branch points, which are root-found to
    # 16 unit roundoffs of the band's scale
    m = DispersionModel.hubbard(theta=0.5, mu=0.0)
    p = _saddle_at(m, [math.pi, 0.0])
    nf = morse_normal_form(m, p, radius=0.1)
    assert nf.max_residual <= 16 * 2.0 ** -53 * 3.0
    # a stays bounded away from zero
    assert 0.1 < nf.a_min <= nf.a_max
    # shifted by 1e-12 the saddle still counts as on the surface, and
    # the branch point at the saddle itself reports |e(p)|
    shifted = DispersionModel.hubbard(theta=0.5, mu=1e-12)
    nf = morse_normal_form(shifted, _saddle_at(shifted, [math.pi, 0.0]))
    assert abs(nf.max_residual - 1e-12) <= 1e-15


def test_normal_form_quadratic_coefficient():
    # near the origin e(p + A k) ~ a0 k1 k2 with a0 = u^T H v for the
    # normalized isotropic columns; on a tiny patch |a| is |a0|, and the
    # branches, at most ~1e-10 off the axes there, still read nu = 3
    m = DispersionModel.hubbard(theta=0.5, mu=0.0)
    p = _saddle_at(m, [math.pi, 0.0])
    nf = morse_normal_form(m, p, radius=1e-3)
    assert nf.nu1 == 3 and nf.nu2 == 3
    H = hessian(m, p.location)
    a0 = abs(float(nf.A[:, 0] @ H @ nf.A[:, 1]))
    assert nf.a_min == pytest.approx(a0, rel=1e-3)
    assert nf.a_max == pytest.approx(a0, rel=1e-3)


def _ebar(m, p, A, k1, k2):
    return float(evaluate(m, p.location + A @ np.array([k1, k2])))


@pytest.mark.parametrize("radius", [0.1, 0.5])
@pytest.mark.parametrize("theta", [0.05, 0.3, 0.8])
def test_normal_form_a_range_against_brentq_branches(theta, radius):
    # a = e / (P1 P2) at random points of the patch, with the branches
    # found by scipy's brentq instead of the module's Newton: finite, of
    # the sign of a0 and inside [a_min, a_max] widened by 5% of its width;
    # their extremes also reach both ends of it to that 5%, so that a
    # range widened by wrong branches fails
    brentq = pytest.importorskip("scipy.optimize").brentq
    m = DispersionModel.hubbard(theta=theta, mu=0.0)
    p = _saddle_at(m, [math.pi, 0.0])
    nf = morse_normal_form(m, p, radius=radius)
    assert nf.radius == radius
    A = nf.A
    a0 = float(A[:, 0] @ hessian(m, p.location) @ A[:, 1])
    probes = np.random.default_rng(11).uniform(-radius, radius, size=(2000, 2))
    a = np.empty(len(probes))
    for i, (k1, k2) in enumerate(probes):
        phi1 = brentq(lambda x: _ebar(m, p, A, x, k2), -abs(k2) / 2,
                      abs(k2) / 2, xtol=1e-15)
        phi2 = brentq(lambda x: _ebar(m, p, A, k1, x), -abs(k1) / 2,
                      abs(k1) / 2, xtol=1e-15)
        a[i] = _ebar(m, p, A, k1, k2) / ((k1 - phi1) * (k2 - phi2))
    assert np.all(np.isfinite(a))
    assert np.all(np.sign(a) == np.sign(a0))
    slack = 0.05 * (nf.a_max - nf.a_min)
    assert nf.a_min - slack <= np.min(np.abs(a)) <= nf.a_min + slack
    assert nf.a_max - slack <= np.max(np.abs(a)) <= nf.a_max + slack


def test_normal_form_off_the_surface_gives_up():
    # the mu = 0 saddle of a band shifted by 1e-3: e(p) != 0, so near p
    # no branch stays in its bracket at any radius, and the halvings end
    # in FactorizationFailed
    p = _saddle_at(DispersionModel.hubbard(theta=0.3), [math.pi, 0.0])
    with pytest.raises(FactorizationFailed):
        morse_normal_form(DispersionModel.hubbard(theta=0.3, mu=1e-3), p)


def test_flat_branch_detected():
    # the xy saddle reported with its Hessian eigenvectors turned by
    # 1e-5 rad: the working frame then misses the branch tilt, leaving a
    # deviation that is purely linear, with no Taylor order >= 2 to
    # assign nu to
    m = DispersionModel.xy()
    (p,) = find_singular_points(m)
    c, s = math.cos(1e-5), math.sin(1e-5)
    turned = SingularPoint(
        location=p.location,
        hessian_eigenvalues=p.hessian_eigenvalues,
        hessian_rotation=np.array([[c, -s], [s, c]]) @ p.hessian_rotation,
    )
    with pytest.raises(FlatBranch):
        morse_normal_form(m, turned, radius=0.5)


def test_model_domain_follows_kind():
    xy = DispersionModel(kind="xy")
    assert xy == DispersionModel.xy()
    assert xy.domain == ((-1.0, 1.0), (-1.0, 1.0))
    hub = DispersionModel(kind="hubbard", theta=0.3)
    assert hub == DispersionModel.hubbard(0.3)
    assert hub.domain == ((-math.pi, math.pi), (-math.pi, math.pi))
    for kwargs in ({"kind": "custom"}, {"kind": "xy", "theta": 0.3},
                   {"kind": "xy", "mu": 0.1}):
        with pytest.raises(ValueError):
            DispersionModel(**kwargs)
