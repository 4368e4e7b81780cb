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
from vanhove_lab.errors import FlatBranch


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
    nf = morse_normal_form(m, p, radius=0.5, grid=21)
    assert nf.nu1 is None and nf.nu2 is None
    assert np.max(np.abs(nf.b_fn.values)) == 0.0
    assert np.max(np.abs(nf.c_fn.values)) == 0.0
    assert abs(np.linalg.det(nf.A)) > 0.5
    assert nf.max_residual < 1e-12
    # |a| = 1 everywhere for the bilinear model in the isotropic frame
    assert np.allclose(np.abs(nf.a_fn.values), 1.0, atol=1e-12)


def test_hubbard_branch_order_is_cubic():
    m = DispersionModel.hubbard(theta=0.3, mu=0.0)
    p = _saddle_at(m, [0.0, math.pi])
    nf = morse_normal_form(m, p, radius=0.1, grid=41)
    assert nf.nu1 == 3
    assert nf.nu2 == 3
    assert abs(np.linalg.det(nf.A)) > 1e-3


def test_hubbard_normal_form_residual():
    m = DispersionModel.hubbard(theta=0.5, mu=0.0)
    p = _saddle_at(m, [math.pi, 0.0])
    nf = morse_normal_form(m, p, radius=0.1, grid=41)
    # node residual: reconstruct exactly on the sampling grid
    axis = nf.a_fn.axis
    K1, K2 = np.meshgrid(axis, axis, indexing="ij")
    nodes = np.stack([K1.ravel(), K2.ravel()], axis=-1)
    truth = evaluate(m, p.location[None, :] + nodes @ nf.A.T)
    assert np.max(np.abs(truth - nf.reconstruct(nodes))) < 1e-8
    # off-grid residual stays below the factorization tolerance
    rng = np.random.default_rng(3)
    probe = rng.uniform(-nf.radius, nf.radius, size=(500, 2))
    truth = evaluate(m, p.location[None, :] + probe @ nf.A.T)
    assert np.max(np.abs(truth - nf.reconstruct(probe))) < 1e-6
    assert nf.max_residual < 1e-6
    # a stays bounded away from zero
    assert float(np.min(np.abs(nf.a_fn.values))) > 0.1


def test_normal_form_quadratic_coefficient():
    # near the origin e(p + A k) ~ a0 k1 k2 with a0 = u^T H v for the
    # normalized isotropic columns; check a_fn reproduces it
    m = DispersionModel.hubbard(theta=0.5, mu=0.0)
    p = _saddle_at(m, [math.pi, 0.0])
    nf = morse_normal_form(m, p, radius=0.1, grid=41)
    H = hessian(m, p.location)
    a0 = float(nf.A[:, 0] @ H @ nf.A[:, 1])
    center = nf.a_fn(np.zeros((1, 2)))[0]
    assert center == pytest.approx(a0, rel=1e-3)


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
        morse_normal_form(m, turned, radius=0.5, grid=21)


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
