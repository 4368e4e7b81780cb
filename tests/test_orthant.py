"""Orthant table: every hard-coded row against the generic signed-
coordinate formulas, the symmetry identities, and the folding operation."""

import numpy as np
import pytest

from vanhove_lab.orthant import RESTRICTED_CASES, fold_to_positive, table
from vanhove_lab.quad import QuadSpec, integrate

RNG = np.random.default_rng(20240814)
NPTS = 10_000


def _coords():
    return RNG.random((NPTS, 4))


def _signed(P, pattern):
    return P * np.asarray(pattern, dtype=float)


def eps_generic(x, y, xp, yp):
    return x * yp + xp * y - 2 * xp * yp


def test_table_shape_and_patterns():
    t = table()
    assert [term.n for term in t] == list(range(1, 17))
    seen = {term.sign_pattern for term in t}
    assert len(seen) == 16  # all orthants covered exactly once
    for term in t:
        assert all(s in (-1, 1) for s in term.sign_pattern)
        if term.n in RESTRICTED_CASES:
            assert term.rho is not None
            assert term.D is not None
            assert term.F is not None
        else:
            assert term.rho is None
            assert term.D is None
            assert term.F is None


def test_rows_match_generic_formulas():
    P = _coords()
    X, Y, Xp, Yp = P.T
    for term in table():
        s = _signed(P, term.sign_pattern)
        x, y, xp, yp = s.T
        np.testing.assert_allclose(
            term.epsilon(X, Y, Xp, Yp), eps_generic(x, y, xp, yp), atol=1e-14
        )
        if term.D is not None:
            np.testing.assert_allclose(term.D(X, Y, Xp, Yp), y - yp, atol=1e-14)
        if term.F is not None:
            np.testing.assert_allclose(
                term.F(X, Y, Xp, Yp), (x - xp) * (y - yp), atol=1e-14
            )


def test_example_term1():
    t1 = table()[0]
    assert t1.epsilon(0.0, 0.0, 1.0, 1.0) == 2.0
    assert bool(t1.rho(0.0, 0.0, 1.0, 1.0)) is True


def test_restrictions_read_off_the_table():
    t = {term.n: term for term in table()}
    P = _coords()
    X, Y, Xp, Yp = P.T
    for n in (1, 3, 9, 11):
        np.testing.assert_array_equal(t[n].rho(X, Y, Xp, Yp), X < Xp)
    for n in (2, 4, 10, 12):
        np.testing.assert_array_equal(t[n].rho(X, Y, Xp, Yp), Y < Yp)


def test_reflection_n_plus_8():
    t = {term.n: term for term in table()}
    P = _coords()
    X, Y, Xp, Yp = P.T
    for n in range(1, 9):
        a, b = t[n], t[n + 8]
        assert b.sign_pattern == tuple(-s for s in a.sign_pattern)
        np.testing.assert_allclose(
            a.epsilon(X, Y, Xp, Yp), b.epsilon(X, Y, Xp, Yp), atol=1e-14
        )
        if a.D is not None:
            np.testing.assert_allclose(
                a.D(X, Y, Xp, Yp), -b.D(X, Y, Xp, Yp), atol=1e-14
            )
            np.testing.assert_allclose(
                a.F(X, Y, Xp, Yp), b.F(X, Y, Xp, Yp), atol=1e-14
            )
            np.testing.assert_array_equal(
                a.rho(X, Y, Xp, Yp), b.rho(X, Y, Xp, Yp)
            )


def test_pair_antisymmetry_1_3_and_2_4():
    t = {term.n: term for term in table()}
    P = _coords()
    X, Y, Xp, Yp = P.T
    np.testing.assert_allclose(
        t[1].epsilon(X, Y, Xp, Yp), -t[3].epsilon(X, Y, Xp, Yp), atol=1e-14
    )
    np.testing.assert_allclose(
        t[2].epsilon(X, Y, Xp, Yp), -t[4].epsilon(X, Y, Xp, Yp), atol=1e-14
    )


def test_exchange_symmetry_2_from_1():
    t = {term.n: term for term in table()}
    P = _coords()
    X, Y, Xp, Yp = P.T
    np.testing.assert_allclose(
        t[2].epsilon(Y, X, Yp, Xp), t[1].epsilon(X, Y, Xp, Yp), atol=1e-14
    )
    np.testing.assert_array_equal(
        t[2].rho(Y, X, Yp, Xp), t[1].rho(X, Y, Xp, Yp)
    )


def test_fold_constant_tiling():
    folded = fold_to_positive(
        lambda p: np.ones(len(p)), range(1, 17), apply_restrictions=False
    )
    P = _coords()[:100]
    np.testing.assert_array_equal(folded(P), 16.0)


def test_fold_selection_validation():
    with pytest.raises(ValueError):
        fold_to_positive(lambda p: p[:, 0], [])
    with pytest.raises(ValueError):
        fold_to_positive(lambda p: p[:, 0], [0, 3])
    with pytest.raises(ValueError):
        fold_to_positive(lambda p: p[:, 0], [17])


def test_fold_tiling_integral_identity():
    # int_{[-1,1]^4} g == int_{[0,1]^4} fold(g, all, no restrictions)
    # for a handful of smooth integrands.
    rng = np.random.default_rng(7)
    spec = QuadSpec(abs_tol=1e-7, rel_tol=0.0, max_evaluations=4_000_000)
    for _ in range(5):
        a = rng.normal(size=4)
        b = rng.normal(size=4)
        c = rng.uniform(0.5, 1.5)

        def g(p, a=a, b=b, c=c):
            return np.cos(p @ a) + c * (p @ b) ** 2 + p[:, 0] * p[:, 3]

        direct = integrate(g, [(-1.0, 1.0)] * 4, spec)
        folded = integrate(
            fold_to_positive(g, range(1, 17), apply_restrictions=False),
            [(0.0, 1.0)] * 4,
            spec,
        )
        assert direct.value == pytest.approx(
            folded.value,
            abs=3 * (direct.error_estimate + folded.error_estimate) + 1e-12,
        )


def test_fold_even_kernel_reduces_to_case1():
    # For an even function of epsilon, the restricted sum over the eight
    # contributing cases equals 8 Phi(eps_1) 1{rho_1} after integration
    # (cases 2/4/10/12 map onto 1/3/9/11 under the x<->y exchange, which
    # preserves the [0,1]^4 measure).
    q0 = 0.3

    def phi_of_eps(p):
        e = eps_generic(p[:, 0], p[:, 1], p[:, 2], p[:, 3])
        return (e ** 2 - q0 ** 2) / (e ** 2 + q0 ** 2) ** 2

    t1 = table()[0]

    def case1_form(p):
        X, Y, Xp, Yp = p[:, 0], p[:, 1], p[:, 2], p[:, 3]
        e = t1.epsilon(X, Y, Xp, Yp)
        val = 8.0 * (e ** 2 - q0 ** 2) / (e ** 2 + q0 ** 2) ** 2
        return np.where(t1.rho(X, Y, Xp, Yp), val, 0.0)

    spec = QuadSpec(abs_tol=2e-6, rel_tol=0.0, max_evaluations=8_000_000)
    lhs = integrate(
        fold_to_positive(phi_of_eps, sorted(RESTRICTED_CASES)),
        [(0.0, 1.0)] * 4,
        spec,
    )
    rhs = integrate(case1_form, [(0.0, 1.0)] * 4, spec)
    assert lhs.value == pytest.approx(
        rhs.value, abs=3 * (lhs.error_estimate + rhs.error_estimate) + 1e-10
    )


def test_consistency_invariant_every_term():
    # the TYPE-level consistency statement, all 16 cases at 1e4 points
    P = _coords()
    for term in table():
        s = _signed(P, term.sign_pattern)
        np.testing.assert_allclose(
            term.epsilon(P[:, 0], P[:, 1], P[:, 2], P[:, 3]),
            eps_generic(s[:, 0], s[:, 1], s[:, 2], s[:, 3]),
            atol=1e-14,
        )
