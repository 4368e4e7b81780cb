"""Acceptance gate: one test per advertised deliverable, each printing a
single PASS/FAIL line with the measured numbers before asserting.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the full
scoreboard; in a plain run the verdict lines of failing criteria appear
in the captured-output section of the report.

Two criteria assert values that come from the defining integrals rather
than from a quoted number.  Criterion 3: at zero temperature the mixed
derivative of the kernel is d/dE1 (E1 K'(E1)); the Fermi step's
delta(E1) arrives multiplied by E1 and drops out, so only the
denominators are differentiated.  zeta11 = 2 I(q0) carries
4 log 2 (log q0)^2 and zeta12 = -4 (BT + RT) carries -2 (log q0)^2, so
the squared-log coefficient of Re d2 Sigma2 / dxi deta is 4 log 2 - 2.
Criterion 11: zeta2 and zeta3 vanish only as beta -> infinity.  Their
magnitudes first rise with beta, peaking near beta = 6-8 for
q0 in [0.3, 0.5] and near beta = 11 for q0 = 0.1 (at q0 = 0.1 the
profile over beta in {4, 8, 16, 32} is 3.67 / 5.70 / 5.91 / 4.45 for
|zeta2| and 3.92 / 5.52 / 5.55 / 4.12 for |zeta3|), so monotone decay
is asserted at q0 = 0.3 on a doubling grid that starts at the peak.
"""

import math
import time

import numpy as np
import pytest

from vanhove_lab import quad
from vanhove_lab import selfenergy as se
from vanhove_lab.bubbles import bubble_result, k_constant
from vanhove_lab.cli import _interval_corpus
from vanhove_lab.dispersion import (
    DispersionModel,
    find_singular_points,
    morse_normal_form,
)
from vanhove_lab.fitlab import fit_log_square
from vanhove_lab.geometry import interval_lemma_check, overlap_scaling_experiment
from vanhove_lab.matsubara import ThermalState
from vanhove_lab.orthant import fold_to_positive, table
from vanhove_lab.quad import QuadSpec


def _verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    return ok


def _decay_fit(q0_grid, values):
    # the asymptotics are polynomial in log(1/q0), which grows as q0
    # shrinks, so the log-log fitter is fed 1/q0
    return fit_log_square(list(zip(1.0 / np.asarray(q0_grid), values)))


# ---------------------------------------------------------------------------
# criteria 1 + 2: leading and subleading frequency-derivative coefficients
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def frequency_sweep():
    spec = QuadSpec(abs_tol=1e-8, rel_tol=0.0, max_evaluations=4_000_000)
    grid = np.geomspace(1e-6, 1e-2, 9)
    t0 = time.perf_counter()
    vals = np.array([se.im_d0_sigma2(float(q), spec).value.real for q in grid])
    elapsed = time.perf_counter() - t0
    return grid, vals, elapsed


def test_criterion_01_leading_frequency_coefficient(frequency_sweep):
    grid, vals, elapsed = frequency_sweep
    fit = _decay_fit(grid, vals)
    target = -4.0 * math.log(2.0)
    ok = abs(fit.a - target) <= 0.05 * abs(target) and elapsed <= 600.0
    assert _verdict(
        1,
        ok,
        f"Im d0 Sigma2 over q0 in [1e-6, 1e-2]: a = {fit.a:.6f} vs "
        f"-4 log 2 = {target:.6f} (rel err {abs(fit.a / target - 1.0):.1e}), "
        f"sweep {elapsed:.1f}s <= 600s",
    )


def _c1_oracle() -> float:
    # independent route to the subleading constant: 2 (log 2)^2 minus
    # four times a 1D integral whose integrand extends continuously to 1
    # at x = 0 (the quadrature nodes are interior, so no special-casing)
    def g(X: np.ndarray) -> np.ndarray:
        x = X[:, 0]
        return np.log((1.0 + 2.0 * x) / (1.0 + x)) / x

    r = quad.integrate(
        g, [(0.0, 1.0)], QuadSpec(abs_tol=1e-12, rel_tol=0.0, max_evaluations=100_000)
    )
    assert r.converged
    return 2.0 * math.log(2.0) ** 2 - 4.0 * float(np.real(r.value))


def test_criterion_02_subleading_frequency_coefficient(frequency_sweep):
    grid, vals, _ = frequency_sweep
    fit = _decay_fit(grid, vals)
    c1 = _c1_oracle()
    target = -2.0 * c1
    ok = abs(fit.b - target) <= 0.15 * abs(target)
    assert _verdict(
        2,
        ok,
        f"subleading coefficient b = {fit.b:.6f} vs -2 C1 = {target:.6f} "
        f"(C1 oracle = {c1:.12f}, rel err {abs(fit.b / target - 1.0):.1e})",
    )


# ---------------------------------------------------------------------------
# criterion 3: mixed second derivative coefficients
# ---------------------------------------------------------------------------


def test_criterion_03_mixed_second_derivative_coefficients():
    # With L = log(1/q0), the reductions give the leading terms directly:
    #   zeta11 = 2 I(q0) ~ 4 log 2 L^2, the same log 2 as criterion 1
    #     (int_0^inf dt / ((1+t)(1+2t)) = log 2);
    #   zeta12 = -4 (BT + RT) ~ -2 L^2, because only the
    #     log1p(y^2/q0^2) / (2y) term of b0 in BT grows like L^2 / 2,
    #     while RT and the rest of BT grow like a single L.
    # No Fermi-step boundary term adds to these: at zero temperature
    # d_xi d_eta K(E1) = d/dE1 (E1 K'(E1)), and the delta(E1) from the
    # step arrives multiplied by E1.
    spec = QuadSpec(abs_tol=1e-7, rel_tol=0.0, max_evaluations=20_000_000)
    grid = np.geomspace(1e-5, 1e-2, 9)
    vals, z12s = [], []
    for q0 in grid:
        r = se.d2_sigma2_xi_eta(float(q0), spec)
        vals.append(float(np.real(r.value)))
        z12s.append(float(np.real(r.pieces["zeta12"].value)))
    fit_v = _decay_fit(grid, vals)
    fit_z = _decay_fit(grid, z12s)
    target_value = 4.0 * math.log(2.0) - 2.0
    target_z12 = -2.0
    ok_value = abs(fit_v.a - target_value) <= 0.05 * abs(target_value)
    ok_z12 = abs(fit_z.a - target_z12) <= 0.10 * abs(target_z12)
    assert _verdict(
        3,
        ok_value and ok_z12,
        f"Re d2 Sigma2/dxi deta coefficient a = {fit_v.a:.6f} vs "
        f"4 log 2 - 2 = {target_value:.6f} (rel err "
        f"{abs(fit_v.a / target_value - 1.0):.1e}); zeta12 coefficient "
        f"a = {fit_z.a:.6f} vs -2 (rel err {abs(fit_z.a / target_z12 - 1.0):.1e})",
    )


# ---------------------------------------------------------------------------
# criterion 4: pure second derivative grows at most logarithmically
# ---------------------------------------------------------------------------


def test_criterion_04_pure_second_derivative_log_growth():
    spec = QuadSpec(abs_tol=1e-9, rel_tol=0.0, max_evaluations=4_000_000)
    grid = np.geomspace(1e-5, 1e-2, 9)
    vals = [float(np.real(se.d2_sigma2_xi_xi(float(q0), spec).value)) for q0 in grid]
    fit = _decay_fit(grid, vals)
    ok = abs(fit.a) < 0.05 * abs(fit.b)
    assert _verdict(
        4,
        ok,
        f"Re d2 Sigma2/dxi^2 profile over q0 in [1e-5, 1e-2]: "
        f"|a| = {abs(fit.a):.6f} < 0.05 |b| = {0.05 * abs(fit.b):.6f} "
        f"(b = {fit.b:.4f}, pure log growth)",
    )


# ---------------------------------------------------------------------------
# criterion 5: vanishing gradient and exact integrand antisymmetry
# ---------------------------------------------------------------------------


def test_criterion_05_vanishing_gradient_and_antisymmetry():
    spec = QuadSpec(abs_tol=5e-5, rel_tol=0.0, max_evaluations=4_000_000)
    ok = True
    parts = []
    for beta in (2.0, 8.0, 32.0):
        g = se.grad_sigma2_at_vh(0.1, ThermalState.finite(beta), spec)
        m = float(max(abs(c.value) for c in g))
        e = float(max(c.error_estimate for c in g))
        ok = ok and (m <= 10.0 * e)
        parts.append(f"beta={beta:g}: max|grad|={m:.1e} err={e:.1e}")
    rng = np.random.default_rng(20260814)
    P = rng.uniform(-1.0, 1.0, size=(10_000, 4))
    st = ThermalState.finite(8.0)
    exact = True
    for comp in (0, 1):
        s1 = se.s1_integrand(P, 0.1, st, comp) + se.s1_integrand(-P, 0.1, st, comp)
        s2 = se.s2_integrand(P, 0.1, st, comp) + se.s2_integrand(-P, 0.1, st, comp)
        exact = exact and bool(np.all(s1 == 0.0)) and bool(np.all(s2 == 0.0))
    ok = ok and exact
    assert _verdict(
        5,
        ok,
        "grad Sigma2(0.1, 0) zero within 10x error at "
        + "; ".join(parts)
        + f"; S1/S2 antisymmetry exact at 10^4 points: {exact}",
    )


# ---------------------------------------------------------------------------
# criterion 6: bubble asymptotics and the two K definitions
# ---------------------------------------------------------------------------


def test_criterion_06_bubble_asymptotics():
    ph50 = bubble_result("ph", 50.0)
    pp50 = bubble_result("pp", 50.0)
    k_gap = abs(k_constant("pairing") - k_constant("density"))
    betas = np.array([10.0, 20.0, 40.0, 80.0])
    slopes = {}
    for kind in ("ph", "pp"):
        res = np.array([abs(bubble_result(kind, float(b)).residual) for b in betas])
        assert np.all(res > 0.0)
        slopes[kind] = float(np.polyfit(betas, np.log(res), 1)[0])
    ok = (
        abs(ph50.residual) < 1e-6
        and abs(pp50.residual) < 1e-6
        and k_gap <= 1e-10
        and slopes["ph"] <= -0.5
        and slopes["pp"] <= -0.5
    )
    assert _verdict(
        6,
        ok,
        f"residuals at beta=50: ph {abs(ph50.residual):.2e}, "
        f"pp {abs(pp50.residual):.2e} (< 1e-6); log-residual slopes "
        f"ph {slopes['ph']:.2f}, pp {slopes['pp']:.2f} (<= -0.5); "
        f"K definitions agree to {k_gap:.1e}",
    )


# ---------------------------------------------------------------------------
# criterion 7: orthant identities, folding, and the 4D cross-route
# ---------------------------------------------------------------------------


def test_criterion_07_orthant_table_and_folding():
    rng = np.random.default_rng(20240814)
    P = rng.random((10_000, 4))
    X, Y, Xp, Yp = P.T
    t = {term.n: term for term in table()}

    def close(u, v):
        return bool(np.allclose(u, v, atol=1e-14, rtol=0.0))

    # reflection: case n+8 shares epsilon/F/rho with case n and negates D
    refl = True
    for n in range(1, 9):
        a, b = t[n], t[n + 8]
        refl = refl and close(a.epsilon(X, Y, Xp, Yp), b.epsilon(X, Y, Xp, Yp))
        if a.D is not None:
            refl = refl and close(a.D(X, Y, Xp, Yp), -b.D(X, Y, Xp, Yp))
            refl = refl and close(a.F(X, Y, Xp, Yp), b.F(X, Y, Xp, Yp))
            refl = refl and bool(
                np.array_equal(a.rho(X, Y, Xp, Yp), b.rho(X, Y, Xp, Yp))
            )
    # pair antisymmetry: epsilon_3 = -epsilon_1, epsilon_4 = -epsilon_2
    anti = close(t[1].epsilon(X, Y, Xp, Yp), -t[3].epsilon(X, Y, Xp, Yp)) and close(
        t[2].epsilon(X, Y, Xp, Yp), -t[4].epsilon(X, Y, Xp, Yp)
    )
    # exchange: case 2 is case 1 with the two components swapped
    exch = close(
        t[2].epsilon(Y, X, Yp, Xp), t[1].epsilon(X, Y, Xp, Yp)
    ) and bool(np.array_equal(t[2].rho(Y, X, Yp, Xp), t[1].rho(X, Y, Xp, Yp)))

    # folding equals the direct [-1,1]^4 integral for smooth integrands
    spec = QuadSpec(abs_tol=1e-7, rel_tol=0.0, max_evaluations=4_000_000)
    grng = np.random.default_rng(11)
    fold_ok = True
    max_ratio = 0.0
    for _ in range(5):
        a = grng.normal(size=4)
        b = grng.normal(size=4)
        c = grng.uniform(0.5, 1.5)

        def g(p, a=a, b=b, c=c):
            return np.cos(p @ a) + c * (p @ b) ** 2 + p[:, 0] * p[:, 3]

        direct = quad.integrate(g, [(-1.0, 1.0)] * 4, spec)
        folded = quad.integrate(
            fold_to_positive(g, range(1, 17), apply_restrictions=False),
            [(0.0, 1.0)] * 4,
            spec,
        )
        bars = 3.0 * (direct.error_estimate + folded.error_estimate) + 1e-12
        gap = abs(direct.value - folded.value)
        fold_ok = fold_ok and (gap <= bars)
        max_ratio = max(max_ratio, gap / bars)

    # the direct 4D frequency derivative agrees with -2 I(q0)
    cross_ok = True
    cross_parts = []
    for q0, budget in ((0.1, 20_000_000), (0.01, 40_000_000)):
        r2 = se.im_d0_sigma2(
            q0, QuadSpec(abs_tol=1e-8, rel_tol=0.0, max_evaluations=4_000_000)
        )
        r4 = se.im_d0_sigma2(
            q0,
            QuadSpec(abs_tol=3e-4, rel_tol=0.0, max_evaluations=budget),
            method="cube4d",
        )
        bars = 3.0 * (r2.error_estimate + r4.error_estimate)
        gap = abs(r2.value - r4.value)
        cross_ok = cross_ok and (gap <= bars)
        cross_parts.append(f"q0={q0:g}: |gap|={gap:.1e} <= {bars:.1e}")

    ok = refl and anti and exch and fold_ok and cross_ok
    assert _verdict(
        7,
        ok,
        f"identities at 10^4 points (reflection {refl}, antisymmetry {anti}, "
        f"exchange {exch}); fold vs direct worst gap/bars = {max_ratio:.2f}; "
        f"4D route vs -2 I(q0): " + "; ".join(cross_parts),
    )


# ---------------------------------------------------------------------------
# criterion 8: quadrature matches the frequency-sum definition
# ---------------------------------------------------------------------------


def test_criterion_08_frequency_sum_oracle():
    beta = 4.0
    q0 = math.pi / beta  # first fermionic frequency at this temperature
    q = (0.3, -0.2)
    r_quad = se.sigma2(
        q0,
        q,
        ThermalState.finite(beta),
        QuadSpec(abs_tol=1e-6, rel_tol=0.0, max_evaluations=10_000_000),
    )
    r_sum = se.frequency_sum_sigma2(q0, q, beta, cutoff=120.0, grid=12)
    gap = abs(r_quad.value - r_sum.value)
    # both probes must see a shift, or the budget measures nothing
    ok = (gap <= r_sum.budget and r_sum.truncation_budget > 0
          and r_sum.grid_budget > 0)
    assert _verdict(
        8,
        ok,
        f"Sigma2({q0:.4f}, {q}) quadrature {r_quad.value:.6f} vs frequency sum "
        f"{r_sum.value:.6f}: |gap| = {gap:.2e} <= budget {r_sum.budget:.2e} "
        f"(truncation {r_sum.truncation_budget:.2e} + grid "
        f"{r_sum.grid_budget:.2e}, both > 0)",
    )


# ---------------------------------------------------------------------------
# criterion 9: saddle detection, normal form, overlap-length bound
# ---------------------------------------------------------------------------


def test_criterion_09_geometry():
    model = DispersionModel.hubbard(0.3, 0.0)
    pts = find_singular_points(model)
    ok_count = len(pts) == 2
    expected = [np.array([math.pi, 0.0]), np.array([0.0, math.pi])]
    loc_err = max(
        min(float(np.max(np.abs(p.location - e))) for p in pts) for e in expected
    )
    eig_err = max(
        float(np.max(np.abs(np.sort(p.hessian_eigenvalues) - np.array([-0.7, 1.3]))))
        for p in pts
    )
    nf_res = max(morse_normal_form(model, p).max_residual for p in pts)

    rep = overlap_scaling_experiment(
        model, M=2.0, j_range=range(-6, -13, -1), num_p=500, delta=0.1, rng_seed=42
    )
    # D = 5 calibrated on this run: the measured deepest-threshold
    # violation fraction is ~0.002-0.006, an order below D * delta^2
    D = 5.0
    frac = max(rep.violation_fraction[-1], rep.violation_fraction_minus[-1])
    expo = min(rep.fitted_exponent, rep.fitted_exponent_minus)
    ok = (
        ok_count
        and loc_err <= 1e-8
        and eig_err <= 1e-8
        and nf_res < 1e-6
        and frac <= D * 0.1**2
        and expo >= 0.25 - 0.05
    )
    assert _verdict(
        9,
        ok,
        f"saddles (pi,0),(0,pi) to {loc_err:.1e}, eigenvalues {{-0.7, 1.3}} to "
        f"{eig_err:.1e}, normal-form residual {nf_res:.1e} < 1e-6; overlap bound "
        f"(n0 = {rep.n0}) deepest-threshold violation fraction {frac:.3f} <= "
        f"{D * 0.01:.2f} over 500 p at delta=0.1, fitted exponent {expo:.3f} >= 0.2",
    )


# ---------------------------------------------------------------------------
# criterion 10: interval lemma holds on the bundled corpus
# ---------------------------------------------------------------------------


def test_criterion_10_interval_lemma_corpus():
    corpus = _interval_corpus(seed=0, per_k=100)
    assert len(corpus) == 300
    failures = []
    for ident, k, eta, eps, f in corpus:
        r = interval_lemma_check(f, k, eta, eps)
        if not r.holds:
            failures.append((ident, k))
    ok = not failures
    assert _verdict(
        10,
        ok,
        f"sublevel measure <= bound on all 300 corpus polynomials "
        f"(100 per k in {{1,2,3}}); counterexamples: {failures if failures else 0}",
    )


# ---------------------------------------------------------------------------
# criterion 11: finite-beta decay of the remainder terms
# ---------------------------------------------------------------------------


def test_criterion_11_zeta_decay_monotonicity():
    # zeta2 and zeta3 vanish only as beta -> infinity: while the thermal
    # width 1/beta is comparable to the band scale or to q0 they grow
    # with beta, and |zeta2|, |zeta3| peak near beta = 8 at q0 = 0.3
    # (near beta = 11 at q0 = 0.1).  Monotone decay is therefore checked
    # on a doubling grid that starts at the peak.  At q0 = 0.1 the grid
    # would run to beta = 64, where zeta2 needs 1.1M of the 4M budget.
    spec = QuadSpec(abs_tol=1e-4, rel_tol=0.0, max_evaluations=4_000_000)
    q0 = 0.3
    betas = (8.0, 16.0, 32.0)
    z2 = np.array([abs(se.zeta2(q0, b, spec).value) for b in betas])
    z3 = np.array([abs(se.zeta3(q0, b, spec).value) for b in betas])
    ok = bool(np.all(np.diff(z2) < 0.0) and np.all(np.diff(z3) < 0.0))
    rows = "; ".join(
        f"beta={b:g}: |zeta2|={a:.4f} |zeta3|={c:.4f}"
        for b, a, c in zip(betas, z2, z3)
    )
    assert _verdict(
        11,
        ok,
        f"|zeta2|, |zeta3| at q0={q0:g} strictly decreasing over beta; "
        f"measured {rows} (grid starts at the beta = 8 peak: below it the "
        f"thermal width is comparable to the band scale and both rise)",
    )
