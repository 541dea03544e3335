import hashlib

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from ma2d import analysis, grid, legendre, oracle
from ma2d.errors import AlphaOutOfRange, DomainTooSmall


def ode_slope(alpha, kind, r_end, eta=1.0):
    """Independent reference: integrate p' p / r = rhs from the origin."""
    if kind == "primal":
        rhs = lambda r, p: (1.0 + p**2) ** (2.0 - 1.0 / (2.0 * alpha))
    else:
        rhs = lambda r, p: (eta + r**2) ** (1.0 / (2.0 * alpha) - 2.0)
    r0 = 1e-8
    sol = solve_ivp(
        lambda r, p: r * rhs(r, p[0]) / p[0],
        [r0, r_end],
        [np.sqrt(rhs(0.0, 0.0)) * r0],
        rtol=1e-12,
        atol=1e-14,
    )
    return float(sol.y[0, -1])


def test_primal_slope_closed_form():
    got = oracle.radial_primal_slope(1 / 8, 1.0)
    assert np.isclose(got, np.sqrt(4 ** (1 / 3) - 1), rtol=1e-14)


def test_dual_slope_closed_form():
    got = oracle.radial_dual_slope(1 / 8, 1.0)
    assert np.isclose(got, np.sqrt(7 / 3), rtol=1e-14)


@pytest.mark.parametrize("alpha", [1 / 8, 1 / 6, 1 / 5])
def test_primal_slope_vs_ode(alpha):
    assert abs(oracle.radial_primal_slope(alpha, 1.0) - ode_slope(alpha, "primal", 1.0)) < 1e-8


@pytest.mark.parametrize("alpha", [1 / 8, 1 / 6, 1 / 5])
def test_dual_slope_vs_ode(alpha):
    assert abs(oracle.radial_dual_slope(alpha, 1.0) - ode_slope(alpha, "dual", 1.0)) < 1e-8


def test_zero_radius():
    assert oracle.radial_primal_slope(0.2, 0.0) == 0.0
    assert oracle.radial_dual_slope(0.2, 0.0) == 0.0
    prof = oracle.RadialProfile(alpha=0.2, kind="primal_translator")
    assert prof.value(0.0)[0] == 0.0


@pytest.mark.parametrize("kind", ["primal_translator", "dual_translator"])
def test_value_per_distinct_radius_is_per_node_value(kind):
    # a disk lattice repeats each radius up to eight times; the origin and
    # points with a -0.0 coordinate are in it too
    prof = oracle.RadialProfile(alpha=1 / 8, kind=kind)
    nodes = grid.sample(lambda p: np.zeros(len(p)), grid.Domain2D.disk(2.0), 0.1).nodes
    pts = np.vstack([nodes, [[-0.0, 0.3], [0.3, -0.0], [-0.0, -0.0]]])
    radii = np.hypot(pts[:, 0], pts[:, 1])
    assert len(np.unique(radii)) < len(radii) // 4
    assert np.any((radii == 0.0) & np.signbit(pts).any(axis=1))
    got = prof(pts)
    ref = np.array([prof.value(r)[0] for r in radii])
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))
    with pytest.raises(ValueError, match="nonnegative"):
        prof.value([1.0, -1e-300, 1.0])
    with pytest.raises(DomainTooSmall):
        prof.value([1.0, 4000.5, 1.0])


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.3, -1.0])
def test_alpha_out_of_range(alpha):
    with pytest.raises(AlphaOutOfRange):
        oracle.radial_primal_slope(alpha, 1.0)


def test_primal_asymptotic_constant():
    # p(r) ~ c^(alpha/(1-2 alpha)) r^(2 alpha/(1-2 alpha)), c = (1/alpha - 2)/2
    alpha = 1 / 8
    c = (1 / alpha - 2) / 2
    expo = 2 * alpha / (1 - 2 * alpha)
    limit = c ** (alpha / (1 - 2 * alpha))
    got = oracle.radial_primal_slope(alpha, 1e3) / 1e3**expo
    assert abs(got / limit - 1.0) < 0.01


def test_value_quadrature_accuracy(dual_profile_8):
    # piecewise reference integral, absolute tolerance well below 1e-10
    edges = np.concatenate([[0], np.geomspace(1e-8, 16.0, 200)])
    ref = sum(
        quad(lambda r: oracle.radial_dual_slope(1 / 8, r), edges[i], edges[i + 1],
             epsabs=1e-15, epsrel=1e-13)[0]
        for i in range(len(edges) - 1)
    )
    assert abs(dual_profile_8.value(16.0)[0] - ref) < 1e-10


def test_pinned_gauss_legendre_rule():
    # the 15 literals the shipped .gfn fixture was written with, bit for bit
    rule = np.concatenate([oracle._GL_X, oracle._GL_W]).astype("<f8").tobytes()
    assert hashlib.sha256(rule).hexdigest()[:16] == "19dda640171989b6"
    for m in range(30):
        exact = 2.0 / (m + 1) if m % 2 == 0 else 0.0
        assert abs(np.sum(oracle._GL_W * oracle._GL_X**m) - exact) < 1e-14


@pytest.mark.parametrize("knots", [np.geomspace(1e-3, 4e3, 301), np.array([0.5, 1.5])])
def test_panel_integrals_fixed_order_sum(monkeypatch, knots):
    # equal bit for bit to a panel-by-panel sequential sum in Python floats;
    # a BLAS product in its place differs from it on some CPU kernels
    slopes = {}
    slope = oracle.RadialProfile.slope

    def recording_slope(self, r):
        q = slope(self, r)
        slopes.update(zip(r.tolist(), q.tolist()))
        return q

    monkeypatch.setattr(oracle.RadialProfile, "slope", recording_slope)
    prof = oracle.RadialProfile(alpha=1 / 8, kind="dual_translator")
    got = prof._panel_integrals(knots[:-1], knots[1:])
    want = []
    for a, b in zip(knots[:-1].tolist(), knots[1:].tolist()):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        acc = 0.0
        for x, w in zip(oracle._GL_X.tolist(), oracle._GL_W.tolist()):
            acc = acc + slopes[mid + half * x] * w
        want.append(half * acc)
    assert np.array_equal(got, np.array(want))


def test_substitution_residual_both_profiles():
    # finite-difference derivative of the slope must satisfy p p'/r = rhs(r)
    for kind in ("primal_translator", "dual_translator"):
        prof = oracle.RadialProfile(alpha=1 / 8, kind=kind)
        r = np.geomspace(0.01, 1e3, 120)
        dr = 1e-6 * np.maximum(r, 1.0)
        p = prof.slope(r)
        dp = (prof.slope(r + dr) - prof.slope(r - dr)) / (2 * dr)
        lhs = p * dp / r
        rhs = prof.rhs(np.stack([r, np.zeros_like(r)], axis=1))
        assert np.max(np.abs(lhs - rhs) / rhs) < 1e-6


def test_dual_local_log_slope_at_256(dual_profile_8):
    # d log v / d log r = r q(r) / v(r) approaches 1/(2 alpha) = 4
    r = 256.0
    got = r * dual_profile_8.slope(r) / dual_profile_8.value(r)[0]
    assert abs(got - 4.0) <= 0.05


@pytest.mark.parametrize("alpha", [1 / 8, 1 / 6, 1 / 5])
def test_growth_slopes_both_kinds(alpha):
    primal = oracle.RadialProfile(alpha=alpha, kind="primal_translator")
    dual = oracle.RadialProfile(alpha=alpha, kind="dual_translator")
    fu = analysis.growth_exponent(primal, 16.0, 256.0, 5, slope_theory=1 / (1 - 2 * alpha))
    fd = analysis.growth_exponent(dual, 16.0, 256.0, 5, slope_theory=1 / (2 * alpha))
    assert abs(fu.slope - 1 / (1 - 2 * alpha)) <= 0.02 / (1 - 2 * alpha)
    assert abs(fd.slope - 1 / (2 * alpha)) <= 0.02 / (2 * alpha)


def test_eta_zero_profile_pure_power():
    alpha = 1 / 8
    q = oracle.radial_dual_slope(alpha, 2.0, eta=0.0)
    assert np.isclose(q, np.sqrt(2.0 / 6.0) * 2.0**3, rtol=1e-13)


def test_separable_coefficients_and_value():
    sep = oracle.SeparableSolution(alpha=1 / 8, a=1.0)
    assert sep.p == 6.0
    assert np.isclose(sep.b, 1 / 60, rtol=1e-15)
    assert np.isclose(sep(np.array([[1.0, 1.0]]))[0], 1 + 1 / 60, rtol=1e-15)
    assert sep(np.zeros((1, 2)))[0] == 0.0


def test_separable_hessian_determinant():
    # det D2 u = |x1|^(1/alpha - 4) by centered second differences
    sep = oracle.SeparableSolution(alpha=1 / 8, a=1.0)
    rng = np.random.default_rng(12)
    pts = rng.uniform(0.3, 1.5, size=(10, 2)) * np.sign(rng.standard_normal((10, 2)))
    e = 1e-5
    for x in pts:
        def val(dx, dy):
            return sep(np.array([[x[0] + dx, x[1] + dy]]))[0]

        uxx = (val(e, 0) - 2 * val(0, 0) + val(-e, 0)) / e**2
        uyy = (val(0, e) - 2 * val(0, 0) + val(0, -e)) / e**2
        uxy = (val(e, e) - val(e, -e) - val(-e, e) + val(-e, -e)) / (4 * e**2)
        det = uxx * uyy - uxy**2
        expect = abs(x[0]) ** (1 / (1 / 8) - 4)
        assert abs(det - expect) / expect < 1e-4


def test_separable_eccentricity_slope():
    sep = oracle.SeparableSolution(alpha=1 / 8, a=1.0)
    # semi-axes t^(1/p) and t^(1/2) give the eccentricity exponent
    # (1/2 - 1/p)/2 = 1/6 at alpha = 1/8
    assert np.isclose(sep.eccentricity_slope(), 1 / 6)


def test_legendre_consistency_primal_dual(primal_profile_8, dual_profile_8):
    # discrete conjugate of the sampled primal tracks the sampled dual
    h = 0.05
    u = grid.sample(primal_profile_8, grid.Domain2D.disk(2.0), h)
    max_slope = float(primal_profile_8.slope(2.0))
    dual_dom = grid.Domain2D.disk(0.8 * max_slope)
    res = legendre.legendre_transform(u, dual_dom, h)
    expect = dual_profile_8(res.dual.nodes)
    gap = np.abs(res.dual.values - expect)
    assert gap.max() <= 3 * h * max_slope
