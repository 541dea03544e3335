import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import optimize

import ma2d
from ma2d import grid, oracle, sections
from ma2d.errors import (
    DegeneratePolygon,
    DivideByZeroMass,
    DomainTooSmall,
    NonfiniteValue,
    SectionNotCompact,
)
from ma2d.geometry import convex_hull, disk_rule, min_edge_cross, polygon_area, polygon_centroid

from conftest import polygon_edges, quadratic


def ones(p):
    return np.ones(len(np.atleast_2d(p)))


def test_section_quadratic_disk():
    sec = sections.extract_section(quadratic, np.zeros(2), np.zeros(2), 1.0)
    radii = np.hypot(sec.polygon[:, 0], sec.polygon[:, 1])
    assert np.allclose(radii, np.sqrt(2.0), rtol=1e-10)


def test_section_from_grid_quadratic():
    gf = grid.sample(quadratic, grid.Domain2D.square(2.0), 0.1)
    sec = sections.extract_section(gf, np.zeros(2), np.zeros(2), 1.0)
    radii = np.hypot(sec.polygon[:, 0], sec.polygon[:, 1])
    assert np.all(np.abs(radii - np.sqrt(2.0)) <= 0.1)


def test_section_separable_semi_axes():
    sep = oracle.SeparableSolution(alpha=1 / 8, a=1.0)
    sec = sections.extract_section(sep, np.zeros(2), np.zeros(2), 1.0)
    assert np.isclose(np.abs(sec.polygon[:, 0]).max(), 1.0, rtol=1e-9)
    assert np.isclose(np.abs(sec.polygon[:, 1]).max(), np.sqrt(60.0), rtol=1e-9)


def _loop_grid_polygon(gf, x0, p, t):
    """Reference marching squares: one lattice edge at a time."""
    v0 = sections._grid_value_at(gf, x0)
    w = gf.values - v0 - (gf.nodes - x0) @ p - t
    inside = w <= 0.0
    crossings = []
    for off in ((1, 0), (0, 1)):
        nb = gf.neighbor_ids(off)
        for a in np.flatnonzero(nb >= 0):
            b = nb[a]
            if inside[a] != inside[b]:
                lam = w[a] / (w[a] - w[b])
                crossings.append(gf.nodes[a] + lam * (gf.nodes[b] - gf.nodes[a]))
    pts = np.unique(np.round(np.asarray(crossings), 12), axis=0)
    center = pts.mean(axis=0)
    ang = np.arctan2(pts[:, 1] - center[1], pts[:, 0] - center[0])
    return pts[np.argsort(ang, kind="stable")]


@pytest.mark.parametrize("case", ["quadratic", "solved_dual_disk8"])
def test_grid_section_equals_loop_reference(case, request):
    if case == "quadratic":
        gf = grid.sample(quadratic, grid.Domain2D.disk(20.0), 0.5)
    else:
        gf = request.getfixturevalue(case)[1].grid
    x0, zero = gf.nodes[gf.argmin_node()], np.zeros(2)
    for t in 2.0 ** np.arange(8):
        sec = sections.extract_section(gf, x0, zero, t)
        assert np.array_equal(sec.polygon, _loop_grid_polygon(gf, x0, zero, t))


def test_section_not_compact_grid():
    gf = grid.sample(quadratic, grid.Domain2D.square(1.0), 0.25)
    with pytest.raises(SectionNotCompact):
        sections.extract_section(gf, np.zeros(2), np.zeros(2), 10.0)


def _brentq_section(fn, x0, p, t):
    """Reference trace: brentq along each ray, one point per call of fn."""
    v0 = float(np.asarray(fn(x0[None, :]))[0])

    def w(x):
        return float(np.asarray(fn(x[None, :]))[0]) - v0 - float(p @ (x - x0)) - t

    theta = 2 * np.pi * np.arange(sections._N_DIRS) / sections._N_DIRS
    verts = np.empty((sections._N_DIRS, 2))
    for k, u in enumerate(np.stack([np.cos(theta), np.sin(theta)], axis=1)):
        lo, hi = 0.0, 1.0
        while w(x0 + hi * u) <= 0.0:
            lo, hi = hi, 2.0 * hi
        root = optimize.brentq(lambda s: w(x0 + s * u), lo, hi, xtol=1e-13, rtol=1e-14)
        verts[k] = x0 + root * u
    return verts


CALLABLES = {
    "quadratic": quadratic,
    "separable": oracle.SeparableSolution(alpha=1 / 8, a=1.0),
    "radial_dual": oracle.RadialProfile(alpha=1 / 8, kind="dual_translator"),
}


@pytest.mark.parametrize("t", [1.0, 128.0])
@pytest.mark.parametrize("name", sorted(CALLABLES))
def test_callable_section_matches_brentq_reference(name, t):
    fn = CALLABLES[name]
    zero = np.zeros(2)
    sec = sections.extract_section(fn, zero, zero, t)
    ref = _brentq_section(fn, zero, zero, t)
    rel = np.hypot(*(sec.polygon - ref).T) / np.hypot(*ref.T)
    assert rel.max() <= 1e-12


def test_callable_section_matches_brentq_reference_tilted():
    x0, p = np.array([0.3, -0.2]), np.array([0.3, -0.2])  # the gradient of quadratic at x0
    sec = sections.extract_section(quadratic, x0, p, 2.0)
    ref = _brentq_section(quadratic, x0, p, 2.0)
    assert np.abs(sec.polygon - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("name", sorted(CALLABLES))
def test_callable_section_batches_its_calls(name):
    calls = []

    def counted(pts):
        calls.append(len(pts))
        return CALLABLES[name](pts)

    sections.extract_section(counted, np.zeros(2), np.zeros(2), 128.0)
    assert len(calls) <= 30
    assert calls[1] == 512  # the first bracket step holds every ray


def test_callable_section_nan_raises_nonfinite():
    def nan_beyond_one(pts):
        return np.where(np.hypot(pts[:, 0], pts[:, 1]) > 1.0, np.nan, quadratic(pts))

    with pytest.raises(NonfiniteValue, match="direction 0.000"):
        sections.extract_section(nan_beyond_one, np.zeros(2), np.zeros(2), 1.0)


@pytest.mark.parametrize("t, radius", [(0.5, 1.0), (2.0, 2.0)])
def test_callable_section_root_at_bracket_end(t, radius):
    # the doubling bracket ends at s = radius, where w is 0 up to the
    # rounding of cos^2 + sin^2 (exactly 0 on 401 of the 512 rays)
    sec = sections.extract_section(quadratic, np.zeros(2), np.zeros(2), t)
    assert np.abs(np.hypot(*sec.polygon.T) - radius).max() <= 1e-15


def test_callable_section_nan_in_root_phase_raises_nonfinite():
    # the bracket [1, 2] misses the NaN band, and the root sqrt(2) lies in it
    def nan_band(pts):
        r = np.hypot(pts[:, 0], pts[:, 1])
        return np.where((r > 1.40) & (r < 1.45), np.nan, quadratic(pts))

    with pytest.raises(NonfiniteValue, match=r"direction \d\.\d{3} at radius 1\.4"):
        sections.extract_section(nan_band, np.zeros(2), np.zeros(2), 1.0)


def test_callable_section_not_compact_names_direction():
    def x1_squared(pts):
        return pts[:, 0] ** 2

    with pytest.raises(SectionNotCompact, match="direction 1.571"):
        sections.extract_section(x1_squared, np.zeros(2), np.zeros(2), 1.0)


def test_import_leaves_scipy_optimize_unloaded():
    # the child imports the same ma2d package as this test run
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(ma2d.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [pkg_root, os.environ.get("PYTHONPATH")])))
    code = "import sys, ma2d; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


def test_john_square_is_unit_disk():
    fit = sections.john_ellipsoid(np.array([[-1.0, -1], [1, -1], [1, 1], [-1, 1]]))
    assert np.abs(fit.shape_matrix - np.eye(2)).max() < 1e-7
    assert abs(sections.eccentricity(fit) - 1.0) < 1e-7


def test_john_rectangle_axes():
    fit = sections.john_ellipsoid(np.array([[-2.0, -1], [2, -1], [2, 1], [-2, 1]]))
    expect = np.diag([np.sqrt(2), 1 / np.sqrt(2)])
    assert np.abs(fit.normalized - expect).max() < 1e-7


def test_john_triangle_steiner():
    rng = np.random.default_rng(8)
    done = 0
    while done < 3:
        tri = rng.standard_normal((3, 2)) * 2
        x, y = tri[:, 0], tri[:, 1]
        s = 0.5 * (x[0] * (y[1] - y[2]) + x[1] * (y[2] - y[0]) + x[2] * (y[0] - y[1]))
        if abs(s) < 0.5:
            continue
        if s < 0:
            tri = tri[::-1]
        fit = sections.john_ellipsoid(tri)
        area = np.pi / np.sqrt(np.linalg.det(fit.shape_matrix))
        assert np.abs(fit.center - tri.mean(axis=0)).max() < 1e-7
        assert abs(area - np.pi * abs(s) / (3 * np.sqrt(3))) < 1e-7 * abs(s)
        done += 1


def test_john_containment_two_sided():
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((12, 2))
    from ma2d.geometry import convex_hull

    poly = convex_hull(pts)
    fit = sections.john_ellipsoid(poly)
    evals, evecs = np.linalg.eigh(fit.shape_matrix)
    B = evecs @ np.diag(evals**-0.5) @ evecs.T
    # inscribed: 1e4 ellipse points (boundary and interior grid) inside the polygon
    theta = np.linspace(0, 2 * np.pi, 100, endpoint=False)
    rad = np.linspace(0.0, 1.0, 100)
    disk = np.stack(
        [np.outer(rad, np.cos(theta)).ravel(), np.outer(rad, np.sin(theta)).ravel()],
        axis=1,
    )
    inside = fit.center + disk @ B
    assert (min_edge_cross(inside, *polygon_edges(poly)) >= -1e-7).all()
    # John property: doubling the ellipse covers the polygon (edges included)
    lam = np.linspace(0.0, 1.0, 400)[:, None, None]
    edge_pts = (poly[None, :, :] * (1 - lam) + np.roll(poly, -1, axis=0)[None, :, :] * lam)
    w = (edge_pts.reshape(-1, 2) - fit.center) @ np.linalg.inv(B)
    assert np.all(np.hypot(w[:, 0], w[:, 1]) <= 2.0 + 1e-7)


_DB = [np.array(e, dtype=float) for e in ([[1, 0], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 1]])]


def _edge_lines(poly):
    """Unit outward normals n_i and offsets b_i of a ccw polygon's edges."""
    e = np.roll(poly, -1, axis=0) - poly
    nrm = np.stack([e[:, 1], -e[:, 0]], axis=1) / np.hypot(e[:, 0], e[:, 1])[:, None]
    return nrm, np.sum(nrm * poly, axis=1)


def _full_john(poly):
    """Reference fit: john_ellipsoid's SLSQP problem over every edge at once,
    from the centroid's inscribed disk.  Returns B of the ellipse
    c + B(unit disk)."""
    nrm, b = _edge_lines(poly)
    c0 = polygon_centroid(poly)
    r0 = float(np.min(b - nrm @ c0))

    def chol(z):
        return np.array([[z[2], 0.0], [z[3], z[4]]])

    def slack(z):
        L = chol(z)
        return b - nrm @ z[:2] - np.hypot(*((L @ L.T) @ nrm.T))

    def slack_jac(z):
        L = chol(z)
        Ba = (L @ L.T) @ nrm.T
        u = Ba / np.hypot(*Ba)
        J = np.empty((len(b), 5))
        J[:, :2] = -nrm
        for k, dL in enumerate(_DB):  # dB = dL L^T + L dL^T
            J[:, 2 + k] = -np.sum(u * ((dL @ L.T + L @ dL.T) @ nrm.T), axis=0)
        return J

    res = optimize.minimize(
        lambda z: -(np.log(z[2]) + np.log(z[4])),
        np.array([c0[0], c0[1], 0.5 * r0, 0.0, 0.5 * r0]),
        jac=lambda z: np.array([0.0, 0.0, -1.0 / z[2], 0.0, -1.0 / z[4]]),
        method="SLSQP",
        constraints=[{"type": "ineq", "fun": slack, "jac": slack_jac}],
        bounds=[(None, None), (None, None), (1e-12, None), (None, None), (1e-12, None)],
        options={"maxiter": 400, "ftol": 1e-12},
    )
    L = chol(res.x)
    return L @ L.T


def _cloud_hull(seed):
    """Hull of 200-1,000 seeded points near an ellipse: 110-126 vertices for
    seeds 0-5."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(200, 1001))
    ang, rad = rng.uniform(0.0, 2 * np.pi, n), rng.uniform(0.99, 1.0, n)
    T = rng.standard_normal((2, 2))
    return convex_hull(np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1) @ T.T
                       + rng.standard_normal(2))


def _active_set_cases():
    z = np.zeros(2)
    sep = oracle.SeparableSolution(alpha=1 / 8, a=1.0)
    dual = oracle.RadialProfile(alpha=1 / 8, kind="dual_translator")
    for t in 2.0 ** np.arange(8):
        yield sections.extract_section(sep, z, z, t).polygon
        yield sections.extract_section(dual, z, z, t).polygon
    for seed in range(6):
        yield _cloud_hull(seed)


def test_john_active_set_equals_full_problem():
    for poly in _active_set_cases():
        assert len(poly) >= 64  # the active set starts from a subset of the edges
        fit = sections.john_ellipsoid(poly)
        B = _full_john(poly)
        ref = B / np.sqrt(np.linalg.det(B))
        assert np.abs(fit.normalized - ref).max() <= 1e-8
        ecc = np.linalg.eigvalsh(ref).max()
        assert abs(sections.eccentricity(fit) - ecc) <= 1e-9 * ecc
        # the fit is inscribed in the whole polygon, not only in its active edges
        nrm, b = _edge_lines(poly)
        slack = b - nrm @ fit.center - np.hypot(*((fit.scale * fit.normalized) @ nrm.T))
        assert slack.min() >= -1e-10 * fit.scale


def test_eccentricity_known_axes():
    rect = lambda s1, s2: np.array([[-s1, -s2], [s1, -s2], [s1, s2], [-s1, s2]])
    fit = sections.john_ellipsoid(rect(8.0, 0.25))
    assert abs(sections.eccentricity(fit) - np.sqrt(32)) < 1e-5
    sep_fit = sections.john_ellipsoid(
        sections.extract_section(
            oracle.SeparableSolution(alpha=1 / 8, a=1.0), np.zeros(2), np.zeros(2), 1.0
        ).polygon
    )
    assert abs(sections.eccentricity(sep_fit) - 60**0.25) < 1e-5


def test_eccentricity_unimodular_equivariance():
    rng = np.random.default_rng(10)
    sec = sections.extract_section(quadratic, np.zeros(2), np.zeros(2), 1.0)
    for _ in range(5):
        T = rng.standard_normal((2, 2))
        det = np.linalg.det(T)
        if abs(det) < 0.1:
            continue
        T = T / np.sqrt(abs(det))
        if np.linalg.det(T) < 0:
            T = T[::-1]
        if np.linalg.norm(T, 2) > 10:
            continue
        fit0 = sections.john_ellipsoid(sec.polygon)
        poly = sec.polygon @ T.T
        if polygon_area(poly) <= 0:
            poly = poly[::-1]
        fit1 = sections.john_ellipsoid(poly)
        TA = T @ fit0.normalized
        expect = np.sqrt(np.linalg.eigvalsh(TA @ TA.T).max())
        assert abs(sections.eccentricity(fit1) - expect) < 1e-6 * max(1.0, expect)


def test_caffarelli_radius_formula():
    assert np.isclose(sections.caffarelli_radius(1.0, 2 * np.pi), 1 / np.sqrt(2 * np.pi))
    with pytest.raises(DivideByZeroMass):
        sections.caffarelli_radius(1.0, 0.0)


@pytest.mark.parametrize("t", [1.0, 4.0, 32.0, 128.0])
def test_balance_quadratic_family(t):
    sec, fit = sections.section_balance(quadratic, ones, np.zeros(2), np.zeros(2), t)
    assert abs(fit.k0 - np.sqrt(4 * np.pi)) < 1e-3
    assert np.isclose(fit.r, t / np.sqrt(sec.mass(ones)), rtol=1e-12)


def test_balance_unimodular_invariance():
    T = np.array([[2.0, 0.3], [0.0, 0.5]])
    T = T / np.sqrt(np.linalg.det(T))
    density = grid.RhsField("dual_translator", alpha=1 / 8, eta=1.0)
    sec = sections.extract_section(quadratic, np.zeros(2), np.zeros(2), 2.0)
    fit = sections.john_ellipsoid(sec.polygon)
    r = sections.caffarelli_radius(2.0, sec.mass(density))
    k0 = sections.balance_check(sec, fit, r)
    poly_T = sec.polygon @ T.T
    sec_T = sections.Section(
        base_point=np.zeros(2), slope=np.zeros(2), height=2.0, polygon=poly_T
    )
    fit_T = sections.john_ellipsoid(poly_T)
    Tinv = np.linalg.inv(T)
    density_T = lambda p: density(np.atleast_2d(p) @ Tinv.T)  # unimodular pushforward
    r_T = sections.caffarelli_radius(2.0, sec_T.mass(density_T))
    k0_T = sections.balance_check(sec_T, fit_T, r_T)
    assert abs(r - r_T) < 1e-9 * r
    assert abs(k0 - k0_T) < 1e-6 * k0


def test_balance_degenerate_polygon_propagates():
    with pytest.raises(DegeneratePolygon):
        sections.john_ellipsoid(np.array([[0.0, 0], [1, 0], [2, 0]]))


def test_doubling_constant_unity_density():
    est = sections.doubling_constant(ones, grid.Domain2D.disk(5.0), 150, rng_seed=1)
    assert est == 4.0


def test_doubling_deterministic_and_monotone():
    f = grid.RhsField("dual_translator", alpha=1 / 8, eta=1.0)
    dom = grid.Domain2D.disk(50.0)
    a = sections.doubling_constant(f, dom, 300, rng_seed=42)
    b = sections.doubling_constant(f, dom, 300, rng_seed=42)
    c = sections.doubling_constant(f, dom, 600, rng_seed=42)
    assert a == b
    assert c >= a


def ref_doubling_constant(f, region, n_samples, rng_seed):
    """The sampler one proposal at a time, as three generator calls, one
    containment test and two 24-point evaluations of f per ellipse."""
    rng = np.random.default_rng(rng_seed)
    lo, hi = region.bbox()
    diam = region.diameter
    pts, wts = disk_rule()
    best = 0.0
    accepted = 0
    guard = 0
    while accepted < n_samples:
        guard += 1
        if guard > 200 * n_samples:
            raise RuntimeError("ellipse sampler rejection rate too high")
        center = lo + rng.random(2) * (hi - lo)
        if not region.contains(center[None, :])[0]:
            continue
        # Generator.uniform's low + (high - low) * u, which it refuses to
        # form when diam / 4 < 1e-2, as on the guard tests' small domains
        la, lb = np.log(1e-2), np.log(diam / 4.0)
        s = np.exp(la + (lb - la) * rng.random(2))
        phi = rng.uniform(0.0, np.pi)
        cph, sph = np.cos(phi), np.sin(phi)
        T = np.array([[cph * s[0], -sph * s[1]], [sph * s[0], cph * s[1]]])
        if not ref_ellipse_inside(region, center, T):
            continue
        accepted += 1
        x_full = center + pts @ T.T
        x_half = center + 0.5 * (pts @ T.T)
        mu_full = float(wts @ np.asarray(f(x_full), dtype=float))
        mu_half = 0.25 * float(wts @ np.asarray(f(x_half), dtype=float))
        if mu_half > 0:
            best = max(best, mu_full / mu_half)
    return 4.0 if best == 0.0 else best


def ref_ellipse_inside(region, center, T) -> bool:
    if region.kind == "disk":
        smax = float(np.hypot(T[0], T[1]).max())
        return bool(np.hypot(*center) + smax <= region.size)
    ext = np.array([np.hypot(T[0, 0], T[0, 1]), np.hypot(T[1, 0], T[1, 1])])
    return bool(np.all(np.abs(center) + ext <= region.size))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "region, f",
    [
        (grid.Domain2D.disk(10.0), grid.RhsField("dual_translator", alpha=1 / 8, eta=1.0)),
        (grid.Domain2D.square(1.0), grid.RhsField("degenerate", alpha=1 / 8)),
    ],
    ids=["disk10", "square1"],
)
def test_doubling_blocks_equal_per_sample_reference(region, f, seed):
    est = sections.doubling_constant(f, region, 2000, rng_seed=seed)
    assert est == ref_doubling_constant(f, region, 2000, rng_seed=seed)


def test_doubling_pinned_estimate():
    f = grid.RhsField("dual_translator", alpha=1 / 8, eta=1.0)
    est = sections.doubling_constant(f, grid.Domain2D.disk(1000.0), 10_000, rng_seed=1)
    assert est == 59.87768719457595


def test_doubling_rejection_guard_is_typed():
    # radius 1e-3: semi-axes between diam / 4 = 5e-4 and 1e-2, and the 100th
    # ellipse that fits takes about 39,000 proposals, past the 20,000 budget
    with pytest.raises(DomainTooSmall, match="rejection rate too high"):
        sections.doubling_constant(ones, grid.Domain2D.disk(1e-3), 100, rng_seed=1)


@pytest.mark.parametrize("seed", [1, 4])
def test_doubling_guard_trips_with_the_reference(seed):
    # half-width 0.0062: the 100th ellipse comes near the 20,000-proposal
    # budget, after it at seed 1 (proposal 22,130) and before it at seed 4
    # (proposal 19,719)
    region = grid.Domain2D.square(0.0062)
    try:
        ref = ref_doubling_constant(ones, region, 100, rng_seed=seed)
    except RuntimeError:
        with pytest.raises(DomainTooSmall):
            sections.doubling_constant(ones, region, 100, rng_seed=seed)
        assert seed == 1
    else:
        assert sections.doubling_constant(ones, region, 100, rng_seed=seed) == ref


def test_doubling_degenerate_closed_form_ratio():
    # axis-centered ellipses: int |x1|^4 over E scales by 2^6 from E/2 to E
    beta = 4.0
    f = grid.RhsField("degenerate", alpha=1 / 8)
    from ma2d.geometry import disk_rule

    pts, w = disk_rule()
    T = np.diag([0.7, 1.3])
    center = np.array([0.0, 2.0])
    full = float(w @ f(center + pts @ T.T)) * 1.0
    half = 0.25 * float(w @ f(center + 0.5 * (pts @ T.T))) / 1.0
    assert np.isclose(full / half, 2.0 ** (beta + 2), rtol=1e-12)


def test_sublevel_compactness_dual_oracle(dual_profile_8):
    gf = grid.sample(dual_profile_8, grid.Domain2D.disk(8.0), 0.25)
    ok_level = float(dual_profile_8.value(4.0)[0])
    too_high = float(gf.values[gf.boundary_mask].max()) * 1.1
    verdicts = sections.sublevel_compactness(gf, [ok_level, too_high])
    assert verdicts == [True, False]


def test_sublevel_compactness_small_domain(primal_profile_8):
    gf = grid.sample(primal_profile_8, grid.Domain2D.square(1.0), 0.1)
    top = float(gf.values.max())
    assert sections.sublevel_compactness(gf, [top])[0] is False
