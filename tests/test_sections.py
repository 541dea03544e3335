import os
import re
import subprocess
import sys

import numpy as np
import pytest
from scipy import optimize

import ma2d
from ma2d import grid, ma_measure, oracle, sections
from ma2d.errors import (
    DegeneratePolygon,
    DivideByZeroMass,
    DomainTooSmall,
    NonfiniteValue,
    SectionNotCompact,
    ToolkitError,
)
from ma2d.geometry import _convex_hull as convex_hull
from ma2d.geometry import disk_rule, min_edge_cross, polygon_area, polygon_centroid

from conftest import polygon_edges, quadratic


def ones(p):
    return np.ones(len(np.atleast_2d(p)))


def john(polygon):
    """The John fit of one polygon: a stack of one."""
    return sections.john_ellipses([polygon])[0]


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


def _per_level_error(fn, levels):
    """The error of the first level whose own trace fails, one call each."""
    for t in levels:
        try:
            sections.extract_section(fn, np.zeros(2), np.zeros(2), t)
        except ToolkitError as exc:
            return exc
    raise AssertionError("no level fails")


def _raises_per_level_error(fn, levels, kind):
    """extract_sections raises what the per-level loop raises."""
    ref = _per_level_error(fn, levels)
    assert type(ref) is kind
    with pytest.raises(kind) as err:
        sections.extract_sections(fn, np.zeros(2), np.zeros(2), levels)
    assert str(err.value) == str(ref)
    return str(ref)


def _nan_beyond_one(pts):
    return np.where(np.hypot(pts[:, 0], pts[:, 1]) > 1.0, np.nan, quadratic(pts))


# the quadratic in x1 plus one that stops growing at |x2| = 2: its level
# sets above 2 are unbounded along x2
def _flat_beyond_two(pts):
    return 0.5 * pts[:, 0] ** 2 + 0.5 * np.minimum(pts[:, 1] ** 2, 4.0)


def _nan_band(pts):
    # the bracket [1, 2] misses the NaN band, and the root sqrt(2) lies in it
    r = np.hypot(pts[:, 0], pts[:, 1])
    return np.where((r > 1.40) & (r < 1.45), np.nan, quadratic(pts))


def _nan_band_flat_beyond_two(pts):
    r = np.hypot(pts[:, 0], pts[:, 1])
    return np.where((r > 1.40) & (r < 1.45), np.nan, _flat_beyond_two(pts))


def test_callable_section_nan_raises_nonfinite():
    # one level; several, of which only the highest fails; the first failing
    for levels in ([1.0], [0.125, 0.25, 1.0], [1.0, 0.25]):
        message = _raises_per_level_error(_nan_beyond_one, levels, NonfiniteValue)
        assert "direction 0.000" in message


@pytest.mark.parametrize("t, radius", [(0.5, 1.0), (2.0, 2.0)])
def test_callable_section_root_at_bracket_end(t, radius):
    # the doubling bracket ends at s = radius, where w is 0 up to the
    # rounding of cos^2 + sin^2 (exactly 0 on 401 of the 512 rays)
    sec = sections.extract_section(quadratic, np.zeros(2), np.zeros(2), t)
    assert np.abs(np.hypot(*sec.polygon.T) - radius).max() <= 1e-15


def test_callable_section_nan_in_root_phase_raises_nonfinite():
    for levels in ([1.0], [0.25, 1.0]):
        message = _raises_per_level_error(_nan_band, levels, NonfiniteValue)
        assert re.search(r"direction \d\.\d{3} at radius 1\.4", message)


def test_callable_section_not_compact_names_direction():
    def x1_squared(pts):
        return pts[:, 0] ** 2

    message = _raises_per_level_error(x1_squared, [1.0], SectionNotCompact)
    assert "direction 1.571" in message
    message = _raises_per_level_error(_flat_beyond_two, [0.5, 1.0, 8.0], SectionNotCompact)
    assert "direction 1.571" in message


def test_callable_sections_raise_the_lowest_failing_level():
    # level 1 fails in its root search and level 8 in its bracket, which the
    # batched trace finishes first: the error is level 1's, as level by level
    _raises_per_level_error(_nan_band_flat_beyond_two, [1.0, 8.0], NonfiniteValue)
    _raises_per_level_error(_nan_band_flat_beyond_two, [0.5, 8.0], SectionNotCompact)


def _pl_quadratic():
    h = 0.5
    g = np.arange(-8, 9) * h
    sites = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    return ma_measure.lower_envelope(sites, quadratic(sites))


@pytest.mark.parametrize("name", ["radial_dual", "radial_primal", "separable", "pl"])
def test_callable_sections_equal_one_level_at_a_time(name):
    fn = {
        "radial_dual": oracle.RadialProfile(alpha=1 / 8, kind="dual_translator"),
        "radial_primal": oracle.RadialProfile(alpha=1 / 8, kind="primal_translator"),
        "separable": oracle.SeparableSolution(alpha=1 / 8, a=1.0),
        "pl": _pl_quadratic(),
    }[name]
    levels = 2.0 ** np.arange(-2, 3) if name == "pl" else 2.0 ** np.arange(8)
    zero = np.zeros(2)
    secs = sections.extract_sections(fn, zero, zero, levels)
    assert [sec.height for sec in secs] == levels.tolist()
    for sec, t in zip(secs, levels):
        one = sections.extract_section(fn, zero, zero, t)
        assert np.array_equal(sec.polygon.view(np.int64), one.polygon.view(np.int64))


def test_import_leaves_scipy_optimize_unloaded():
    # the child imports the same ma2d package as this test run
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(ma2d.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [pkg_root, os.environ.get("PYTHONPATH")])))
    # and the John fits of a cascade and of a balance step load none either
    code = "\n".join([
        "import sys, numpy as np, ma2d",
        "from ma2d import analysis, grid, oracle, sections",
        "print('scipy.optimize' in sys.modules)",
        "z = np.zeros(2)",
        "gf = grid.sample(lambda p: 0.5 * (p ** 2).sum(axis=1), grid.Domain2D.disk(3.0), 0.25)",
        "for v in (oracle.RadialProfile(alpha=0.125, kind='dual_translator'), gf):",
        "    analysis.eccentricity_cascade(v, z, z, [0.5, 1.0, 2.0])",
        "    sections.section_balance(v, lambda p: np.ones(len(p)), z, z, 1.0)",
        "print('scipy.optimize' in sys.modules)",
    ])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.split() == ["False", "False"]


def test_john_square_is_unit_disk():
    fit = john(np.array([[-1.0, -1], [1, -1], [1, 1], [-1, 1]]))
    assert np.abs(fit.shape_matrix - np.eye(2)).max() < 1e-7
    assert abs(sections.eccentricity(fit) - 1.0) < 1e-7


def test_john_rectangle_axes():
    fit = john(np.array([[-2.0, -1], [2, -1], [2, 1], [-2, 1]]))
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
        fit = john(tri)
        area = np.pi / np.sqrt(np.linalg.det(fit.shape_matrix))
        assert np.abs(fit.center - tri.mean(axis=0)).max() < 1e-7
        assert abs(area - np.pi * abs(s) / (3 * np.sqrt(3))) < 1e-7 * abs(s)
        done += 1


def test_john_containment_two_sided():
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((12, 2))
    from ma2d.geometry import _convex_hull as convex_hull

    poly = convex_hull(pts)
    fit = john(poly)
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
    """Reference fit: the John problem over every edge at once, by SLSQP
    from the centroid's inscribed disk, in the frame moved to the centroid
    and scaled to unit extent, where its absolute tolerances are relative
    ones.  Returns B of the ellipse c + B(unit disk), and fails unless SLSQP
    reports success."""
    c0 = polygon_centroid(poly)
    extent = float(np.abs(poly - c0).max())
    nrm, b = _edge_lines((poly - c0) / extent)
    r0 = float(np.min(b))

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
        np.array([0.0, 0.0, 0.5 * r0, 0.0, 0.5 * r0]),
        jac=lambda z: np.array([0.0, 0.0, -1.0 / z[2], 0.0, -1.0 / z[4]]),
        method="SLSQP",
        constraints=[{"type": "ineq", "fun": slack, "jac": slack_jac}],
        bounds=[(None, None), (None, None), (1e-12, None), (None, None), (1e-12, None)],
        options={"maxiter": 400, "ftol": 1e-12},
    )
    if not res.success:
        raise AssertionError(f"SLSQP reference fit failed: {res.message}")
    L = chol(res.x)
    return extent * (L @ L.T)


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


def _rectangle(s1, s2):
    return np.array([[-s1, -s2], [s1, -s2], [s1, s2], [-s1, s2]])


def _small_cases():
    """Polygons of the John tests below: all their edges are active."""
    yield _rectangle(1.0, 1.0)
    yield _rectangle(2.0, 1.0)
    yield _rectangle(8.0, 0.25)
    yield np.array([[0.0, 0.0], [3.0, 0.5], [1.0, 2.0]])
    yield convex_hull(np.random.default_rng(9).standard_normal((12, 2)))


def _tiny_hull():
    """A 13-vertex hull of extent 0.01, away from the origin."""
    rng = np.random.default_rng(13)
    ang = np.sort(rng.uniform(0.0, 2 * np.pi, 13))
    pts = np.stack([np.cos(ang), np.sin(ang)], axis=1) @ rng.standard_normal((2, 2))
    return convex_hull(0.01 * pts / np.abs(pts).max() + np.array([0.7, -0.4]))


def _grid_cases(solved):
    """The 8 sections of the solved dual at the cascade's levels, from its
    minimum node: those of the benchmark's grid cascade and balance loop."""
    gf = solved[1].grid
    x0, zero = gf.nodes[gf.argmin_node()], np.zeros(2)
    return [sec.polygon for sec in sections.extract_sections(gf, x0, zero, 2.0 ** np.arange(8))]


def test_john_active_set_equals_full_problem(solved_dual_disk8):
    # the interior-point fit of the active set against SLSQP on every edge:
    # the callable sections and grid sections of the cascades, hulls of
    # point clouds, the small polygons of the tests below and a hull of
    # extent 0.01
    polys = (list(_active_set_cases()) + _grid_cases(solved_dual_disk8) + list(_small_cases())
             + [_tiny_hull()])
    for poly, fit in zip(polys, sections.john_ellipses(polys)):
        B = _full_john(poly)
        # log det B of the fit's ellipse c + B(unit disk) is 2 log(scale)
        assert abs(2.0 * np.log(fit.scale) - np.log(np.linalg.det(B))) <= 1e-9
        ref = B / np.sqrt(np.linalg.det(B))
        assert np.abs(fit.normalized - ref).max() <= 1e-8
        ecc = np.linalg.eigvalsh(ref).max()
        assert abs(sections.eccentricity(fit) - ecc) <= 1e-9 * ecc
        # the fit is inscribed in the whole polygon, not only in its active edges
        nrm, b = _edge_lines(poly)
        slack = b - nrm @ fit.center - np.hypot(*((fit.scale * fit.normalized) @ nrm.T))
        assert slack.min() >= -1e-12 * np.abs(b).max()


def test_john_fit_one_at_a_time_equals_the_stack():
    # alone or padded in a stack, a fit stops at its own point within the
    # tolerance: log det B is flat to second order in a rotation of the
    # ellipse, which moves the normalized matrix's off-diagonal most
    polys = list(_active_set_cases())[:6]
    for poly, fit in zip(polys, sections.john_ellipses(polys)):
        one = john(poly)
        assert abs(one.scale - fit.scale) <= 1e-10 * fit.scale
        assert abs(sections.eccentricity(one) - sections.eccentricity(fit)) <= 1e-9
        assert np.abs(one.normalized - fit.normalized).max() <= 1e-7


def test_john_solve_meets_its_first_order_bound(solved_dual_disk8):
    # the stopping rule of the interior-point solve, recomputed here from
    # its x = (c, B) and multipliers on every edge of the whitened polygon
    polys = list(_active_set_cases()) + _grid_cases(solved_dual_disk8) + list(_small_cases())
    for poly in polys:
        f = sections._edge_frame(poly)
        x, lam, _, _ = sections._john_solve(f.a[None], f.d[None])
        (c1, c2, p, q, r), lam, a = x[0], lam[0], f.a
        B = np.array([[p, q], [q, r]])
        v = a @ B
        n = np.hypot(v[:, 0], v[:, 1])
        s = f.d - a @ [c1, c2] - n
        assert s.min() > 0 and lam.min() > 0
        assert lam @ s <= 1e-10  # the gap bounds log det B below its optimum
        u1, u2 = v[:, 0] / n, v[:, 1] / n
        minus_grad_s = np.stack([a[:, 0], a[:, 1], u1 * a[:, 0], u1 * a[:, 1] + u2 * a[:, 0],
                                 u2 * a[:, 1]], axis=1)
        Bi = np.linalg.inv(B)
        grad_f = np.array([0.0, 0.0, -Bi[0, 0], -2.0 * Bi[0, 1], -Bi[1, 1]])
        assert np.abs(grad_f + lam @ minus_grad_s).max() <= 1e-9


def test_eccentricity_known_axes():
    rect = lambda s1, s2: np.array([[-s1, -s2], [s1, -s2], [s1, s2], [-s1, s2]])
    fit = john(rect(8.0, 0.25))
    assert abs(sections.eccentricity(fit) - np.sqrt(32)) < 1e-5
    sep_fit = john(
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
        fit0 = john(sec.polygon)
        poly = sec.polygon @ T.T
        if polygon_area(poly) <= 0:
            poly = poly[::-1]
        fit1 = john(poly)
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
    fit = john(sec.polygon)
    r = sections.caffarelli_radius(2.0, sec.mass(density))
    k0 = sections.balance_check(sec, fit, r)
    poly_T = sec.polygon @ T.T
    sec_T = sections.Section(
        base_point=np.zeros(2), slope=np.zeros(2), height=2.0, polygon=poly_T
    )
    fit_T = john(poly_T)
    Tinv = np.linalg.inv(T)
    density_T = lambda p: density(np.atleast_2d(p) @ Tinv.T)  # unimodular pushforward
    r_T = sections.caffarelli_radius(2.0, sec_T.mass(density_T))
    k0_T = sections.balance_check(sec_T, fit_T, r_T)
    assert abs(r - r_T) < 1e-9 * r
    assert abs(k0 - k0_T) < 1e-6 * k0


def test_balance_degenerate_polygon_propagates():
    with pytest.raises(DegeneratePolygon):
        john(np.array([[0.0, 0], [1, 0], [2, 0]]))


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
    diam = region.diameter
    if diam / 4.0 < 1e-2:
        raise DomainTooSmall("the semi-axes' interval [1e-2, diam/4] is empty")
    rng = np.random.default_rng(rng_seed)
    lo, hi = region.bbox()
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
        # Generator.uniform's low + (high - low) * u
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
    # radius 1e-3: diam / 4 = 5e-4, below the least semi-axis 1e-2, so there
    # is no interval to draw from, and the sampler says so before it draws
    def f(x):
        raise AssertionError("evaluated a field")

    with pytest.raises(DomainTooSmall, match=r"\[1e-2, diam/4\] = \[0.01, 0.0005\] is empty"):
        sections.doubling_constant(f, grid.Domain2D.disk(1e-3), 100, rng_seed=1)


@pytest.mark.parametrize("seed", [1, 4])
def test_doubling_guard_trips_with_the_reference(seed):
    # half-width 0.0062: diam / 4 = 0.0044, an empty interval of semi-axes,
    # which the sampler and the reference refuse alike, at every seed
    region = grid.Domain2D.square(0.0062)
    with pytest.raises(DomainTooSmall, match="is empty"):
        ref_doubling_constant(ones, region, 100, rng_seed=seed)
    with pytest.raises(DomainTooSmall, match=r"\[0.01, 0.00438\] is empty"):
        sections.doubling_constant(ones, region, 100, rng_seed=seed)


def test_doubling_at_the_least_diameter_equals_the_reference():
    # radius 0.02: diam / 4 = 1e-2, so every semi-axis is 1e-2
    region = grid.Domain2D.disk(0.02)
    est = sections.doubling_constant(ones, region, 100, rng_seed=3)
    assert est == ref_doubling_constant(ones, region, 100, rng_seed=3)


@pytest.mark.parametrize("seed", [1, 2])
def test_doubling_budget_guard_when_no_ellipse_fits(monkeypatch, seed):
    # every proposal fails containment: the sampler walks exactly the
    # reference's 200 * n_samples proposals, testing the ellipses of the
    # same ones (those centred in the region), and never evaluates the field
    seen, ref_seen = [], []

    def inside(region, centers, T):
        seen.append(len(centers))
        return np.zeros(len(centers), dtype=bool)

    def ref_inside(region, center, T):
        ref_seen.append(center)
        return False

    def f(x):
        raise AssertionError("evaluated a field")

    region = grid.Domain2D.disk(1.0)
    monkeypatch.setattr(sections, "_ellipses_inside", inside)
    monkeypatch.setitem(globals(), "ref_ellipse_inside", ref_inside)
    with pytest.raises(RuntimeError, match="rejection rate too high"):
        ref_doubling_constant(f, region, 100, rng_seed=seed)
    with pytest.raises(DomainTooSmall, match="rejection rate too high"):
        sections.doubling_constant(f, region, 100, rng_seed=seed)
    # about pi / 4 of the 20,000 proposals are centred in the disk
    assert 15_000 < len(ref_seen) < 16_500
    assert sum(seen) == len(ref_seen)


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
