import ast
import inspect
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st
from scipy.spatial import QhullError

from ma2d import grid, ma_measure as mm, solver
from ma2d.errors import DegenerateInput
from ma2d.geometry import _convex_hull as convex_hull
from ma2d.geometry import (
    cyclic_successor,
    polygon_area,
    polygon_quadrature,
    triangle_rule,
)

from conftest import quadratic


def lattice(hw, h):
    return grid.sample(lambda p: np.zeros(len(p)), grid.Domain2D.square(hw), h).nodes


def cell_polygons(cells):
    """Each cell's polygon, a view of ``cells.vertices``."""
    ends = np.cumsum(cells.counts)
    return [cells.vertices[e - k:e] for k, e in zip(cells.counts, ends)]


def cell_at(f, point, atol=1e-8):
    """Position in ``f.cells`` of the first cell whose site is close to the point."""
    near = np.isclose(f.sites[f.cells.sites], point, atol=atol).all(axis=1)
    return np.flatnonzero(near)[0]


def cell_arrays(polygons, areas):
    """Hand-built ``_CellArrays`` of sites 0, 1, ... with these polygons and areas."""
    polys = [np.asarray(p, dtype=float).reshape(-1, 2) for p in polygons]
    return mm._CellArrays(sites=np.arange(len(polys)), counts=np.array([len(p) for p in polys]),
                          vertices=np.concatenate(polys + [np.empty((0, 2))]),
                          areas=np.array(areas, dtype=float))


def test_flat_square_two_faces():
    sites = np.array([[-1.0, -1], [1, -1], [1, 1], [-1, 1]])
    f = mm.lower_envelope(sites, np.zeros(4))
    assert len(f.triangulation) == 2
    assert np.abs(f.gradients).max() == 0.0
    assert np.array_equal(np.unique(f.triangulation), np.arange(4))  # every site a vertex


def test_pyramid_four_faces_center_cell():
    sites = np.array([[-1.0, -1], [1, -1], [1, 1], [-1, 1], [0, 0]])
    f = mm.lower_envelope(sites, np.array([1.0, 1, 1, 1, 0]))
    assert len(f.triangulation) == 4
    assert f.cells.sites.tolist() == [4]
    assert f.cells.areas[0] == 2.0  # hull of four face gradients (+-1, 0), (0, +-1)


def test_random_quadratic_all_active():
    rng = np.random.default_rng(1)
    sites = rng.uniform(-1, 1, size=(100, 2))
    heights = quadratic(sites)
    f = mm.lower_envelope(sites, heights)
    assert np.array_equal(np.unique(f.triangulation), np.arange(100))  # every site a vertex
    # brute check: all sites on their own envelope
    assert np.max(np.abs(f(sites) - heights)) <= 1e-9


def test_affine_zero_cells():
    sites = lattice(1.0, 0.25)
    f = mm.lower_envelope(sites, 0.3 * sites[:, 0] - 0.7 * sites[:, 1] + 0.1)
    assert np.all(f.cells.areas <= 1e-20)


def test_anisotropic_quadratic_cell_area():
    h = 0.1
    sites = lattice(0.5, h)
    heights = 0.5 * (2 * sites[:, 0] ** 2 + 3 * sites[:, 1] ** 2)
    f = mm.lower_envelope(sites, heights)
    mid = f.cells.areas[cell_at(f, 0.0)]
    assert abs(mid - 6 * h * h) <= 0.1 * 6 * h * h  # det D2 v * h^2


def test_collinear_sites_rejected():
    sites = np.stack([np.linspace(0, 1, 5), np.linspace(0, 2, 5)], axis=1)
    with pytest.raises(DegenerateInput):
        mm.lower_envelope(sites, np.zeros(5))


def clip_convex(subject, clipper):
    """Intersection of two ccw convex polygons (Sutherland-Hodgman), a
    reference independent of the package's geometry."""
    poly = np.asarray(subject, dtype=float)
    for a, b in zip(clipper, np.roll(clipper, -1, axis=0)):
        if len(poly) == 0:
            break
        # keep the left side of the directed clipper edge a -> b
        s = (b[0] - a[0]) * (poly[:, 1] - a[1]) - (b[1] - a[1]) * (poly[:, 0] - a[0])
        out = []
        for i in range(len(poly)):
            j = (i + 1) % len(poly)
            if s[i] >= 0:
                out.append(poly[i])
            if (s[i] >= 0) != (s[j] >= 0):
                out.append(poly[i] + s[i] / (s[i] - s[j]) * (poly[j] - poly[i]))
        poly = np.array(out).reshape(-1, 2)
    return poly


def test_cells_disjoint_interiors():
    rng = np.random.default_rng(2)
    sites = rng.uniform(-1, 1, size=(40, 2))
    f = mm.lower_envelope(sites, quadratic(sites) + 0.05 * rng.standard_normal(40))
    cells = [(p, area) for p, area in zip(cell_polygons(f.cells), f.cells.areas) if area > 1e-12]
    for a in range(len(cells)):
        for b in range(a + 1, len(cells)):
            inter = clip_convex(cells[a][0], cells[b][0])
            assert polygon_area(inter) <= 1e-10 * max(cells[a][1], cells[b][1])


def test_cone_apex_mass_converges_to_pi():
    gf = grid.sample(
        lambda p: np.hypot(p[:, 0], p[:, 1]), grid.Domain2D.disk(1.0), 0.02
    )
    f = mm.lower_envelope(gf.nodes, gf.values)
    apex = f.cells.areas[cell_at(f, 0.0)]
    assert abs(apex - np.pi) < 0.05 * np.pi


def test_mass_additivity():
    rng = np.random.default_rng(3)
    sites = rng.uniform(-1, 1, size=(60, 2))
    f = mm.lower_envelope(sites, quadratic(sites))
    areas = f.cells.areas
    half = len(areas) // 2
    assert np.isclose(areas[:half].sum() + areas[half:].sum(), areas.sum())


def test_weighted_mass_constant_equals_area():
    rng = np.random.default_rng(4)
    sites = rng.uniform(-1, 1, size=(50, 2))
    f = mm.lower_envelope(sites, quadratic(sites))
    w = mm.weighted_mass(f.cells, lambda y: np.ones(len(y)))
    assert np.allclose(w, f.cells.areas, rtol=1e-12, atol=1e-15)


def test_weighted_mass_linear_exact():
    cells = cell_arrays([[[0.0, 0], [1, 0], [1, 1], [0, 1]]], [1.0])
    out = mm.weighted_mass(cells, lambda y: y[:, 0])
    assert np.isclose(out[0], 0.5, rtol=1e-14)


def test_gauss_map_mass_cone_closed_form():
    gf = grid.sample(
        lambda p: np.hypot(p[:, 0], p[:, 1]), grid.Domain2D.disk(1.0), 0.02
    )
    f = mm.lower_envelope(gf.nodes, gf.values)
    apex = cell_at(f, 0.0)
    got = mm.weighted_mass(f.cells, _gauss_weight)[apex]
    expect = 2 * np.pi * (1 - 1 / np.sqrt(2))  # radial integral over the unit disk
    assert abs(got - expect) < 0.05 * expect
    # the apex cell alone, 4,776 vertices, in closed form: its geodesic
    # polygon's Girard excess, and the fan rule refined three times, whose
    # long thin triangles leave it 2e-9 off
    poly = cell_polygons(f.cells)[apex]
    closed = mm.gauss_map_mass(cell_arrays([poly], [f.cells.areas[apex]]))
    assert abs(closed - girard_excess(poly)) < 1e-12
    assert abs(closed - refined_fan_mass(cell_arrays([poly], [1.0]), 3)) < 1e-8 * closed
    assert abs(closed - expect) < 0.05 * expect


def girard_excess(poly):
    """Girard's theorem: the area of the geodesic polygon whose vertices are
    the unit normals (y, -1) / sqrt(1 + |y|^2) of a convex polygon's
    vertices y is its interior angles' sum minus (n - 2) pi.  The angle at a
    vertex u is the one between the planes u x (previous) and u x (next)."""
    u = np.column_stack([poly, -np.ones(len(poly))])
    u /= np.linalg.norm(u, axis=1)[:, None]
    back, ahead = np.cross(u, np.roll(u, 1, axis=0)), np.cross(u, np.roll(u, -1, axis=0))
    angles = np.arctan2(np.linalg.norm(np.cross(back, ahead), axis=1),
                        np.einsum("ij,ij->i", back, ahead))
    return float(angles.sum() - (len(poly) - 2) * np.pi)


def refined_fan_mass(cells, levels):
    """The Gauss-map mass by the degree-4 rule on the fan from each full
    cell's first vertex, each triangle split 4 ways ``levels`` times."""
    full = (cells.areas > 0.0) & (cells.counts >= 3)
    tris = []
    for poly in (p for p, keep in zip(cell_polygons(cells), full) if keep):
        tris += [(poly[0], poly[j], poly[j + 1]) for j in range(1, len(poly) - 1)]
    tris = np.array(tris, dtype=float).reshape(-1, 3, 2)
    for _ in range(levels):
        p, q, r = tris[:, 0], tris[:, 1], tris[:, 2]
        pq, qr, rp = (p + q) / 2, (q + r) / 2, (r + p) / 2
        tris = np.concatenate([np.stack(t, axis=1) for t in
                               ((p, pq, rp), (pq, q, qr), (rp, qr, r), (qr, rp, pq))])
    bary, w = triangle_rule(4)
    nodes = np.einsum("kj,njd->nkd", bary, tris).reshape(-1, 2)
    e, g = tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]
    areas = 0.5 * (e[:, 0] * g[:, 1] - e[:, 1] * g[:, 0])
    return float(areas @ (_gauss_weight(nodes).reshape(len(tris), -1) @ w))


_CENTRES = [(0.0, 0.0), (0.3, -0.2), (2.0, 1.0), (-3.0, 1.5)]


@pytest.mark.parametrize("centre", _CENTRES)
def test_gauss_map_mass_of_regular_polygons_is_girard_excess(centre):
    # radii from a small cell to one whose image reaches past 80 degrees
    # from the pole, where a fan triangle's 1 + a.b + b.c + c.a turns negative
    for radius in (0.05, 0.5, 2.0, 7.0):
        for n in (3, 4, 5, 7, 12):
            t = 0.3 + 2 * np.pi * np.arange(n) / n
            poly = np.array(centre) + radius * np.column_stack([np.cos(t), np.sin(t)])
            got = mm.gauss_map_mass(cell_arrays([poly], [polygon_area(poly)]))
            assert abs(got - girard_excess(poly)) < 1e-13, (radius, n)


def test_gauss_map_mass_against_the_refined_fan(primal_profile_8):
    # criterion 05's cells: the fan rule from each first vertex, refined
    # twice, gives the reference; the degree-4 centroid fan alone is 7e-9 off
    cells = _primal_translator(primal_profile_8).cells
    ref = refined_fan_mass(cells, 2)
    assert abs(ref - 1.3865935403922605) < 1e-15 * ref
    got = mm.gauss_map_mass(cells)
    assert abs(got - ref) < 1e-10 * ref
    assert got <= 2 * np.pi


def test_gauss_map_mass_of_degenerate_cells_is_zero():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    line = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])  # collinear, area marked > 0
    polygons = [[], tri[:1], tri[:2], tri, tri, line]
    areas = [0.0, 0.0, 0.5, 0.0, float("nan"), 1.0]
    for poly, area in zip(polygons, areas):
        assert mm.gauss_map_mass(cell_arrays([poly], [area])) == 0.0
    alone = mm.gauss_map_mass(cell_arrays([tri + 0.5], [0.5]))
    assert alone > 0.0
    mixed = cell_arrays(polygons[:3] + [tri + 0.5] + polygons[3:], areas[:3] + [0.5] + areas[3:])
    assert mm.gauss_map_mass(mixed) == alone
    assert mm.gauss_map_mass(cell_arrays([], [])) == 0.0


def test_gauss_map_mass_flat_zero_and_hemisphere_bound():
    sites = np.array([[-1.0, -1], [1, -1], [1, 1], [-1, 1], [0.2, 0.1]])
    f = mm.lower_envelope(sites, np.zeros(5))
    assert mm.gauss_map_mass(f.cells) == 0.0
    rng = np.random.default_rng(5)
    for _ in range(10):
        pts = rng.uniform(-2, 2, size=(30, 2))
        hts = rng.standard_normal(30)
        pl = mm.lower_envelope(pts, hts)
        total = mm.gauss_map_mass(pl.cells)
        assert total <= 2 * np.pi + 0.05


def test_affine_invariance_exact():
    rng = np.random.default_rng(6)
    sites = rng.uniform(-1, 1, size=(50, 2))
    heights = quadratic(sites)
    base = mm.ma_measure(mm.lower_envelope(sites, heights))
    shifted = mm.ma_measure(
        mm.lower_envelope(sites, heights + 0.7 * sites[:, 0] - 1.3 * sites[:, 1] + 2.0)
    )
    assert np.allclose(base, shifted, rtol=1e-11, atol=1e-15)


def test_unimodular_equivariance():
    rng = np.random.default_rng(7)
    sites = rng.uniform(-1, 1, size=(60, 2))
    heights = quadratic(sites)
    A = np.array([[1.0, 0.8], [0.0, 1.0]])  # det 1 shear
    base = mm.ma_measure(mm.lower_envelope(sites, heights))
    sheared = mm.ma_measure(mm.lower_envelope(sites @ A.T, heights))
    assert np.allclose(base, sheared, rtol=1e-9, atol=1e-14)


def test_mass_monotone_under_subset():
    rng = np.random.default_rng(8)
    sites = rng.uniform(-1, 1, size=(40, 2))
    f = mm.lower_envelope(sites, quadratic(sites))
    areas = f.cells.areas
    assert areas[:5].sum() <= areas[:15].sum() <= areas.sum()


def test_refinement_cell_over_lattice_area():
    # interior cell area / h^2 approaches det D2 v(0) = 6 under refinement
    errs = []
    for h in (0.2, 0.1):
        sites = lattice(1.0, h)
        heights = 0.5 * (2 * sites[:, 0] ** 2 + 3 * sites[:, 1] ** 2) + 0.1 * np.sin(
            sites[:, 0]
        )
        f = mm.lower_envelope(sites, heights)
        mid = f.cells.areas[cell_at(f, 0.0, atol=1e-12)]
        errs.append(abs(mid / h**2 - 6.0))
    assert errs[1] <= errs[0] + 1e-12


def test_translator_identity_radial(primal_profile_8):
    gf = grid.sample(primal_profile_8, grid.Domain2D.disk(1.0), 0.04)
    pl = mm.lower_envelope(gf.nodes, gf.values)
    radii = np.hypot(gf.nodes[:, 0], gf.nodes[:, 1])
    subset = np.flatnonzero((radii >= 0.3) & (radii <= 0.7) & pl.hull_interior)
    rep = mm.check_translator_identity(pl, 1 / 8, subset)
    assert rep.relative_residual < 0.03


def test_translator_identity_on_every_cpu_equals_one_worker(primal_profile_8, monkeypatch):
    # the acceptance criterion's problem: the report of the all-CPU
    # nearest-site query is that of a one-worker query, bit for bit
    gf = grid.sample(primal_profile_8, grid.Domain2D.disk(1.0), 0.02)
    pl = mm.lower_envelope(gf.nodes, gf.values)
    radii = np.hypot(gf.nodes[:, 0], gf.nodes[:, 1])
    subset = np.flatnonzero((radii >= 0.3) & (radii <= 0.7) & pl.hull_interior)
    workers = []
    base = mm.cKDTree

    class Tree(base):
        def query(self, x, **kw):
            workers.append(kw.get("workers"))
            return super().query(x, **kw)

    monkeypatch.setattr(mm, "cKDTree", Tree)
    every = mm.check_translator_identity(pl, 1 / 8, subset)

    class OneWorker(base):
        def query(self, x, **kw):
            return super().query(x, **dict(kw, workers=1))

    monkeypatch.setattr(mm, "cKDTree", OneWorker)
    one = mm.check_translator_identity(pl, 1 / 8, subset)
    assert workers and all(w == -1 for w in workers)  # every query, on every CPU
    for name in ("measure_side", "integral_side", "residual", "relative_residual"):
        assert np.float64(getattr(every, name)).view(np.int64) == np.float64(
            getattr(one, name)).view(np.int64)


def rule_points(f):
    """The degree-2 rule nodes of every face of ``f``, node k next to the
    face's vertex k, and that vertex: the points and candidate sites of
    ``check_translator_identity``'s nearest-site query."""
    bary, _ = triangle_rule(2)
    a, b, c = (f.sites[f.triangulation[:, k]] for k in range(3))
    pts = bary[:, 0, None, None] * a + bary[:, 1, None, None] * b + bary[:, 2, None, None] * c
    return pts.reshape(-1, 2), f.triangulation.T.ravel()


def counted_owners(sites, points, near, monkeypatch):
    """``_nearest_sites`` and the number of points it put to the full query."""
    asked = []
    base = mm.cKDTree

    class Tree(base):
        def query(self, x, k=1, **kw):
            if k == 1:
                asked.append(len(x))
            return super().query(x, k=k, **kw)

    with monkeypatch.context() as m:
        m.setattr(mm, "cKDTree", Tree)
        owner = mm._nearest_sites(sites, points, near)
    return owner, sum(asked)


def assert_owners_are_the_query(sites, points, near, monkeypatch):
    owner, fallback = counted_owners(sites, points, near, monkeypatch)
    want = mm.cKDTree(sites).query(points)[1]
    assert owner.dtype == want.dtype and np.array_equal(owner, want)
    return fallback


def _sliver_envelope():
    # a lattice square and one site 1e-3 below its bottom edge: the sliver
    # face on the hull boundary puts rule nodes past half its short gaps
    sites = np.vstack([lattice(1.0, 0.25), [[0.1, -1.001]]])
    return mm.lower_envelope(sites, quadratic(sites))


def test_nearest_sites_of_the_acceptance_problem(primal_profile_8, monkeypatch):
    f = _primal_translator(primal_profile_8)
    points, near = rule_points(f)
    fallback = assert_owners_are_the_query(f.sites, points, near, monkeypatch)
    assert 0 < fallback < len(points) // 10


def test_nearest_sites_of_duplicated_sites(monkeypatch):
    # every site twice: gap 0, so no point is certified and the query
    # decides, as it does between the copies
    f = _lattice_quadratic()
    points, near = rule_points(f)
    sites = np.vstack([f.sites, f.sites[::-1]])
    fallback = assert_owners_are_the_query(sites, points, near, monkeypatch)
    assert fallback == len(points)
    half = np.vstack([f.sites, f.sites[:7]])  # a few copies: the rest stays certified
    fallback = assert_owners_are_the_query(half, points, near, monkeypatch)
    assert 0 < fallback < len(points)


def test_nearest_sites_fall_back_on_a_sliver(monkeypatch):
    f = _sliver_envelope()
    points, near = rule_points(f)
    assert assert_owners_are_the_query(f.sites, points, near, monkeypatch) > 0


def test_nearest_sites_of_a_square_lattice_need_no_query(monkeypatch):
    f = mm.lower_envelope(lattice(1.0, 0.1), quadratic(lattice(1.0, 0.1)))
    points, near = rule_points(f)
    assert assert_owners_are_the_query(f.sites, points, near, monkeypatch) == 0


def test_translator_identity_affine_detects_nonsolution():
    sites = lattice(1.0, 0.25)
    pl = mm.lower_envelope(sites, 0.5 * sites[:, 0])
    subset = np.flatnonzero(pl.hull_interior)
    rep = mm.check_translator_identity(pl, 1 / 8, subset)
    assert rep.measure_side == 0.0
    assert rep.integral_side > 0.0
    assert rep.residual == rep.integral_side


def test_translator_identity_quadratic_alpha_quarter():
    h = 0.1
    sites = lattice(1.0, h)
    pl = mm.lower_envelope(sites, quadratic(sites))
    subset = np.flatnonzero(pl.hull_interior)
    rep = mm.check_translator_identity(pl, 0.25, subset)  # weight = 1: mass vs area
    assert rep.residual < 2 * h * 8.0  # perimeter of the unit square is 8


# ---------------------------------------------------------------------------
# array core against the per-site monotone-chain reference
# ---------------------------------------------------------------------------

def reference_cells(f):
    """The per-site loop: monotone chain and shoelace of each site's face gradients."""
    inc = [[] for _ in range(len(f.sites))]
    for k, tri in enumerate(f.triangulation):
        for s in tri:
            inc[s].append(k)
    out = []
    for i in np.flatnonzero(f.hull_interior):
        poly = convex_hull(f.gradients[inc[i]]) if inc[i] else np.empty((0, 2))
        out.append((int(i), poly, polygon_area(poly)))
    return out


def assert_matches_reference(f):
    ref = reference_cells(f)
    cells = f.cells
    assert cells.sites.tolist() == [i for i, _, _ in ref]
    for poly, area, (_, want, want_area) in zip(cell_polygons(cells), cells.areas, ref):
        assert poly.shape == want.shape and np.array_equal(poly, want)
        # one area rule: the shoelace about the first vertex, summed by
        # np.add.reduceat, in the array core's cells and in
        # ``polygon_area``
        assert np.float64(area).view(np.int64) == np.float64(want_area).view(np.int64)
    return cells


def _gauss_weight(y):
    return (1.0 + y[:, 0] ** 2 + y[:, 1] ** 2) ** (-1.5)


def _lattice_quadratic():
    sites = lattice(1.0, 0.1)
    return mm.lower_envelope(sites, quadratic(sites))


def _random_inactive():
    rng = np.random.default_rng(11)
    sites = rng.uniform(-1, 1, size=(200, 2))
    f = mm.lower_envelope(sites, quadratic(sites) + 0.2 * rng.standard_normal(200))
    on_envelope = np.isin(np.arange(200), f.triangulation)
    assert not on_envelope[f.hull_interior].all()
    return f


def _primal_translator(primal_profile_8):
    gf = grid.sample(primal_profile_8, grid.Domain2D.disk(1.0), 0.02)
    return mm.lower_envelope(gf.nodes, gf.values)


@pytest.mark.parametrize("case", ["dual_disk", "primal_translator", "quadratic_lattice",
                                  "random_inactive"])
def test_array_core_matches_reference(case, request):
    if case == "dual_disk":
        f = request.getfixturevalue("solved_dual_disk8")[1].function
    elif case == "primal_translator":
        f = _primal_translator(request.getfixturevalue("primal_profile_8"))
    elif case == "quadratic_lattice":
        f = _lattice_quadratic()  # Qhull's Qt repeats gradients on cocircular quads
    else:
        f = _random_inactive()
    cells = assert_matches_reference(f)
    got = mm.weighted_mass(cells, _gauss_weight)
    want = np.array([
        polygon_quadrature(poly, _gauss_weight) if area > 0.0 and len(poly) >= 3 else 0.0
        for poly, area in zip(cell_polygons(cells), cells.areas)
    ])
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)
    masses = mm.ma_measure(f)
    assert np.array_equal(masses[cells.sites], cells.areas)


def test_fallback_cells_spliced_into_a_solved_envelope():
    # the solved envelope of a tilted quadratic on the square: the two
    # triangles of a lattice square carry cross-product gradients an ulp
    # apart, so a cell can hold two gradients an ulp apart.  The one chain
    # builds its cells as the per-site reference and the two-lexsort build do
    tilted = lambda p: quadratic(p) + 0.3 - 0.4 * p[:, 0] + 0.25 * p[:, 1]
    prob = solver.build_problem(grid.Domain2D.square(1.0), 0.05, grid.RhsField("constant"),
                                tilted)
    f = solver.solve(prob, tol=1e-6).function
    assert_matches_reference(f)
    assert_equals_two_lexsort(f)


def two_lexsort_cell_arrays(f):
    """The cell build with its gradients gathered by rows and its two orders
    taken by ``np.lexsort``: (sites, counts, vertices, areas)."""
    interior = f.hull_interior
    sites = np.flatnonzero(interior)
    m = len(sites)
    cell_of_site = np.cumsum(interior) - 1
    flat = f.triangulation.ravel()
    keep = interior[flat]
    cell = cell_of_site[flat[keep]]
    g = f.gradients[np.flatnonzero(keep) // 3]
    order = np.lexsort((g[:, 1], g[:, 0], cell))
    cell, g = cell[order], g[order]
    bits = g.view(np.int64)
    dup = np.zeros(len(g), dtype=bool)
    dup[1:] = (cell[1:] == cell[:-1]) & np.all(bits[1:] == bits[:-1], axis=1)
    cell, g = cell[~dup], g[~dup]
    counts = np.bincount(cell, minlength=m)
    starts = np.cumsum(counts) - counts
    first = starts[cell]
    full = counts > 0
    mean = np.stack([np.bincount(cell, g[:, k], m) for k in range(2)], axis=1)
    d = g - (mean / np.maximum(counts, 1)[:, None])[cell]
    order = np.lexsort((np.arctan2(d[:, 1], d[:, 0]), cell))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    shift = np.repeat(rank[starts[full]] - starts[full], counts[full])
    size = np.repeat(counts, counts)
    src = order[first + (np.arange(len(g)) - first + shift) % size]
    g, d = g[src], d[src]
    nxt = cyclic_successor(counts)
    e = g[nxt] - g
    en = e[nxt]
    turn = e[:, 0] * en[:, 1] - e[:, 1] * en[:, 0]
    length = np.hypot(e[:, 0], e[:, 1])
    around = d[:, 0] * d[nxt, 1] - d[:, 1] * d[nxt, 0]
    bad = ~((turn > 1e-12 * length * length[nxt]) & (around > 0.0))
    certified = (counts >= 3) & (np.bincount(cell, bad, m) == 0)
    q = g - g[first]
    cross = q[:, 0] * q[nxt, 1] - q[:, 1] * q[nxt, 0]
    areas = np.zeros(m)
    areas[full] = 0.5 * np.add.reduceat(cross, starts[full])
    if not certified.all():
        bad = np.flatnonzero(~certified)
        fallback = np.zeros(len(f.sites), dtype=bool)
        fallback[sites[bad]] = True
        corner = np.flatnonzero(fallback[flat])
        corner = corner[np.argsort(flat[corner], kind="stable")]
        per_site = np.bincount(cell_of_site[flat[corner]], minlength=m)[bad]
        pieces, at = [], 0
        for k, faces in zip(bad, np.split(corner // 3, np.cumsum(per_site)[:-1])):
            poly = convex_hull(f.gradients[faces]) if len(faces) else np.empty((0, 2))
            pieces += [g[at:starts[k]], poly]
            at = starts[k] + counts[k]
            areas[k] = polygon_area(poly)
            counts[k] = len(poly)
        g = np.concatenate(pieces + [g[at:]])
    return sites, counts, g, areas


def _tied_angles():
    """One hull-interior site whose four faces carry the gradients (-1, 0),
    (0, -1), (1, 1) and (2, 2): about their mean (0.5, 0.5) the last two lie
    at one angle, pi / 4, and are bitwise distinct."""
    sites = np.array([[0.0, 0.0], [1, 0], [0, 1], [-1, 0], [0, -1]])
    tris = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1]])
    grads = np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0], [2.0, 2.0]])
    return mm.PLConvexFunction(sites=sites, heights=np.zeros(5), triangulation=tris,
                               gradients=grads, offsets=np.zeros(4))


def assert_equals_two_lexsort(f):
    """``f``'s cell arrays equal ``two_lexsort_cell_arrays`` bit for bit."""
    want = two_lexsort_cell_arrays(f)
    got = mm._cell_arrays(f)
    for a, b in zip((got.sites, got.counts, got.vertices, got.areas), want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a.view(np.uint8), b.view(np.uint8))  # bit for bit
    return want


@pytest.mark.parametrize("case", ["verify_dual", "translator", "cocircular_lattice",
                                  "tied_angles"])
def test_cell_build_equals_two_lexsort_reference(case, request):
    if case == "verify_dual":
        f = request.getfixturevalue("solved_dual_disk8")[1].function
    elif case == "translator":
        f = _primal_translator(request.getfixturevalue("primal_profile_8"))
    elif case == "cocircular_lattice":
        f = _lattice_quadratic()
    else:
        f = _tied_angles()
        assert_matches_reference(f)
    want = assert_equals_two_lexsort(f)
    # each cell record carries its site, polygon and area bit for bit
    cells = mm.subgradient_cells(f)
    assert len(cells) == len(want[0])
    for cell, i, n, end, area in zip(cells, *want[:2], np.cumsum(want[1]), want[3]):
        polygon = want[2][end - n:end]
        assert cell.site_index == i
        assert cell.polygon.shape == polygon.shape
        assert cell.polygon.tobytes() == polygon.tobytes()
        assert np.float64(cell.area).tobytes() == area.tobytes()


def test_cells_are_built_once_per_envelope(monkeypatch):
    f = _lattice_quadratic()
    cell_arrays, built = mm._cell_arrays, []
    monkeypatch.setattr(mm, "_cell_arrays", lambda g: built.append(g) or cell_arrays(g))
    assert f.cells is f.cells
    assert not f.cells.vertices.flags.writeable  # shared, so no reader can change them
    masses = mm.ma_measure(f)
    ones = mm.weighted_mass(f.cells, lambda y: np.ones(len(y)))
    rep = mm.check_translator_identity(f, 0.25, np.flatnonzero(f.hull_interior))
    assert mm.subgradient_cells(f) is f.cells
    assert len(built) == 1 and built[0] is f
    # the readers agree with each other and with a fresh build
    fresh = cell_arrays(f)
    assert np.array_equal(masses[fresh.sites], fresh.areas)
    assert np.allclose(ones, fresh.areas, rtol=1e-12, atol=0.0)
    assert rep.measure_side == float(fresh.areas.sum())


@pytest.mark.parametrize("case", ["affine", "ridge", "flat_square"])
def test_degenerate_cells_take_fallback(case):
    sites = lattice(1.0, 0.25)
    if case == "affine":
        f = mm.lower_envelope(sites, 0.3 * sites[:, 0] - 0.7 * sites[:, 1] + 0.1)
    elif case == "ridge":
        f = mm.lower_envelope(sites, np.abs(sites[:, 0]))  # two distinct gradients
    else:
        sites = np.array([[-1.0, -1], [1, -1], [1, 1], [-1, 1], [0.2, 0.1]])
        f = mm.lower_envelope(sites, np.zeros(5))
    # point and segment cells: the chain gives its first and last point
    cells = assert_matches_reference(f)
    assert_equals_two_lexsort(f)
    assert len(cells.sites) > 0 and np.all(cells.areas == 0.0)
    assert np.array_equal(mm.weighted_mass(cells, _gauss_weight), np.zeros(len(cells.sites)))


def test_verifier_independent_of_solve_loop(monkeypatch):
    tree = ast.parse(inspect.getsource(mm))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for a in node.names}
    assert not any(name and name.split(".")[-1] == "solver" for name in imported)

    def forbidden(*args, **kwargs):
        raise AssertionError("the verifier reached the solve loop's mass pass")

    for name in ("_mass_pass", "_topology", "_flip_to_lower_hull"):
        monkeypatch.setattr(solver, name, forbidden)
    dom = grid.Domain2D.square(1.0)
    prob = solver.build_problem(dom, 0.1, grid.RhsField("constant"), quadratic)
    pl = mm.lower_envelope(prob.grid.nodes, quadratic(prob.grid.nodes))
    assert solver.residual(pl, prob) <= 1e-12
    assert len(pl.cells.sites) == int(prob.interior.sum())
    assert np.allclose(pl.cells.areas, 0.01, rtol=1e-12)


# ---------------------------------------------------------------------------
# the lattice start of the lower hull, and its fallback to Qhull
# ---------------------------------------------------------------------------

def qhull_envelope(sites, heights):
    """The envelope of Qhull's whole hull: the faces of ``_lower_faces``
    with its plane equations, as ``lower_envelope`` builds it off a lattice."""
    tris, n = mm._lower_faces(sites, heights)
    return mm.PLConvexFunction(sites, heights, mm._ccw(sites, tris), -n[:, :2] / n[:, 2:3],
                               -n[:, 3] / n[:, 2])


def assert_qhull_behaviour(sites, heights):
    """``lower_envelope`` gives Qhull's whole hull bit for bit, or raises
    what that build raises, Qhull's own errors as ``DegenerateInput``;
    returns the envelope, or None after an error."""
    try:
        want = qhull_envelope(sites, heights)
    except (QhullError, ValueError) as exc:  # Qhull rejects NaN and infinite points
        expected = DegenerateInput if isinstance(exc, QhullError) else type(exc)
        with pytest.raises(expected, match=re.escape(str(exc).splitlines()[0])):
            mm.lower_envelope(sites, heights)
        return None
    f = mm.lower_envelope(sites, heights)
    for name in ("triangulation", "gradients", "offsets"):
        a, b = getattr(f, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a.view(np.uint8), b.view(np.uint8)), name
    return f


def face_order(tris):
    """The faces as sorted site triples in ascending order, and the
    permutation of the faces that gives that order."""
    t = np.sort(tris, axis=1)
    order = np.lexsort(t.T[::-1])
    return t[order], order


_FIELDS = {
    "primal": None,  # the primal translator, from the fixture
    "anisotropic": lambda p: p[:, 0] ** 2 + 0.5 * p[:, 1] ** 2 + 0.3 * p[:, 0] * p[:, 1],
    "quadratic": quadratic,
    "exp": lambda p: np.exp(p[:, 0] + p[:, 1]),
    "ridge": lambda p: (p[:, 0] + 3 * p[:, 1]) ** 2 + 0.01 * p[:, 1] ** 2,
}


def _sampled(field, domain, h, request):
    fn = request.getfixturevalue("primal_profile_8") if field == "primal" else _FIELDS[field]
    dom = grid.Domain2D.disk(1.0) if domain == "disk" else grid.Domain2D.square(1.0)
    return grid.sample(fn, dom, h)


@pytest.mark.parametrize("field, domain, h", [
    ("primal", "disk", 0.02),  # criterion 05's input
    ("primal", "disk", 0.037),
    ("anisotropic", "disk", 0.02),
    ("anisotropic", "square", 0.02),
])
def test_lattice_start_gives_qhull_faces(field, domain, h, request):
    gf = _sampled(field, domain, h, request)
    f = mm.lower_envelope(gf.nodes, gf.values)
    want = qhull_envelope(gf.nodes, gf.values)
    assert 0 < f.hull_sites < len(gf)  # the band, on the lattice path
    got_faces, got = face_order(f.triangulation)
    want_faces, ref = face_order(want.triangulation)
    assert np.array_equal(got_faces, want_faces)
    # the cross-product planes are Qhull's up to rounding, and pass through
    # their own vertices
    assert np.allclose(f.gradients[got], want.gradients[ref], rtol=1e-9, atol=1e-12)
    assert np.allclose(f.offsets[got], want.offsets[ref], rtol=1e-9, atol=1e-12)
    assert np.allclose(f(gf.nodes), gf.values, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("field, domain, h", [
    ("quadratic", "square", 0.1),  # tied squares whose lifts round negative
    ("exp", "disk", 0.02),
    ("exp", "square", 0.02),
    ("ridge", "disk", 0.02),
    ("ridge", "square", 0.02),
])
def test_failed_lattice_start_keeps_qhull_bits(field, domain, h, request):
    gf = _sampled(field, domain, h, request)
    f = assert_qhull_behaviour(gf.nodes, gf.values)
    assert f.hull_sites > len(gf)  # the band, then every site


@pytest.mark.parametrize("domain", ["square", "disk"])
def test_dyadic_quadratic_takes_the_lattice_path(domain):
    # at h = 1/8 every square ties exactly and the lifts are exact, so the
    # lattice certificate holds; each cell has the four gradients of a
    # lattice square
    dom = grid.Domain2D.square(1.0) if domain == "square" else grid.Domain2D.disk(1.0)
    gf = grid.sample(quadratic, dom, 0.125)
    f = mm.lower_envelope(gf.nodes, gf.values)
    assert f.hull_sites < len(gf)
    cells = assert_matches_reference(f)
    if domain == "square":  # every interior cell is a lattice square's
        assert np.all(cells.areas == 0.125 ** 2)


def test_criterion_05_input_takes_the_lattice_path(primal_profile_8):
    # criterion 05's input is also the benchmark's: a fallback to the whole
    # Qhull build would hand it every site
    f = _primal_translator(primal_profile_8)
    assert 0 < f.hull_sites < 0.1 * len(f.sites)
    assert len(f.triangulation) == 15_576 and len(f.cells.sites) == 7_733


def test_solver_boundary_ring_stays_on_qhull(monkeypatch):
    # no ring site is a corner of four lattice squares, so the ring's
    # envelope builds no band hull and is Qhull's bit for bit
    prob = solver.build_problem(grid.Domain2D.disk(2.0), 0.1, grid.RhsField("constant"),
                                quadratic)
    ring = prob.grid.nodes[~prob.interior]
    values = quadratic(ring)
    faces = []
    lower_faces = mm._lower_faces
    monkeypatch.setattr(mm, "_lower_faces", lambda p, z: faces.append(len(p)) or lower_faces(p, z))
    f = assert_qhull_behaviour(ring, values)
    assert faces == [len(ring)] * 2 and f.hull_sites == len(ring)  # the reference's, then its own


def test_tiling_check_rejects_a_notch_at_the_hull():
    # a face with one side on the hull boundary dropped from a triangulation
    # keeps V - E + F = 1; the boundary of the sites' hull rejects it
    sites = lattice(1.0, 0.25)
    tris = mm._ccw(sites, mm._lower_faces(sites, quadratic(sites))[0])
    twin = mm._twins(len(sites), tris)
    boundary = mm._boundary(len(sites), tris, twin)
    assert mm._tiles_a_disk(sites, tris, twin, boundary)
    ear = np.flatnonzero(np.sum(twin < 0, axis=1) == 1)[0]
    notched = np.delete(tris, ear, axis=0)
    twin = mm._twins(len(sites), notched)
    edges = len(np.unique(np.sort(np.stack([notched, np.roll(notched, 1, axis=1)], axis=2),
                                  axis=2).reshape(-1, 2), axis=0))
    assert len(np.unique(notched)) - edges + len(notched) == 1
    assert not mm._tiles_a_disk(sites, notched, twin, boundary)


def _with_site(sites, row, value):
    out = sites.copy()
    out[row] = value
    return out


@pytest.mark.parametrize("case", ["nan", "inf", "-inf", "duplicated", "tiny"])
def test_sites_off_the_lattice_keep_qhull_bits(case):
    sites = lattice(1.0, 0.25)
    if case == "nan":
        sites = _with_site(sites, 5, [np.nan, 0.25])
    elif case == "inf":
        sites = _with_site(sites, 5, [np.inf, 0.25])
    elif case == "-inf":
        sites = _with_site(sites, 5, [0.5, -np.inf])
    elif case == "duplicated":
        sites = np.vstack([sites, sites[[40, 3]]])
    else:  # two sites 1e-300 apart in a cloud of extent 2
        sites = np.vstack([sites, [[1e-300, 0.0]]])
    heights = quadratic(sites)
    tracemalloc.start()
    try:
        assert mm._lattice(sites) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * len(sites) + 65536  # O(N): no lattice box of 1e300 cells
    with np.errstate(invalid="ignore"):  # spans_plane's cross products of inf
        f = assert_qhull_behaviour(sites, heights)
    assert f is None or f.hull_sites == len(sites)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("site", [40, 0])  # the lattice's centre, and a band corner
def test_non_finite_heights_keep_qhull_behaviour(value, site):
    sites = lattice(1.0, 0.25)
    heights = _with_site(quadratic(sites), site, value)
    f = assert_qhull_behaviour(sites, heights)
    assert f is None or f.hull_sites == len(sites)


@pytest.mark.parametrize("h", [0.02, 0.037])
def test_nearest_sites_of_a_lattice_make_no_gap_query(h, primal_profile_8, monkeypatch):
    # the lattice bounds every gap below by h (1 - 1e-9): the owners are
    # the full query's with no k = 2 query of the sites
    gf = grid.sample(primal_profile_8, grid.Domain2D.disk(1.0), h)
    f = mm.lower_envelope(gf.nodes, gf.values)
    assert mm._lattice(f.sites)[0] == h
    gaps = mm.cKDTree(f.sites).query(f.sites, k=2)[0][:, 1]
    assert gaps.min() >= h * (1.0 - 1e-9)
    points, near = rule_points(f)
    ks = []
    base = mm.cKDTree

    class Tree(base):
        def query(self, x, k=1, **kw):
            ks.append(k)
            return super().query(x, k=k, **kw)

    with monkeypatch.context() as m:
        m.setattr(mm, "cKDTree", Tree)
        owner = mm._nearest_sites(f.sites, points, near)
    assert np.array_equal(owner, base(f.sites).query(points)[1])
    assert ks == [1]


@st.composite
def lifted_clouds(draw):
    """Sites on a 1/16 lattice (collinear and cocircular runs included) with
    random heights, optionally on a paraboloid."""
    n = draw(st.integers(5, 40))
    ij = draw(st.lists(st.tuples(st.integers(-16, 16), st.integers(-16, 16)),
                       min_size=n, max_size=n, unique=True))
    sites = np.array(ij, dtype=float) / 16.0
    bumps = np.array(draw(st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n)))
    curvature = draw(st.sampled_from([0.0, 0.5, 2.0]))
    return sites, curvature * quadratic(sites) + bumps


# a cloud with an 11-vertex cell, whose area np.add.reduceat does not sum
# in order: ``polygon_area`` must sum it as the array core does
_LONG_CELL = np.array([(0, 0), (0, 1), (0, -1), (0, 2), (0, -2), (0, 3), (0, -3), (0, 4),
                       (0, -4), (0, 5), (0, -5), (0, 6), (0, -6), (0, 7), (0, 8), (0, 9),
                       (1, 0), (1, 1), (1, -1), (1, 2), (-1, 0), (-2, 0), (-4, 0)]) / 16.0

# five sites that a shear by 4.54e-241 moves off the axis by 2.8e-242: the
# least nonzero |coordinate| is then no pitch, and x / h would overflow an
# integer cast; ``_lattice`` bounds the box in floats first
_FIVE_SITES = np.array([(0, 0), (0, 2), (3, -1), (-2, 1), (-1, -3)]) / 16.0


# no shrink phase: shrinking the 5-40-site clouds of a failing run took
# 215-300 s, so a failure reports its first falsifying cloud instead
@settings(max_examples=60, deadline=None, derandomize=True,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(
    cloud=lifted_clouds(),
    tilt=st.tuples(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3)),
    shear=st.floats(-2, 2),
)
@example(cloud=(_LONG_CELL, 2.0 * quadratic(_LONG_CELL) - 0.25 * (np.arange(23) == 21)),
         tilt=(0.0, 0.0, 0.0), shear=0.0)
@example(cloud=(_FIVE_SITES, quadratic(_FIVE_SITES) + np.array([0.0, 0.1, -0.2, 0.3, 0.05])),
         tilt=(0.0, 0.0, 0.0), shear=4.54e-241)
def test_array_core_property(cloud, tilt, shear):
    sites, heights = cloud
    try:
        f = mm.lower_envelope(sites, heights)
    except DegenerateInput:
        assume(False)
    assert_matches_reference(f)
    base = mm.ma_measure(f)
    scale = 1e-9 * max(1.0, base.max())
    tilted = mm.lower_envelope(sites, heights + tilt[0] * sites[:, 0] + tilt[1] * sites[:, 1]
                               + tilt[2])
    assert_matches_reference(tilted)
    assert np.allclose(mm.ma_measure(tilted), base, rtol=1e-9, atol=scale)
    sheared = mm.lower_envelope(sites @ np.array([[1.0, shear], [0.0, 1.0]]).T, heights)
    assert_matches_reference(sheared)
    assert np.allclose(mm.ma_measure(sheared), base, rtol=1e-9, atol=scale)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cloud=lifted_clouds())
def test_nearest_sites_property(cloud):
    sites, heights = cloud
    try:
        f = mm.lower_envelope(sites, heights)
    except DegenerateInput:
        assume(False)
    points, near = rule_points(f)
    owner = mm._nearest_sites(f.sites, points, near)
    assert np.array_equal(owner, mm.cKDTree(f.sites).query(points)[1])


def test_cell_records_equal_named_tuples(primal_profile_8):
    # the record view that only the benchmark reads: ``subgradient_cells``
    # hands out the cells themselves, whose records are built once
    f = _primal_translator(primal_profile_8)
    c = f.cells
    assert mm.subgradient_cells(f) is c and len(c) == len(c.sites)
    got = list(c)
    assert all(a is b for a, b in zip(got, c))
    ends = np.cumsum(c.counts)
    want = [mm.SubgradientCell(int(i), c.vertices[e - k:e], float(a))
            for i, k, e, a in zip(c.sites, c.counts, ends, c.areas)]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is mm.SubgradientCell and g._fields == w._fields
        assert type(g.site_index) is int and g.site_index == w.site_index
        assert type(g.area) is float and np.float64(g.area).view(np.int64) == np.float64(
            w.area).view(np.int64)
        assert g.polygon.base is c.vertices and g.polygon.shape == w.polygon.shape
        assert np.array_equal(g.polygon, w.polygon)


def listed_weighted_mass(cells, weight):
    """``weighted_mass`` on records, with its full cells picked, converted
    and counted one record at a time: the record path it replaced."""
    out = np.zeros(len(cells))
    full = [k for k, c in enumerate(cells) if c.area > 0.0 and len(c.polygon) >= 3]
    if full:
        polys = [np.asarray(cells[k].polygon, dtype=float) for k in full]
        counts = [len(p) for p in polys]
        out[full] = mm.polygons_quadrature(np.concatenate(polys), counts, weight)
    return out


def listed_gauss_mass(cells):
    """The closed-form Gauss-map mass of records, one record at a time: each
    full cell's unit normals, and the Van Oosterom-Strackee area of each
    triangle of the fan from its first vertex."""
    total = 0.0
    for c in cells:
        if not (c.area > 0.0 and len(c.polygon) >= 3):
            continue
        u = np.column_stack([c.polygon, -np.ones(len(c.polygon))])
        u /= np.linalg.norm(u, axis=1)[:, None]
        a, b, d = u[0], u[1:-1], u[2:]
        det = np.abs(np.cross(b, d) @ a)
        total += float(np.sum(2.0 * np.arctan2(det, 1.0 + b @ a + np.sum(b * d, axis=1) + d @ a)))
    return total


def _cubic_weight(y):
    return 1.0 + y[:, 0] - 0.5 * y[:, 1] ** 3


def test_weighted_mass_equals_record_by_record(primal_profile_8, solved_dual_disk8):
    # criterion 05's cells and verify-dual's: the arrays give the record
    # path's masses bit for bit, and the record-by-record closed form's
    # Gauss-map mass
    for f in (_primal_translator(primal_profile_8), solved_dual_disk8[1].function):
        records = list(f.cells)
        for weight in (_gauss_weight, _cubic_weight):
            got = mm.weighted_mass(f.cells, weight)
            want = listed_weighted_mass(records, weight)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        total = listed_gauss_mass(records)
        assert abs(mm.gauss_map_mass(f.cells) - total) < 1e-13 * total


def test_weighted_mass_of_hand_built_cells():
    # empty, point, segment, zero-area and NaN-area cells read 0 and reach
    # no weight call; the triangles between them are integrated as records
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    polygons = [tri, [], tri[:1], tri[:2], tri, tri, tri + 0.5]
    areas = [0.5, 0.0, 0.0, 0.5, 0.0, float("nan"), 0.5]
    cells = cell_arrays(polygons, areas)
    records = [mm.SubgradientCell(k, np.reshape(p, (-1, 2)), a)
               for k, (p, a) in enumerate(zip(polygons, areas))]
    for weight in (_gauss_weight, _cubic_weight):
        calls = []
        got = mm.weighted_mass(cells, lambda y: calls.append(len(y)) or weight(y))
        want = listed_weighted_mass(records, weight)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert len(calls) == 1 and np.all(got[1:6] == 0.0)
        assert np.allclose(got[[0, 6]], [polygon_quadrature(tri, weight),
                                         polygon_quadrature(tri + 0.5, weight)], rtol=1e-13)
    degenerate = cell_arrays(polygons[1:6], areas[1:6])
    never = lambda y: pytest.fail("a degenerate cell reached the weight")
    assert np.array_equal(mm.weighted_mass(degenerate, never), np.zeros(5))
    assert mm.gauss_map_mass(degenerate) == 0.0
    empty = cell_arrays([], [])
    assert np.array_equal(mm.weighted_mass(empty, never), np.zeros(0))
    assert mm.gauss_map_mass(empty) == 0.0
