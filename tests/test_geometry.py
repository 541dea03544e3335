from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ma2d import geometry, grid, legendre, ma_measure
from ma2d.errors import DegenerateInput

from conftest import polygon_edges, polygon_lattice


def plain_chain(points):
    """The monotone chain on every input point, without the Qhull prefilter."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    if len(pts) <= 2:
        return pts
    return geometry._monotone_chain(pts[np.lexsort((pts[:, 1], pts[:, 0]))])


def lattice_nodes(domain, h):
    return grid.sample(lambda p: np.zeros(len(p)), domain, h).nodes


DISK2 = lattice_nodes(grid.Domain2D.disk(2.0), 0.01)


def test_qhull_vertices_miss_near_collinear_ones():
    # why only Qhull's interior test is used: its own hull of this lattice
    # has 124 vertices, merging 8 whose turns are about 1.7e-17
    from scipy.spatial import ConvexHull

    assert len(ConvexHull(DISK2).vertices) == 124
    assert len(geometry.convex_hull(DISK2)) == len(plain_chain(DISK2)) == 132


def test_prefilter_matches_chain_on_lattices():
    for pts in [
        lattice_nodes(grid.Domain2D.disk(8.0), 0.125),
        lattice_nodes(grid.Domain2D.square(1.0), 0.02),
        lattice_nodes(grid.Domain2D.disk(1.0), 0.02),
        polygon_lattice([[-1.0, -0.8], [1.0, -0.8], [0.0, 1.0]], 0.01),
    ]:
        assert np.array_equal(geometry.convex_hull(pts), plain_chain(pts))


def test_prefilter_falls_back_on_collinear_input():
    t = np.linspace(-1.0, 1.0, 1001)
    diagonal = np.stack([t, t], axis=1)  # exactly collinear: Qhull rejects it
    hull = geometry.convex_hull(np.concatenate([diagonal, diagonal[::7]]))
    assert np.array_equal(hull, np.array([diagonal[0], diagonal[-1]]))
    rounded = np.stack([t, 0.3 * t + 0.1], axis=1)  # collinear up to rounding
    assert np.array_equal(geometry.convex_hull(rounded), plain_chain(rounded))


@st.composite
def point_sets(draw):
    """Lattice points at a pitch that rounds, with collinear runs and duplicates."""
    h = draw(st.sampled_from([1.0, 0.1, 0.125, 1 / 3, 0.01]))
    ij = draw(st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12)),
                       min_size=0, max_size=40))
    for _ in range(draw(st.integers(0, 3))):  # collinear runs along lattice directions
        start = draw(st.tuples(st.integers(-12, 12), st.integers(-12, 12)))
        step = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (3, -1)]))
        ij += [(start[0] + k * step[0], start[1] + k * step[1])
               for k in range(draw(st.integers(2, 20)))]
    pts = np.array(ij, dtype=float).reshape(-1, 2) * h
    if len(pts):
        dup = draw(st.lists(st.integers(0, len(pts) - 1), max_size=10))
        pts = np.concatenate([pts, pts[dup]])
    return pts + draw(st.sampled_from([0.0, 0.5, 1e3]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pts=point_sets())
@example(pts=np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [2.0, 2.0]]))
@example(pts=DISK2)
def test_prefilter_equals_chain_property(pts):
    assert np.array_equal(geometry.convex_hull(pts), plain_chain(pts))


def chain_hull_interior(points):
    """``hull_interior`` as the chain and an edge loop computed it: strictly
    inside every chain edge by a cross product above 1e-12 scale**2."""
    pts = np.asarray(points, dtype=float)
    hull = plain_chain(pts)
    if len(hull) < 3:
        return np.zeros(len(pts), dtype=bool)
    scale = float(np.abs(pts).max()) + 1.0
    inside = np.ones(len(pts), dtype=bool)
    for i in range(len(hull)):
        a, b = hull[i], hull[(i + 1) % len(hull)]
        cross = (b[0] - a[0]) * (pts[:, 1] - a[1]) - (b[1] - a[1]) * (pts[:, 0] - a[0])
        inside &= cross > 1e-12 * scale**2
    return inside


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pts=point_sets())
@example(pts=np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [2.0, 2.0]]))
@example(pts=DISK2)
def test_hull_interior_equals_chain_reference(pts):
    n = len(pts)
    f = ma_measure.PLConvexFunction(
        sites=pts, heights=np.zeros(n), triangulation=np.empty((0, 3), dtype=int),
        gradients=np.empty((0, 2)), offsets=np.empty(0),
    )
    assert np.array_equal(f.hull_interior, chain_hull_interior(pts))


def fraction_area(poly):
    """The exact shoelace area of float vertices, in ``Fraction``."""
    v = [(Fraction(x), Fraction(y)) for x, y in np.asarray(poly).tolist()]
    return abs(sum(a[0] * b[1] - a[1] * b[0] for a, b in zip(v, v[1:] + v[:1]))) / 2


def test_polygon_area_of_a_small_polygon_far_from_the_origin():
    # a subgradient-cell-like pentagon of area 1.19e-6 at |g| = 2: the
    # shoelace about the origin rounds at eps |g|**2 and is off by 7.6e-10
    # relative, about the first vertex it is exact to rounding
    rng = np.random.default_rng(0)
    poly = geometry.convex_hull(np.array([1.2, 1.6]) + 8.6e-4 * rng.standard_normal((6, 2)))
    exact = fraction_area(poly)
    assert len(poly) == 5 and 1.1e-6 < exact < 1.3e-6
    assert abs(Fraction(geometry.polygon_area(poly)) - exact) <= 1e-15 * exact
    x, y = poly[:, 0], poly[:, 1]
    about_origin = 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
    assert abs(Fraction(about_origin) - exact) > 1e-11 * exact


def fraction_centroid(poly):
    """The exact area-weighted centroid of float vertices, in ``Fraction``."""
    v = [(Fraction(x), Fraction(y)) for x, y in np.asarray(poly).tolist()]
    cross = [a[0] * b[1] - a[1] * b[0] for a, b in zip(v, v[1:] + v[:1])]
    six_area = 3 * sum(cross)
    return [sum((a[k] + b[k]) * c for a, b, c in zip(v, v[1:] + v[:1], cross)) / six_area
            for k in range(2)]


def test_polygon_centroid_of_a_small_polygon_far_from_the_origin(monkeypatch):
    # the pentagon above: about the origin the centroid is off by 4.7e-11,
    # 5.4e-8 of its extent; about the first vertex, as ``polygon_centroid``
    # and the fan centres of ``polygons_quadrature`` sum it, by the rounding
    # of the centroid itself (half an ulp at 1.2 is 5.8e-14 of the extent)
    # and 1e-15 of the extent
    rng = np.random.default_rng(0)
    poly = geometry.convex_hull(np.array([1.2, 1.6]) + 8.6e-4 * rng.standard_normal((6, 2)))
    exact = fraction_centroid(poly)
    extent = float(np.ptp(poly, axis=0).max())
    centres = []
    fan_nodes = geometry._fan_nodes
    monkeypatch.setattr(geometry, "_fan_nodes",
                        lambda c, *rest: centres.append(c[0].copy()) or fan_nodes(c, *rest))
    geometry.polygons_quadrature(poly, [len(poly)], lambda y: np.ones(len(y)))
    for got in (geometry.polygon_centroid(poly), centres[0]):
        for k in range(2):
            ulp = float(np.spacing(float(exact[k])))
            assert abs(Fraction(float(got[k])) - exact[k]) <= 0.5 * ulp + 1e-15 * extent
    x, y = poly[:, 0], poly[:, 1]
    cross = x * np.roll(y, -1) - np.roll(x, -1) * y
    about_origin = np.sum((x + np.roll(x, -1)) * cross) / (3.0 * np.sum(cross))
    assert abs(Fraction(float(about_origin)) - exact[0]) > 1e-9 * extent


def test_min_edge_cross_blocks_and_weights():
    # unit square: the cross product is the distance to the nearest side,
    # times the side length, 1 or 2; blocks of 4096 points give the same values
    a, e = polygon_edges([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    pts = np.random.default_rng(4).uniform(-0.5, 1.5, size=(10_000, 2))
    inside_depth = np.minimum(np.minimum(pts[:, 0], 1 - pts[:, 0]),
                              np.minimum(pts[:, 1], 1 - pts[:, 1]))
    np.testing.assert_allclose(geometry.min_edge_cross(pts, a, e), inside_depth,
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(geometry.min_edge_cross(pts, a, 2 * e), 2 * inside_depth,
                               rtol=0, atol=2e-15)


_LINE = np.stack([np.arange(-4, 3) * 0.25, np.arange(-4, 3) * 0.125 + 0.25], axis=1)  # y = x/2 + 1/4


def _conjugate(sites):
    gf = grid.GridFunction(domain=grid.Domain2D.square(1.0), h=0.25, nodes=sites,
                           values=np.zeros(len(sites)))
    return legendre.legendre_transform(gf, grid.Domain2D.square(1.0), 0.5)


def _envelope(sites):
    return ma_measure.lower_envelope(sites, np.zeros(len(sites)))


@pytest.mark.parametrize("caller, message", [(_conjugate, "non-collinear"),
                                             (_envelope, "collinear")],
                         ids=["legendre", "lower_envelope"])
@pytest.mark.parametrize(
    "sites",
    [_LINE, np.tile([[0.3, -0.2]], (5, 1)), np.concatenate([_LINE[:2]] * 3), _LINE[:2],
     _LINE[:1]],
    ids=["collinear", "one-site-repeated", "two-sites-repeated", "two", "one"],
)
def test_spans_plane_callers_reject_degenerate_sites(caller, message, sites):
    assert not geometry.spans_plane(sites)
    with pytest.raises(DegenerateInput, match=message):
        caller(sites)


@pytest.mark.parametrize("caller", [_conjugate, _envelope], ids=["legendre", "lower_envelope"])
def test_spans_plane_callers_accept_one_site_off_the_line(caller):
    sites = np.concatenate([_LINE, [[0.0, 0.75]]])
    assert geometry.spans_plane(sites)
    caller(sites)


def test_max_affine_working_set_is_bounded():
    # the h = 1/32 square-lattice envelope: 4,225 sites and 8,192 faces,
    # whose (points, faces) products at 1,024 points would take 64 MB each
    import tracemalloc

    gf = grid.sample(lambda p: np.zeros(len(p)), grid.Domain2D.square(1.0), 1 / 32)
    f = ma_measure.lower_envelope(gf.nodes, np.sum(gf.nodes**2, axis=1))
    assert (len(f.sites), len(f.offsets)) == (4225, 8192)
    pts = np.random.default_rng(3).uniform(-1.0, 1.0, size=(1024, 2))
    tracemalloc.start()
    try:
        f(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20

    # blocking changes no value: the unblocked expression bit for bit, at
    # one point and around one block of points, and for a single plane
    rng = np.random.default_rng(4)
    for planes in (7, 1):
        slopes = rng.standard_normal((planes, 2))
        offsets = rng.standard_normal(planes)
        block = 2**16 // planes
        for n in (1, block - 1, block, block + 1):
            p = rng.uniform(-3.0, 3.0, size=(n, 2))
            ref = np.max(p[:, :1] * slopes[:, 0] + p[:, 1:] * slopes[:, 1] + offsets, axis=1)
            assert np.array_equal(geometry.max_affine(p, slopes, offsets), ref)


def unfiltered_inside_hull(pts):
    """``strictly_inside_hull`` without its disk: the edge test on every point."""
    from scipy.spatial import ConvexHull

    a, e = polygon_edges(pts[ConvexHull(pts).vertices])
    return geometry.min_edge_cross(pts, a, e) > 1e-12 * (float(np.abs(pts).max()) + 1.0) ** 2


def prefilter_radius(pts):
    """The radius rho of the docstring of ``strictly_inside_hull``, and c."""
    from scipy.spatial import ConvexHull

    a, e = polygon_edges(pts[ConvexHull(pts).vertices])
    c = a.mean(axis=0)
    limit = 1e-12 * (float(np.abs(pts).max()) + 1.0) ** 2
    depth = (c[1] - a[:, 1]) * e[:, 0] - (c[0] - a[:, 0]) * e[:, 1]
    return (1.0 - 1e-6) * float(np.min((depth - 1.1 * limit) / np.hypot(e[:, 0], e[:, 1]))), c


def _ring(c, r, n=64):
    t = 2 * np.pi * np.arange(n) / n
    return c + r * np.stack([np.cos(t), np.sin(t)], axis=1)


def _sliver(height):
    rng = np.random.default_rng(5)
    return np.vstack([[[0.0, 0.0], [10.0, 0.0], [5.0, height]],
                      rng.uniform(0.0, 1.0, (2000, 2)) * [10.0, height]])


_HULL_SETS = {
    "disk": lattice_nodes(grid.Domain2D.disk(8.0), 0.125),
    "disk_large": DISK2,
    "square": lattice_nodes(grid.Domain2D.square(1.0), 0.02),
    "polygon": polygon_lattice([[0, 0], [3, 0.2], [2.5, 2], [0.5, 1.8]], 0.02),
    "gaussian": np.random.default_rng(3).standard_normal((20000, 2)),
    "sliver": _sliver(1e-3),
    "sliver_below_limit": _sliver(1e-11),  # rho < 0: every point takes the edge test
}


@pytest.mark.parametrize("case", list(_HULL_SETS))
def test_hull_prefilter_equals_edge_test(case, monkeypatch):
    pts = _HULL_SETS[case]
    rho, c = prefilter_radius(pts)
    if rho > 0:  # points just inside and just outside the disk, apart by rounding
        gap = 1e-12 * (float(np.abs(c).max()) + rho)
        pts = np.concatenate([pts, _ring(c, rho - gap), _ring(c, rho + gap)])
    tested = []
    edge_test = geometry.min_edge_cross
    monkeypatch.setattr(geometry, "min_edge_cross",
                        lambda p, *args: tested.append(len(p)) or edge_test(p, *args))
    got = geometry.strictly_inside_hull(pts)
    monkeypatch.undo()
    assert np.array_equal(got, unfiltered_inside_hull(pts))
    d = pts - c
    near = int(np.sum(d[:, 0] ** 2 + d[:, 1] ** 2 < max(rho, 0.0) ** 2))
    assert tested == [len(pts) - near]
    assert (rho > 0) == (case != "sliver_below_limit")
    if rho > 0:  # the inner ring passes without the edge test
        assert near >= 64 and got[-128:-64].all()


def broadcast_polygons_quadrature(vertices, counts, fn):
    """``polygons_quadrature`` with its fan nodes built by broadcasting over
    a last axis of length 2, the formula the column-wise build replaced."""
    a = np.asarray(vertices, dtype=float)
    counts = np.asarray(counts, dtype=np.intp)
    m = len(counts)
    owner = np.repeat(np.arange(m), counts)
    b = a[geometry.cyclic_successor(counts)]
    first = a[np.cumsum(counts) - counts]
    p, q = a - first[owner], b - first[owner]
    cross = p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1]
    area = 0.5 * np.bincount(owner, cross, m)
    c = np.stack([np.bincount(owner, a[:, k], m) / counts for k in range(2)], axis=1)
    solid = np.abs(area) >= 1e-300
    for k in range(2):
        moment = np.bincount(owner, (p[:, k] + q[:, k]) * cross, m)
        c[solid, k] = first[solid, k] + moment[solid] / (6.0 * area[solid])
    c = c[owner]
    bary, w = geometry.triangle_rule(4)
    pts = (
        bary[None, :, 0, None] * c[:, None, :]
        + bary[None, :, 1, None] * a[:, None, :]
        + bary[None, :, 2, None] * b[:, None, :]
    )
    fan = 0.5 * geometry.orientation(c, a, b)
    vals = np.asarray(fn(pts.reshape(-1, 2)), dtype=float).reshape(len(a), len(w))
    return np.bincount(owner, fan * (vals @ w), m)


def _random_convex_polygons(seed, m):
    rng = np.random.default_rng(seed)
    polys = []
    for _ in range(m):
        scale = 10.0 ** rng.uniform(-6, 1)
        centre = rng.uniform(-3, 3, 2)
        polys.append(geometry.convex_hull(centre + scale * rng.standard_normal(
            (int(rng.integers(3, 30)), 2))))
    return [p for p in polys if len(p) >= 3]


@pytest.mark.parametrize("case", ["verify_dual", "random_0", "random_1"])
def test_polygons_quadrature_equals_the_broadcast_formula(case, request):
    if case == "verify_dual":
        cells = request.getfixturevalue("solved_dual_disk8")[1].function.cells
        full = cells.counts >= 3
        keep = np.repeat(full, cells.counts)
        vertices, counts = cells.vertices[keep], cells.counts[full]
    else:
        polys = _random_convex_polygons(int(case[-1]), 300)
        vertices, counts = np.concatenate(polys), [len(p) for p in polys]
    seen = {}

    def weight(key):
        def fn(y):
            seen[key] = y.copy()
            return (1.0 + y[:, 0] ** 2 + y[:, 1] ** 2) ** (-1.5) + 0.25 * y[:, 0]
        return fn

    got = geometry.polygons_quadrature(vertices, counts, weight("got"))
    want = broadcast_polygons_quadrature(vertices, counts, weight("want"))
    assert np.array_equal(seen["got"].view(np.int64), seen["want"].view(np.int64))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
