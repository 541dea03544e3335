import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ma2d import geometry, grid


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
    for domain, h in [
        (grid.Domain2D.disk(8.0), 0.125),
        (grid.Domain2D.square(1.0), 0.02),
        (grid.Domain2D.disk(1.0), 0.02),
        (grid.Domain2D.polygon([[-1.0, -0.8], [1.0, -0.8], [0.0, 1.0]]), 0.01),
    ]:
        pts = lattice_nodes(domain, h)
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
