"""Convex polygon primitives and quadrature rules used across the toolkit.

Everything operates on plain float64 arrays: polygons are (k, 2) arrays of
vertices in counterclockwise order.  Three jobs are each done in one way
throughout the package: whether a point lies inside a convex hull, by the
edge cross products of ``min_edge_cross``; which way three points turn, by
``orientation``; a max of planes, by ``max_affine``.
"""
from __future__ import annotations

import numpy as np


def polygon_area(vertices) -> float:
    """Absolute shoelace area of a simple polygon, summed about its first
    vertex by ``np.add.reduceat``: the rule of ``ma_measure``'s cell areas,
    under which a small polygon far from the origin keeps its accuracy."""
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[0] < 3:
        return 0.0
    x, y = v[:, 0] - v[0, 0], v[:, 1] - v[0, 1]
    cross = x * np.roll(y, -1) - y * np.roll(x, -1)
    return 0.5 * abs(np.add.reduceat(cross, [0])[0])


def polygon_centroid(vertices) -> np.ndarray:
    """Area-weighted centroid; falls back to the vertex mean when degenerate."""
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    cross = x * np.roll(y, -1) - np.roll(x, -1) * y
    a = 0.5 * np.sum(cross)
    if abs(a) < 1e-300:
        return v.mean(axis=0)
    cx = np.sum((x + np.roll(x, -1)) * cross) / (6.0 * a)
    cy = np.sum((y + np.roll(y, -1)) * cross) / (6.0 * a)
    return np.array([cx, cy])


def convex_hull(points) -> np.ndarray:
    """Counterclockwise convex hull of a 2D point set (monotone chain).

    Collinear points interior to hull edges are dropped.  Degenerate inputs
    (all points collinear) return the extreme segment, a 1- or 2-point array.
    The input is first thinned by ``strictly_inside_hull``: those points
    cannot be chain vertices and are discarded, and the chain runs on the
    rest, so the result is the chain's on all points.  Qhull's vertices are
    not returned, since it merges near-collinear vertices (turns of order
    1e-17) that the chain keeps.
    """
    pts = np.asarray(points, dtype=float)
    pts = np.unique(pts[~strictly_inside_hull(pts)], axis=0)
    if len(pts) <= 2:
        return pts
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    return _monotone_chain(pts[order])


def spans_plane(points) -> bool:
    """Whether some three of the points are not collinear: some point lies
    off the line through the first point and the first point distinct from
    it, by an exact-zero test of one cross product per point; no hull."""
    x = np.asarray(points, dtype=float)
    if len(x) < 3:
        return False
    d = x - x[0]
    far = np.flatnonzero(np.any(d != 0.0, axis=1))
    return bool(len(far) and np.any(orientation(x[0], x[far[0]], x) != 0.0))


def orientation(a, b, c) -> np.ndarray:
    """(b - a) x (c - a) for arrays of planar points, coordinates on the
    last axis: twice the signed area of triangle (a, b, c), positive if ccw."""
    u, v = b - a, c - a
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


_AFFINE_BLOCK = 2**16  # values of one (points, planes) block of ``max_affine``


def max_affine(points, slopes, offsets) -> np.ndarray:
    """max_k slopes[k] . p + offsets[k] at each point p, each value summed as
    p1 * s1 + p2 * s2 + c by elementwise products over blocks of about 2^16
    (point, plane) values, so the working set stays near a megabyte.  No
    matrix product: a BLAS gemm would allocate (points, planes) temporaries.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty(len(pts))
    chunk = max(1, _AFFINE_BLOCK // len(offsets))
    for start in range(0, len(pts), chunk):
        p = pts[start : start + chunk]
        out[start : start + chunk] = np.max(
            p[:, :1] * slopes[:, 0] + p[:, 1:] * slopes[:, 1] + offsets, axis=1)
    return out


def min_edge_cross(points, a, e) -> np.ndarray:
    """Per point p, the least edge cross product e_k x (p - a_k) over the
    directed edges ``(a, e)`` of a polygon: a_k is vertex k and e_k runs
    from it to the next vertex.

    For a ccw convex polygon, e_k x (p - a_k) is |e_k| times the signed
    distance of p from edge k's line, positive inside; so p is inside when
    the result is positive.  Points are taken in blocks of 4096, which
    bounds the (edges, block) arrays.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    ax, ay = a[:, 0, None], a[:, 1, None]
    ex, ey = e[:, 0, None], e[:, 1, None]
    out = np.empty(len(pts))
    chunk = 4096
    for s in range(0, len(pts), chunk):
        x, y = pts[s : s + chunk].T
        cross = (y - ay) * ex  # (edges, block)
        cross -= (x - ax) * ey
        out[s : s + chunk] = cross.min(axis=0)
    return out


def strictly_inside_hull(points) -> np.ndarray:
    """Points inside the convex hull of ``points`` with every edge cross
    product above 1e-12 scale**2, scale = max|p| + 1; the edges are
    Qhull's, ccw.  All False when Qhull rejects the input (collinear, too
    few or non-finite points).

    Only the points outside a disk about the hull vertices' mean c are put
    to ``min_edge_cross``; those inside pass, and the result is the edge
    test's bit for bit.  The disk's radius is

        rho = (1 - 1e-6) min_k (e_k x (c - a_k) - 1.1e-12 scale**2) / |e_k|

    over the edges (a_k, e_k), or 0 when that is negative.  For p within
    rho of c, e_k x (p - a_k) = e_k x (c - a_k) + e_k x (p - c) and
    |e_k x (p - c)| <= |e_k| |p - c|, so every exact cross product exceeds
    the limit by 1e-13 scale**2 less the rounding of e_k x (c - a_k).  A
    float cross product has factors below 2 scale, so it is within
    24 u scale**2 < 3e-15 scale**2 of its exact value (u = 2**-53), and the
    factor 1 - 1e-6 covers the rounding of rho and of |p - c|: each float
    cross product of p, and so their minimum, is above the limit.
    """
    from scipy.spatial import ConvexHull, QhullError

    pts = np.asarray(points, dtype=float)
    try:
        hull = ConvexHull(pts)
    except (QhullError, ValueError):
        return np.zeros(len(pts), dtype=bool)
    scale = float(np.abs(pts).max()) + 1.0
    limit = 1e-12 * scale**2
    a = pts[hull.vertices]  # ccw in 2D
    e = np.roll(a, -1, axis=0) - a
    c = a.mean(axis=0)
    depth = (c[1] - a[:, 1]) * e[:, 0] - (c[0] - a[:, 0]) * e[:, 1]
    rho = (1.0 - 1e-6) * float(np.min((depth - 1.1 * limit) / np.hypot(e[:, 0], e[:, 1])))
    d = pts - c
    inside = d[:, 0] ** 2 + d[:, 1] ** 2 < max(rho, 0.0) ** 2
    far = np.flatnonzero(~inside)
    inside[far] = min_edge_cross(pts[far], a, e) > limit
    return inside


def _monotone_chain(pts: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain on distinct, lexicographically sorted points."""

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) <= 0.0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(pts[::-1])
    hull = np.array(lower[:-1] + upper[:-1])
    if len(hull) < 3:
        return np.array([pts[0], pts[-1]])
    return hull


def _orbit(a):
    return [(1 - 2 * a, a, a), (a, 1 - 2 * a, a), (a, a, 1 - 2 * a)]


# Symmetric Gauss rules on the reference triangle, (barycentric coords,
# weights), by degree of exactness: 2 for the translator identity, 4 else.
_a1, _a2 = 0.445948490915965, 0.091576213509771
_w1, _w2 = 0.223381589678011, 0.109951743655322
_TRI_RULES = {
    2: (np.array(_orbit(1 / 6)), np.full(3, 1 / 3)),
    4: (np.array(_orbit(_a1) + _orbit(_a2)), np.array([_w1] * 3 + [_w2] * 3)),
}


def triangle_rule(degree: int):
    """The stored symmetric rule of the given degree of exactness, 2 or 4."""
    return _TRI_RULES[degree]


def polygon_quadrature(poly: np.ndarray, fn) -> float:
    """Integrate ``fn`` over a convex polygon by a triangle fan from its
    centroid, with the degree-4 rule on each triangle."""
    poly = np.asarray(poly, dtype=float)
    if len(poly) < 3:
        return 0.0
    c = polygon_centroid(poly)
    bary, w = triangle_rule(4)
    n = len(poly)
    a = poly
    b = np.roll(poly, -1, axis=0)
    # quadrature nodes for every fan triangle at once: (n, k, 2)
    pts = (
        bary[None, :, 0, None] * c[None, None, :]
        + bary[None, :, 1, None] * a[:, None, :]
        + bary[None, :, 2, None] * b[:, None, :]
    )
    areas = 0.5 * orientation(c, a, b)  # signed; convex ccw fans are positive
    vals = np.asarray(fn(pts.reshape(-1, 2)), dtype=float).reshape(n, len(w))
    return float(np.sum(areas * (vals @ w)))


def cyclic_successor(counts) -> np.ndarray:
    """Index of each vertex's successor within its own polygon, for polygons
    stored back to back with the given vertex counts."""
    counts = np.asarray(counts, dtype=np.intp)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    size = np.repeat(counts, counts)
    return first + (np.arange(len(first)) - first + 1) % size


def polygons_quadrature(vertices, counts, fn) -> np.ndarray:
    """``polygon_quadrature`` of convex polygons stored back to back.

    ``vertices`` stacks the polygons, each with at least 3 vertices, and
    ``counts`` gives their sizes.  All centroid fans are integrated with one
    call of ``fn``; returns one integral per polygon.
    """
    a = np.asarray(vertices, dtype=float)
    counts = np.asarray(counts, dtype=np.intp)
    m = len(counts)
    owner = np.repeat(np.arange(m), counts)
    b = a[cyclic_successor(counts)]
    # area-weighted centroids as in polygon_centroid
    cross = a[:, 0] * b[:, 1] - b[:, 0] * a[:, 1]
    area = 0.5 * np.bincount(owner, cross, m)
    c = np.stack([np.bincount(owner, a[:, k], m) / counts for k in range(2)], axis=1)
    solid = np.abs(area) >= 1e-300
    for k in range(2):
        moment = np.bincount(owner, (a[:, k] + b[:, k]) * cross, m)
        c[solid, k] = moment[solid] / (6.0 * area[solid])
    c = c[owner]
    bary, w = triangle_rule(4)
    pts = _fan_nodes(c, a, b, bary)
    fan = 0.5 * orientation(c, a, b)
    vals = np.asarray(fn(pts.reshape(-1, 2)), dtype=float).reshape(len(a), len(w))
    return np.bincount(owner, fan * (vals @ w), m)


def _fan_nodes(c, a, b, bary) -> np.ndarray:
    """The (n, k, 2) rule nodes s c + t a + u b of n triangles (c, a, b) for
    the k barycentric rows (s, t, u) of ``bary``: the products and sums of
    ``polygon_quadrature``'s broadcast, in its order, so the same bits.
    Each (node, coordinate) column is computed on contiguous coordinate
    copies, which die with this frame, before the weight is called."""
    pts = np.empty((len(a), len(bary), 2))
    cols = [np.ascontiguousarray(v.T) for v in (c, a, b)]
    for j, (s, t, u) in enumerate(bary):
        for k, (ck, ak, bk) in enumerate(zip(*cols)):
            pts[:, j, k] = s * ck + t * ak + u * bk
    return pts


def disk_rule():
    """Quadrature on the closed unit disk, exact for polynomials of degree <= 7.

    Product of a 3-point Gauss-Legendre rule in r**2 with 8 equispaced angles;
    returns (points (24, 2), weights summing to pi).
    """
    u = np.array([0.5 - np.sqrt(15) / 10, 0.5, 0.5 + np.sqrt(15) / 10])
    wu = np.array([5 / 18, 8 / 18, 5 / 18])
    r = np.sqrt(u)
    theta = 2 * np.pi * np.arange(8) / 8
    pts = np.stack(
        [np.outer(r, np.cos(theta)).ravel(), np.outer(r, np.sin(theta)).ravel()],
        axis=1,
    )
    w = np.repeat(wu * np.pi / 8, 8)
    return pts, w
