"""Exact Monge-Ampere measures of piecewise-linear convex functions.

A PL convex function is the lower convex envelope of lifted sites
(x_i, height_i).  Its Monge-Ampere measure is atomic: the mass at an
interior site is the area of the polygonal subdifferential there, which
equals the convex hull of the gradients of the incident envelope faces.

A site is hull-interior when ``geometry.strictly_inside_hull`` says so:
every edge cross product against Qhull's hull of the sites exceeds
1e-12 scale**2, the same test that thins ``convex_hull``'s input; no
monotone chain is run for it.  All cells are built in one array pass over
the (hull-interior site, incident face) pairs, once per envelope, whose
``cells`` keeps them for every later reader.  The pairs are grouped by
site in lexicographic order of the gradients: the faces are ranked once by
their gradients, and one integer sort of site * F + rank orders the pairs
(``_group_order``).  Each site's gradients then lose their bitwise
duplicates (Qhull's ``Qt`` repeats a gradient across the triangles of a
cocircular quad) and are ordered by angle around their mean in gradient
space, by a stable sort of the float key site + (angle + pi) / (4 pi),
which a tie sends to a lexsort of (site, angle) (``_angle_order``); both
orders are the lexsorts' bit for bit.  Gradients are gathered as x and y
columns.  The cells are then certified: at least 3 vertices, the mean
strictly left of every edge, and every cyclic turn e_k x e_{k+1} above
1e-12 |e_k| |e_{k+1}|.  A certified cell is the convex hull itself; it
starts at its lexicographically smallest vertex, as ``geometry.convex_hull``
returns it, and its shoelace area is summed about that vertex.  Any other
cell (empty, a point, a segment or a near-degenerate polygon) falls back to
``convex_hull`` and ``polygon_area`` of the site's face gradients.  Every
reader of the cells, ``weighted_mass`` included, takes these arrays.

The lifted lower hull, ``_lower_faces``, is the one hull primitive of the
package: ``lower_envelope`` and the solver's mass pass both build on it, and
``_envelope`` turns faces with their gradients and offsets into a
``PLConvexFunction``.  ``lower_envelope`` takes them from Qhull's plane
equations; the solver takes only Qhull's faces, and its envelope is its
last accepted pass.  The cells and their areas share no code with the solve
loop: this module imports nothing from ``solver``, and its gradient-space
order with a certificate is independent of the planar face order that
``solver._mass_pass`` sums.

The translator identity integrates each face with a degree-2 rule whose
node k sits at barycentric weight 2/3 next to the face's vertex k, and
counts a node for the site nearest to it.  ``_nearest_sites`` certifies
that vertex as the nearest site when the node lies within half the
vertex's distance to its nearest other site (with a 1e-9 relative margin
for rounding), and puts only the other nodes to a KD-tree query: 384 of
the 46,728 nodes of the primal translator on disk(1) at h = 0.02.  The
owners are the full query's, index for index.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import NamedTuple

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

from .errors import AlphaOutOfRange, DegenerateInput
from .geometry import (
    convex_hull,
    cyclic_successor,
    max_affine,
    orientation,
    polygon_area,
    polygons_quadrature,
    spans_plane,
    strictly_inside_hull,
    triangle_rule,
)


@dataclass(frozen=True)
class PLConvexFunction:
    """Lower convex envelope of a lifted planar point cloud."""

    sites: np.ndarray          # (N, 2)
    heights: np.ndarray        # (N,)
    triangulation: np.ndarray  # (F, 3) site-index triples, ccw in the plane
    gradients: np.ndarray      # (F, 2) per-face gradient
    offsets: np.ndarray        # (F,) per-face affine offset: z = g.x + c

    @cached_property
    def hull_interior(self) -> np.ndarray:
        """True for sites strictly inside the convex hull of all sites."""
        return strictly_inside_hull(self.sites)

    @cached_property
    def cells(self) -> _CellArrays:
        """The subgradient cells of the hull-interior sites, built once.
        Every reader shares them, so their arrays are read-only."""
        cells = _cell_arrays(self)
        for a in (cells.sites, cells.counts, cells.vertices, cells.areas):
            a.flags.writeable = False
        return cells

    def __call__(self, points) -> np.ndarray:
        """The max of the affine faces (exact inside the hull), by
        ``geometry.max_affine``: elementwise products in blocks, no BLAS."""
        return max_affine(points, self.gradients, self.offsets)


class SubgradientCell(NamedTuple):
    """Polygonal subdifferential of the envelope at one site: one record of
    ``_CellArrays``' record view, which only the benchmark reads."""

    site_index: int
    polygon: np.ndarray  # (k, 2) ccw in gradient space; may be empty/degenerate
    area: float


def _lower_faces(sites: np.ndarray, heights: np.ndarray):
    """(F, 3) site triples of the lower hull of the lifted points (x_i, heights_i)
    and their (F, 4) unit plane equations (nx, ny, nz, off), nz < 0.

    An apex far above the sites makes the lifted set full rank; Qhull's
    ``Qt`` triangulation resolves cocircular degeneracies deterministically.
    Inputs are not checked.
    """
    lifted = np.column_stack([sites, heights])
    spread = float(np.ptp(heights)) + float(np.ptp(sites)) + 1.0
    apex = np.array([[sites[:, 0].mean(), sites[:, 1].mean(), heights.max() + 10.0 * spread]])
    hull = ConvexHull(np.vstack([lifted, apex]), qhull_options="Qt")
    eq = hull.equations  # outward normals
    keep = (eq[:, 2] < -1e-12) & ~np.any(hull.simplices == len(sites), axis=1)
    return hull.simplices[keep], eq[keep]


def lower_envelope(sites, heights) -> PLConvexFunction:
    """Lower convex hull of the lifted points (x_i, heights_i).

    Sites strictly above the envelope are no vertex of its faces, which come
    from ``_lower_faces`` and are oriented ccw by ``_envelope``.
    """
    sites = np.asarray(sites, dtype=float)
    heights = np.asarray(heights, dtype=float)
    if sites.ndim != 2 or sites.shape[1] != 2:
        raise ValueError("sites must be an (N, 2) array")
    if len(sites) != len(heights):
        raise ValueError("sites and heights must have equal length")
    if not spans_plane(sites):
        raise DegenerateInput("all sites are collinear")

    try:
        tris, n = _lower_faces(sites, heights)
    except QhullError as exc:  # pragma: no cover - apex makes inputs full rank
        raise DegenerateInput(str(exc)) from exc
    # per-face affine data from the (unit) outward normal (nx, ny, nz), nz < 0:
    # z = -(nx x + ny y + off) / nz
    return _envelope(sites, heights, tris, -n[:, :2] / n[:, 2:3], -n[:, 3] / n[:, 2])


def _ccw(sites, tris) -> np.ndarray:
    """``tris`` with each clockwise triangle's last two vertices swapped."""
    cross = orientation(*(sites[tris[:, k]] for k in range(3)))
    return np.where((cross < 0)[:, None], tris[:, [0, 2, 1]], tris)


def _envelope(sites, heights, tris, grads, offs) -> PLConvexFunction:
    """The envelope whose lower-hull faces ``tris`` carry z = grads . x + offs,
    its triangles oriented ccw in the plane; ``tris`` is not modified."""
    return PLConvexFunction(sites, heights, _ccw(sites, tris), grads, offs)


@dataclass(frozen=True)
class _CellArrays:
    """Subgradient cells of all hull-interior sites, stored back to back.
    ``len`` and iteration are a record view for the benchmark only, one
    ``SubgradientCell`` per cell built at the first iteration; it goes with
    ``subgradient_cells`` and ``site_weighted_mass`` once the benchmark
    reads the arrays."""

    sites: np.ndarray     # (M,) hull-interior site indices, ascending
    counts: np.ndarray    # (M,) vertices per cell
    vertices: np.ndarray  # (counts.sum(), 2) ccw polygons, each from its lexicographic minimum
    areas: np.ndarray     # (M,)

    def __len__(self) -> int:
        return len(self.sites)

    def __iter__(self):
        return iter(self._records)

    @cached_property
    def _records(self) -> list:
        ends = np.cumsum(self.counts).tolist()
        polygons = map(self.vertices.__getitem__, map(slice, [0] + ends[:-1], ends))
        # tuple.__new__ builds each record in C, as the class's own __new__ would
        fields = zip(self.sites.tolist(), polygons, self.areas.tolist())
        return list(map(tuple.__new__, repeat(SubgradientCell), fields))


def _cell_arrays(f: PLConvexFunction) -> _CellArrays:
    """Cells of all hull-interior sites from one pass over the (site, incident
    face) pairs; the module docstring states the certificate and fallback."""
    interior = f.hull_interior
    sites = np.flatnonzero(interior)
    m = len(sites)
    cell_of_site = np.cumsum(interior) - 1
    flat = f.triangulation.ravel()
    keep = np.flatnonzero(interior[flat])
    cell = cell_of_site[flat[keep]]
    face = keep // 3
    gx, gy = np.ascontiguousarray(f.gradients.T)

    # group by cell in lexicographic order and drop bitwise-duplicate gradients
    order = _group_order(cell, face, gx, gy)
    cell, gx, gy = cell[order], gx[face[order]], gy[face[order]]
    bx, by = gx.view(np.int64), gy.view(np.int64)
    dup = np.zeros(len(cell), dtype=bool)
    dup[1:] = (cell[1:] == cell[:-1]) & (bx[1:] == bx[:-1]) & (by[1:] == by[:-1])
    cell, gx, gy = cell[~dup], gx[~dup], gy[~dup]
    counts = np.bincount(cell, minlength=m)
    starts = np.cumsum(counts) - counts
    first = starts[cell]  # the cell's lexicographic minimum
    full = counts > 0

    # order by angle around the mean, starting from the lexicographic minimum
    n = np.maximum(counts, 1)
    dx = gx - (np.bincount(cell, gx, m) / n)[cell]
    dy = gy - (np.bincount(cell, gy, m) / n)[cell]
    order = _angle_order(cell, np.arctan2(dy, dx))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    shift = np.repeat(rank[starts[full]] - starts[full], counts[full])
    size = np.repeat(counts, counts)
    src = order[first + (np.arange(len(cell)) - first + shift) % size]
    gx, gy, dx, dy = gx[src], gy[src], dx[src], dy[src]

    # certificate: strictly convex and star-shaped about the mean
    nxt = cyclic_successor(counts)
    ex, ey = gx[nxt] - gx, gy[nxt] - gy
    turn = ex * ey[nxt] - ey * ex[nxt]
    length = np.hypot(ex, ey)
    around = dx * dy[nxt] - dy * dx[nxt]
    bad = ~((turn > 1e-12 * length * length[nxt]) & (around > 0.0))
    certified = (counts >= 3) & (np.bincount(cell, bad, m) == 0)

    # shoelace area about each cell's first vertex
    qx, qy = gx - gx[first], gy - gy[first]
    cross = qx * qy[nxt] - qy * qx[nxt]
    areas = np.zeros(m)
    areas[full] = 0.5 * np.add.reduceat(cross, starts[full])

    g = np.column_stack([gx, gy])
    if not certified.all():
        # the incident faces of the fallback sites only, ascending per site,
        # and their polygons spliced between the slices of the other cells
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
    return _CellArrays(sites=sites, counts=counts, vertices=g, areas=areas)


def _group_order(cell, face, gx, gy) -> np.ndarray:
    """The permutation ``np.lexsort((gy[face], gx[face], cell))`` of the
    (cell, face) pairs, given in ascending face order per cell.

    The faces are ranked once by a stable lexsort of their gradients, which
    puts equal gradients in face order as the pairs are; a face meets a cell
    at most once, so the integer keys cell * F + rank[face] are distinct and
    any sort of them gives that permutation.
    """
    rank = np.empty(len(gx), dtype=np.int64)
    rank[np.lexsort((gy, gx))] = np.arange(len(gx))
    return np.argsort(cell * len(gx) + rank[face])


def _angle_order(cell, angle) -> np.ndarray:
    """The permutation ``np.lexsort((angle, cell))`` for angles in [-pi, pi].

    The float key cell + (angle + pi) / (4 pi) puts each cell's angles in
    [cell, cell + 1/2], and each rounding is monotone, so the key never
    reorders two pairs; it can only tie two angles of one cell.  When its
    stable sort has no tie and every key is finite, the order is the
    lexsort's; else the lexsort is taken.
    """
    key = cell + (angle + np.pi) / (4.0 * np.pi)
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    if np.all(np.isfinite(ordered)) and np.all(ordered[1:] != ordered[:-1]):
        return order
    return np.lexsort((angle, cell))


def subgradient_cells(f: PLConvexFunction) -> _CellArrays:
    """``f.cells``, for the benchmark, which iterates them as records.
    Boundary sites carry unbounded subdifferentials and have no cell;
    interior sites off the envelope get an empty cell of zero area."""
    return f.cells


def ma_measure(f: PLConvexFunction) -> np.ndarray:
    """Per-site Monge-Ampere masses (zero at boundary sites and off the envelope)."""
    c = f.cells
    masses = np.zeros(len(f.sites))
    masses[c.sites] = c.areas
    return masses


def weighted_mass(cells: _CellArrays, weight) -> np.ndarray:
    """Per-cell integrals of a weight over the subdifferential polygons.

    The weight is a function of the gradient variable; integration uses a
    centroid triangle fan with the symmetric degree-4 rule, all fans in one
    call of the weight.  Cells of area 0 (or NaN) or under 3 vertices read 0.
    """
    full = (cells.areas > 0.0) & (cells.counts >= 3)
    out = np.zeros(len(cells.areas))
    if full.any():
        vertices = cells.vertices[np.repeat(full, cells.counts)]
        out[full] = polygons_quadrature(vertices, cells.counts[full], weight)
    return out


def gauss_map_mass(cells: _CellArrays) -> float:
    """Spherical area of the Gauss image over the cells' sites.

    The lower-hemisphere pullback of surface measure along y -> (y, -1)/sqrt(1+|y|^2)
    has Jacobian (1 + |y|^2)^(-3/2).
    """
    w = lambda y: (1.0 + y[:, 0] ** 2 + y[:, 1] ** 2) ** (-1.5)
    return float(weighted_mass(cells, w).sum())


def site_weighted_mass(f: PLConvexFunction, cells, weight) -> float:
    """Sum of weight(site) * cell-area over cell records: the benchmark's
    form of ``dual_identity``'s pairing, where the weight lives on x."""
    idx = np.array([c.site_index for c in cells], dtype=np.intp)
    areas = np.array([c.area for c in cells], dtype=float)
    return _site_pairing(f, idx, areas, weight)


def _site_pairing(f: PLConvexFunction, sites, areas, weight) -> float:
    return float(np.asarray(weight(f.sites[sites]), dtype=float) @ areas)


DUAL_IDENTITY_ANNULI = ((0.15, 0.35), (0.35, 0.55), (0.55, 0.75))


def dual_identity(f: PLConvexFunction, alpha: float, radius: float, h: float) -> list:
    """Dual-equation identity of a solution on the disk of the given radius.

    On each annulus of ``DUAL_IDENTITY_ANNULI`` (fractions of the radius),
    the hull-interior sites' pairing sum of (1 + |x|^2)^(2 - 1/(2 alpha))
    times cell area should match the annulus' lattice area (site count times
    h^2).  Returns one row (r_lo, r_hi, weighted_mass, area, deviation) per
    annulus, with deviation = |weighted_mass / area - 1|.  The masses are
    those of ``f.cells``, so a caller that has read them pays no second build.
    """
    weight = lambda y: (1.0 + y[:, 0] ** 2 + y[:, 1] ** 2) ** (2.0 - 1.0 / (2.0 * alpha))
    masses = ma_measure(f)
    sites = np.flatnonzero(f.hull_interior)
    radii = np.hypot(f.sites[sites, 0], f.sites[sites, 1])
    rows = []
    for lo_f, hi_f in DUAL_IDENTITY_ANNULI:
        lo, hi = lo_f * radius, hi_f * radius
        chosen = sites[(lo <= radii) & (radii <= hi)]
        weighted = _site_pairing(f, chosen, masses[chosen], weight)
        lebesgue = len(chosen) * h * h
        rows.append((lo, hi, weighted, lebesgue, abs(weighted / lebesgue - 1.0)))
    return rows


@dataclass(frozen=True)
class TranslatorIdentityReport:
    """Two independent evaluations of the graph-equation balance on a site subset."""

    measure_side: float   # sum of subgradient-cell areas
    integral_side: float  # face-quadrature of (1 + |grad|^2)^(2 - 1/(2 alpha))
    residual: float
    relative_residual: float


def check_translator_identity(f: PLConvexFunction, alpha: float, site_subset) -> TranslatorIdentityReport:
    """Compare the Monge-Ampere mass of a site subset with the graph-equation
    integral int (1 + |Du|^2)^(2 - 1/(2 alpha)) over the matching region.

    The region of a subset is the union of its sites' nearest-site cells:
    every face is integrated with a degree-2 rule and each quadrature node
    contributes when its nearest site belongs to the subset.  The rule's
    node k of a face lies at barycentric weight 2/3 next to the face's
    vertex k, which ``_nearest_sites`` certifies as its nearest site when
    it can, and puts to the KD-tree query otherwise.  alpha = 1/4 is
    allowed here (the weight becomes 1 and the identity reduces to
    mass = area).
    """
    if not 0.0 < float(alpha) <= 0.25:
        raise AlphaOutOfRange(f"alpha must lie in (0, 1/4], got {alpha!r}")
    subset = np.zeros(len(f.sites), dtype=bool)
    subset[np.asarray(list(site_subset), dtype=int)] = True

    cells = f.cells
    lhs = float(cells.areas[subset[cells.sites]].sum())

    tris = f.triangulation
    a, b, c = (f.sites[tris[:, k]] for k in range(3))
    areas = 0.5 * np.abs(orientation(a, b, c))
    g2 = f.gradients[:, 0] ** 2 + f.gradients[:, 1] ** 2
    density = (1.0 + g2) ** (2.0 - 1.0 / (2.0 * alpha))
    bary, wq = triangle_rule(2)
    pts = bary[:, 0, None, None] * a + bary[:, 1, None, None] * b + bary[:, 2, None, None] * c
    owner = _nearest_sites(f.sites, pts.reshape(-1, 2), tris.T.ravel())
    inside = subset[owner].reshape(len(wq), len(tris))
    rhs = 0.0
    for k in range(len(wq)):
        rhs += wq[k] * float(np.sum(density * areas * inside[k]))

    res = abs(lhs - rhs)
    rel = res / rhs if rhs > 0 else (0.0 if res == 0 else np.inf)
    return TranslatorIdentityReport(
        measure_side=lhs, integral_side=rhs, residual=res, relative_residual=rel
    )


def _nearest_sites(sites, points, near) -> np.ndarray:
    """Index of each point's nearest site, equal to
    ``cKDTree(sites).query(points)[1]``; ``near`` names a candidate site
    per point, and the query runs only for the points it cannot certify.

    Let gap(a) be the distance from site a to its nearest other site (one
    k = 2 query of the sites themselves) and p a point with
    2 |p - a| < gap(a).  For every other site s, the triangle inequality
    gives |p - s| >= |a - s| - |p - a| >= gap(a) - |p - a| > |p - a|, so a
    is the unique nearest site and the query returns it.  The test is
    4 |p - a|**2 < (1 - 1e-9) gap(a)**2: the margin 1e-9 is far above the
    few units of rounding (2**-53 each) in the squared distances, here and
    in the query, so a certified point's exact nearest site is a, and the
    query's float comparison sees a ahead by about 5e-10 gap(a)**2.
    Duplicated sites have gap 0 and NaN fails the test, so their points go
    to the query.  Both queries use every CPU; their results are those of
    one worker.
    """
    tree = cKDTree(sites)
    gap = tree.query(sites, k=2, workers=-1)[0][:, 1]
    d = points - sites[near]
    owner = np.array(near, dtype=np.intp)
    rest = np.flatnonzero(~(4.0 * (d[:, 0] ** 2 + d[:, 1] ** 2) < (1.0 - 1e-9) * gap[near] ** 2))
    if rest.size:
        owner[rest] = tree.query(points[rest], workers=-1)[1]
    return owner
