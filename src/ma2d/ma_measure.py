"""Exact Monge-Ampere measures of piecewise-linear convex functions.

A PL convex function is the lower convex envelope of lifted sites
(x_i, height_i).  Its Monge-Ampere measure is atomic: the mass at an
interior site is the area of the polygonal subdifferential there, which
equals the convex hull of the gradients of the incident envelope faces.

A site is hull-interior when ``geometry.strictly_inside_hull`` says so:
every edge cross product against Qhull's hull of the sites exceeds
1e-12 scale**2.  All cells are built in one array pass over the
(hull-interior site, incident face) pairs, once per envelope, whose
``cells`` keeps them for every later reader.  The pairs are grouped by
site in lexicographic order of the gradients: the faces are ranked once by
their gradients, and one integer sort of site * F + rank orders the pairs
(``_group_order``).  Each site's gradients then lose their bitwise
duplicates (Qhull's ``Qt`` repeats a gradient across the triangles of a
cocircular quad), and each cell is the convex hull of the rest by the
package's one monotone chain, all cells in one ``geometry.convex_hulls``
call, with no certificate and no fallback.  A cell runs ccw from its
lexicographically smallest vertex; collinear gradients give their first and
last, one gradient that point, and a site on no face an empty cell.  Its
shoelace area is summed about its first vertex, as
``geometry.polygon_area`` sums it, and is 0 under 3 vertices.  Every
reader of the cells, ``weighted_mass`` included, takes these arrays.

The lifted lower hull is the one hull primitive of the package, and lives
here: Qhull's whole hull (``_lower_faces``), the lattice start that builds
most of it from lattice squares with Qhull on a band of sites only
(``_square_start``), and the checks that the faces triangulate the sites'
hull (``_twins``, ``_tiles_a_disk``) and are locally convex
(``_edge_lifts``).  The solver's start pass calls the same start and check
on its paraboloid's squares, and its mass passes build on the same pieces;
this module imports nothing from ``solver``.  ``lower_envelope`` recognises
a lattice from the sites alone (``_lattice``: the pitch is the least
nonzero |coordinate|, the lattice box is bounded in floats before any
integer cast, and duplicated sites are no lattice), so O(N) time and
memory decide the path on any input.  On a lattice it splits each square
whose four corners are sites along its lower diagonal, merges the squares'
triangles with Qhull's lower hull of the band (the sites that are not a
corner of four squares) and certifies the merge (``_lattice_faces``):
every face strictly ccw, the edge pairing an involution, V - E + F = 1,
the unpaired half-edges those of the band's hull, every site a vertex, and
n . (P[v] - P[a]) >= 0 on every interior edge.  A triangulation of the
sites' hull that is locally convex everywhere is the lower hull
(Edelsbrunner & Shah, Algorithmica 1996).  Its planes are the vertex cross
products, and a tied square's two triangles share one.  On the primal
translator on disk(1) at h = 0.02, criterion 05's input, the band is 396 of
7,845 sites and the faces are Qhull's 15,576.  Any failed check, and any
input that is no lattice, takes Qhull's whole hull with its ``Qt`` plane
equations, bit for bit as before; ``hull_sites`` records which path ran.
The envelope's cells and their areas share no code with the solve loop:
their gradient-space chain is independent of the planar face order that
``solver._mass_pass`` sums.

The translator identity integrates each face with a degree-2 rule whose
node k sits at barycentric weight 2/3 next to the face's vertex k, and
counts a node for the site nearest to it.  ``_nearest_sites`` certifies
that vertex as the nearest site when the node lies within half a lower
bound on the vertex's distance to its nearest other site (with a 1e-9
relative margin for rounding), and puts only the other nodes to a KD-tree
query: 384 of the 46,728 nodes of the primal translator on disk(1) at
h = 0.02.  On a lattice of pitch h the bound is h (1 - 1e-9) for every
site, with no query of the sites; elsewhere it is the gap of a k = 2
query.  The owners are the full query's, index for index.

The Gauss-map mass needs no quadrature.  The Gauss map of the envelope's
gradients, y -> (y, -1) / sqrt(1 + |y|^2), inverts the gnomonic projection
onto the plane z = -1: it sends segments to great-circle arcs, so each
cell's image is a geodesic polygon on the lower hemisphere, and its area
element is exactly (1 + |y|^2)^(-3/2) dy.  ``gauss_map_mass`` sums the
closed-form areas of the triangles of the fan from each cell's first
vertex.  It selects the cells ``weighted_mass`` integrates (area > 0 and at
least 3 vertices), so empty and degenerate cells read 0 as before; on
criterion 05's 7,733 cells it lands within 3e-14 relative of the
degree-4 centroid fan refined three times by 4-way splits, where that fan
alone was 7e-9 off.  ``weighted_mass`` keeps that fan for other weights.
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
    convex_hulls,
    cyclic_successor,
    max_affine,
    orientation,
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
    # sites handed to Qhull: the band on the lattice path, N (plus the band
    # of a failed lattice start) on Qhull's; 0 for the solver's envelope
    hull_sites: int = 0

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
    and their (F, 4) unit plane equations (nx, ny, nz, off), nz < 0: Qhull's
    whole hull, which builds the band of a lattice start and every hull
    that no start gives.

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

    Sites strictly above the envelope are no vertex of its faces.  When the
    sites are a lattice (``_lattice``), the faces are the lattice start that
    ``_lattice_faces`` certifies, with planes from vertex cross products and
    offsets at each face's first vertex; otherwise, or when the start fails
    its certificate, they are Qhull's whole hull (``_lower_faces``) with its
    plane equations, each turned ccw in the plane.  ``hull_sites`` counts
    the sites handed to Qhull: the band alone on the lattice path.
    """
    sites = np.asarray(sites, dtype=float)
    heights = np.asarray(heights, dtype=float)
    if sites.ndim != 2 or sites.shape[1] != 2:
        raise ValueError("sites must be an (N, 2) array")
    if len(sites) != len(heights):
        raise ValueError("sites and heights must have equal length")
    if not spans_plane(sites):
        raise DegenerateInput("all sites are collinear")

    tris, grads, band = _lattice_faces(sites, heights)
    if tris is not None:
        return _faces_envelope(sites, heights, tris, grads, hull_sites=band)
    try:
        tris, n = _lower_faces(sites, heights)
    except QhullError as exc:  # pragma: no cover - apex makes inputs full rank
        raise DegenerateInput(str(exc)) from exc
    # per-face affine data from the (unit) outward normal (nx, ny, nz), nz < 0:
    # z = -(nx x + ny y + off) / nz
    return PLConvexFunction(sites, heights, _ccw(sites, tris), -n[:, :2] / n[:, 2:3],
                            -n[:, 3] / n[:, 2], band + len(sites))


def _ccw(sites, tris) -> np.ndarray:
    """``tris`` with each clockwise triangle's last two vertices swapped."""
    cross = orientation(*(sites[tris[:, k]] for k in range(3)))
    return np.where((cross < 0)[:, None], tris[:, [0, 2, 1]], tris)


def _faces_envelope(sites, heights, tris, grads, hull_sites=0) -> PLConvexFunction:
    """The envelope on the lower-hull faces ``tris``, ccw in the plane, with
    the gradients ``grads`` of their vertex cross products, each face's
    offset z - g . x taken at its first vertex."""
    offsets = heights[tris[:, 0]] - np.einsum("ij,ij->i", sites[tris[:, 0]], grads)
    return PLConvexFunction(sites, heights, tris, grads, offsets, hull_sites)


def _lattice(sites: np.ndarray):
    """(h, lo, index) when the sites are distinct nodes k h of the
    origin-anchored lattice of pitch h, or None: ``index[k - lo]`` is the
    site at k, and -1 where no site is.

    The pitch is the least nonzero |coordinate|.  The lattice box is bounded
    in floats before any integer cast: (ptp x1 / h + 1) (ptp x2 / h + 1)
    <= 4 N + 64, which also rejects NaN and +-inf, and every |coordinate|
    <= 2**19 h.  So the recognition costs O(N) time and memory on any input.
    Every site must lie within 2**-33 of its lattice point in units of h,
    as computed: x / h rounds by at most 2**-34 at |x / h| <= 2**19, and a
    node stored as the rounded k h reads at most 2**-52 |k| <= 2**-33 off
    k.  So each site lies within 1.5 2**-33 h of k h per coordinate, and two
    distinct sites at least h (1 - 5e-10) apart.
    """
    n = len(sites)
    x = np.abs(sites).ravel()
    nonzero = x[x > 0.0]
    if not len(nonzero):
        return None
    h = float(nonzero.min())
    box = (float(np.ptp(sites[:, 0])) / h + 1.0) * (float(np.ptp(sites[:, 1])) / h + 1.0)
    if not (box <= 4.0 * n + 64.0 and float(x.max()) <= 2.0**19 * h):
        return None
    r = sites / h
    k = np.rint(r)
    if not np.all(np.abs(r - k) <= 2.0**-33):
        return None
    k = k.astype(np.int64)
    lo = np.array([k[:, 0].min(), k[:, 1].min()])
    hi = np.array([k[:, 0].max(), k[:, 1].max()])
    index = np.full(hi - lo + 1, -1, dtype=np.intp)
    index[k[:, 0] - lo[0], k[:, 1] - lo[1]] = np.arange(n)
    if np.count_nonzero(index >= 0) < n:  # a duplicated site
        return None
    return h, lo, index


def _lattice_faces(sites: np.ndarray, heights: np.ndarray):
    """(faces, gradients, band size) of the lower hull of the lifted sites,
    built from their lattice squares and certified; (None, None, band size)
    when the sites are no lattice, a height is not finite or the start
    fails its certificate, with band size 0 when no Qhull hull was built.

    The squares are the lattice cells whose four corners are sites.  Each
    splits along its lower diagonal: corners 0 and 2 when
    z0 + z2 <= z1 + z3, else 1 and 3.  The sites that are not a corner of
    four squares form the band, whose lower hull Qhull builds; its faces
    over a square are dropped (``_square_start``).  A band that Qhull
    rejects leaves the error, if any, to the whole hull.  A lattice with no
    site of four squares, such as the solver's boundary ring, builds nothing.
    The merged faces are certified: they tile the hull of the sites
    (``_tiles_a_disk``), every site is a vertex, and every interior edge is
    locally convex, n . (P[v] - P[a]) >= 0 in floats (``_edge_lifts``).
    Such a triangulation is the lower hull (Edelsbrunner & Shah,
    Algorithmica 1996).  The planes are the vertex cross products, except
    that a square whose heights tie, z0 + z2 == z1 + z3, gives its second
    triangle the first one's, as the solver's start does: separate cross
    products of coplanar triangles differ by an ulp, and would give a cell
    two gradients an ulp apart.
    """
    lattice = _lattice(sites)
    if lattice is None or not np.all(np.isfinite(heights)):
        return None, None, 0
    h, lo, index = lattice
    corners = (index[:-1, :-1], index[1:, :-1], index[1:, 1:], index[:-1, 1:])
    square = (corners[0] >= 0) & (corners[1] >= 0) & (corners[2] >= 0) & (corners[3] >= 0)
    squares = np.column_stack([c[square] for c in corners])
    count = np.bincount(squares.ravel(), minlength=len(sites))
    if not np.any(count == 4):
        return None, None, 0
    band = np.flatnonzero(count < 4)
    z = heights[squares]
    diagonal = z[:, 0] + z[:, 2]
    other = z[:, 1] + z[:, 3]
    turn = diagonal > other
    squares[turn] = squares[turn][:, [1, 2, 3, 0]]
    try:
        band_faces = band[_lower_faces(sites[band], heights[band])[0]]
    except (QhullError, ValueError):  # NaN heights, say: the whole hull decides
        return None, None, len(band)
    tris, boundary = _square_start(sites, band_faces, squares, h, lo, square)
    twin = _twins(len(sites), tris)
    covers = np.all(np.bincount(tris.ravel(), minlength=len(sites)))
    if not (covers and _tiles_a_disk(sites, tris, twin, boundary)):
        return None, None, len(band)
    lifted = np.column_stack([sites, heights])
    normal = _normals(lifted, tris)
    second = len(tris) - len(squares)
    tied = np.flatnonzero(diagonal == other)
    normal[second + tied] = normal[second - len(squares) + tied]
    half = _interior_half_edges(twin.ravel())
    if not np.all(_edge_lifts(lifted, tris, normal, half, twin.ravel()) >= 0.0):
        return None, None, len(band)
    return tris, _gradients(normal), len(band)


def _square_start(sites, band_faces, squares, h, lo, square_cell):
    """The faces of the lower hull that the lattice squares give, and the
    boundary of the band's: (faces, boundary).  ``squares`` are (S, 4) site
    indices, ccw, each split along its corners 0 and 2; ``band_faces`` is
    Qhull's lower hull (``_lower_faces``) of the band, the sites that are
    not corners of four squares, in site indices.  ``square_cell[i, j]`` is
    whether the lattice cell lo + (i, j) of pitch ``h`` is a square.

    A band face is dropped when the lattice cell that holds its centroid,
    floor(centroid / h), is a square, and the two triangles of every square
    take the dropped faces' place.  The face's vertices would not do: a band
    face that spans the squares' region need not touch the square it
    covers.  The faces are the kept band faces, ccw, then the squares'
    triangles (0, 1, 2), then (0, 2, 3).  ``boundary`` lists the band
    hull's boundary half-edges (``_boundary``) for ``_tiles_a_disk``.
    """
    cell = np.floor(sites[band_faces].mean(axis=1) / h).astype(np.int64) - lo
    i, j = cell[:, 0], cell[:, 1]
    inside = (i >= 0) & (j >= 0) & (i < square_cell.shape[0]) & (j < square_cell.shape[1])
    i, j = i[inside], j[inside]
    inside[inside] = square_cell[i, j]
    tris = _ccw(sites, band_faces)
    boundary = _boundary(len(sites), tris, _twins(len(sites), tris))
    return np.concatenate([tris[~inside], squares[:, [0, 1, 2]], squares[:, [0, 2, 3]]]), boundary


def _twins(n: int, tris: np.ndarray) -> np.ndarray:
    """(F, 3) edge pairing of faces on n sites: side k of face f, opposite
    its vertex k, is the half-edge 3 f + k, and ``twin`` holds the half-edge
    3 g + j when that side is side j of face g, -1 when no other face has
    it.  An edge on three faces pairs two of them."""
    lo = np.minimum(tris[:, [1, 2, 0]], tris[:, [2, 0, 1]]).ravel()
    hi = np.maximum(tris[:, [1, 2, 0]], tris[:, [2, 0, 1]]).ravel()
    order = np.argsort(lo * n + hi, kind="stable")
    lo, hi = lo[order], hi[order]
    pair = np.flatnonzero((lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1]))
    twin = np.full(3 * len(tris), -1)
    twin[order[pair]] = order[pair + 1]
    twin[order[pair + 1]] = order[pair]
    return twin.reshape(-1, 3)


def _boundary(n: int, tris: np.ndarray, twin: np.ndarray) -> np.ndarray:
    """The unpaired half-edges of faces on n sites, ascending, each as
    tail * n + head; side k of a face runs from its vertex k + 1 to k + 2."""
    half = np.flatnonzero(twin.ravel() < 0)
    tail, head = tris[:, [1, 2, 0]].ravel()[half], tris[:, [2, 0, 1]].ravel()[half]
    return np.sort(tail * n + head)


def _tiles_a_disk(sites, tris, twin, boundary) -> bool:
    """Whether the faces ``tris`` with the edge pairing ``twin`` triangulate
    the region that ``boundary`` (``_boundary`` of a triangulation of the
    sites' hull) bounds, by integer counts: every face is strictly ccw in
    the plane, the edge pairing is an involution between opposite
    half-edges (so an edge is on at most two faces, on opposite sides), the
    Euler characteristic V - E + F is 1 (a hole makes it 0), and the
    unpaired half-edges are those of ``boundary``.  All faces ccw, each
    point is then covered as often as the boundary winds about it: once
    inside the hull, so the faces are a triangulation of the hull."""
    if not np.all(orientation(*(sites[tris[:, k]] for k in range(3))) > 0.0):
        return False
    twin = twin.ravel()
    half = np.flatnonzero(twin >= 0)
    other = twin[half]
    tail, head = tris[:, [1, 2, 0]].ravel(), tris[:, [2, 0, 1]].ravel()  # side k: k+1 -> k+2
    if not (np.array_equal(twin[other], half) and np.array_equal(tail[other], head[half])):
        return False
    vertices = np.count_nonzero(np.bincount(tris.ravel(), minlength=len(sites)))
    edges = len(half) // 2 + (len(twin) - len(half))
    return (vertices - edges + len(tris) == 1
            and np.array_equal(_boundary(len(sites), tris, twin), boundary))


def _interior_half_edges(twin: np.ndarray) -> np.ndarray:
    """Each interior edge once, as its lower half-edge, in ascending order."""
    return np.flatnonzero(twin > np.arange(len(twin)))


def _normals(lifted: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """(b - a) x (c - a) per lifted face (a, b, c); n_z > 0 when it is ccw in the plane.
    Like the other per-pass kernels it gathers coordinate columns, at about
    half the cost of gathering the rows of ``lifted``."""
    x, y, z = lifted.T
    a, b, c = tris.T
    ax, ay, az = x[a], y[a], z[a]
    ux, uy, uz = x[b] - ax, y[b] - ay, z[b] - az
    vx, vy, vz = x[c] - ax, y[c] - ay, z[c] - az
    return np.column_stack([uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx])


def _edge_lifts(lifted, tris, normal, half, twin) -> np.ndarray:
    """n . (P[v] - P[a]) per half-edge of ``half``: with the normal n of its
    face (a, b, c) and the vertex v opposite it on the other side, the height
    of v above the plane of the face, times twice the face's planar area."""
    f = half // 3
    v, a = tris.ravel()[twin[half]], tris[f, 0]
    x, y, z = lifted.T
    nx, ny, nz = normal.T
    return nx[f] * (x[v] - x[a]) + ny[f] * (y[v] - y[a]) + nz[f] * (z[v] - z[a])


def _gradients(normal: np.ndarray) -> np.ndarray:
    """Face gradients from face normals that point up (n_z > 0) or down."""
    return -normal[:, :2] / normal[:, 2:3]


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
    face) pairs, each the monotone chain of its site's face gradients."""
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
    start = np.flatnonzero(np.diff(cell, prepend=-1, append=m))  # the cells' groups
    counts = np.zeros(m, dtype=np.intp)
    take, counts[cell[start[:-1]]] = convex_hulls(gx, gy, start)
    gx, gy = gx[take], gy[take]

    # shoelace area about each polygon's first vertex
    starts = np.cumsum(counts) - counts
    first = np.repeat(starts, counts)
    nxt = cyclic_successor(counts)
    qx, qy = gx - gx[first], gy - gy[first]
    cross = qx * qy[nxt] - qy * qx[nxt]
    areas = np.zeros(m)
    full = counts > 0
    areas[full] = 0.5 * np.add.reduceat(cross, starts[full])
    areas[counts < 3] = 0.0
    return _CellArrays(sites, counts, np.column_stack([gx, gy]), areas)


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
    """Spherical area of the Gauss image over the cells' sites, in closed form.

    The Gauss map y -> (y, -1) / sqrt(1 + |y|^2) pulls surface measure back
    to (1 + |y|^2)^(-3/2) dy.  It is the inverse of the gnomonic projection
    from the centre of the sphere onto the plane z = -1, so it sends segments
    to great-circle arcs and a convex cell to a convex geodesic polygon whose
    vertices are the unit normals of the cell's vertices.  The fan from each
    cell's first vertex splits that polygon into triangles of one
    orientation, and a triangle of unit vectors a, b, c has area
    2 atan2(|a . (b x c)|, 1 + a . b + b . c + c . a) (Van Oosterom &
    Strackee, IEEE TBME 1983).  The cells are those ``weighted_mass``
    integrates, area > 0 and at least 3 vertices, so an empty or degenerate
    cell reads 0 on either route.  The pairs (k, k + 1) of consecutive
    vertices are taken over all cells at once, as views, with each cell's
    first vertex gathered beside them; the pairs that start at a cell's first
    or last vertex are no fan triangle and count 0.
    """
    full = (cells.areas > 0.0) & (cells.counts >= 3)
    counts = cells.counts[full]
    if not len(counts):
        return 0.0
    take = np.repeat(full, cells.counts)
    x, y = cells.vertices[take, 0], cells.vertices[take, 1]
    nz = -1.0 / np.sqrt(1.0 + x * x + y * y)
    nx, ny = -x * nz, -y * nz
    del x, y
    ends = np.cumsum(counts)
    starts = ends - counts
    first = np.repeat(starts, counts)[:-1]
    ax, ay, az = nx[first], ny[first], nz[first]
    del first
    bx, by, bz, cx, cy, cz = nx[:-1], ny[:-1], nz[:-1], nx[1:], ny[1:], nz[1:]
    det = ax * (by * cz - bz * cy) + ay * (bz * cx - bx * cz) + az * (bx * cy - by * cx)
    dots = 1.0 + (ax * bx + ay * by + az * bz) + (bx * cx + by * cy + bz * cz) \
        + (cx * ax + cy * ay + cz * az)
    angle = np.arctan2(np.abs(det), dots)
    angle[starts] = 0.0
    angle[ends[:-1] - 1] = 0.0
    return float(2.0 * angle.sum())


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

    Let g(a) be a lower bound on the distance gap(a) from site a to its
    nearest other site and p a point with 2 |p - a| < g(a).  For every other
    site s, the triangle inequality gives |p - s| >= |a - s| - |p - a| >=
    gap(a) - |p - a| > |p - a|, so a is the unique nearest site and the
    query returns it.  On a lattice of pitch h (``_lattice``), two distinct
    sites lie at least h (1 - 5e-10) apart, so g(a) = h (1 - 1e-9) for
    every site, with no query of the sites; otherwise g(a) = gap(a), from
    one k = 2 query of the sites themselves.  The test is
    4 |p - a|**2 < (1 - 1e-9) g(a)**2: the margin 1e-9 is far above the
    few units of rounding (2**-53 each) in the squared distances, here and
    in the query, so a certified point's exact nearest site is a, and the
    query's float comparison sees a ahead by about 5e-10 gap(a)**2.
    Duplicated sites are no lattice and have gap 0, and NaN fails the test,
    so their points go to the query.  Both queries use every CPU; their
    results are those of one worker.
    """
    lattice = _lattice(sites)
    tree = None
    if lattice is None:
        tree = cKDTree(sites)
        gap = tree.query(sites, k=2, workers=-1)[0][:, 1][near]
    else:
        gap = lattice[0] * (1.0 - 1e-9)
    d = points - sites[near]
    owner = np.array(near, dtype=np.intp)
    rest = np.flatnonzero(~(4.0 * (d[:, 0] ** 2 + d[:, 1] ** 2) < (1.0 - 1e-9) * gap ** 2))
    if rest.size:
        tree = cKDTree(sites) if tree is None else tree
        owner[rest] = tree.query(points[rest], workers=-1)[1]
    return owner
