"""Dirichlet solver for det D2 v = f in the exact discrete Alexandrov sense.

The unknown is the vector of interior heights; the equation asks that the
subgradient-cell area of every interior site equal the prescribed integral of
f over its lattice cell.  The solve starts from max(q, E + a (|x - x0|^2 -
R^2) / 2): q(x) = a |x - x0|^2 / 2 + l(x) + c is a paraboloid matched to the
median target mass, tilted by the least-squares affine fit l of the boundary
gap g - a |x - x0|^2 / 2 and kept below the boundary data, E is the lower
convex envelope of the boundary data and R^2 the largest |x - x0|^2 over the
boundary sites (``_paraboloid_init``).  The fit is linear in the data, so
boundary data tilted by an affine l0 tilt the start by l0, and the solve
takes the steps of the untilted problem, as the equation and the masses
ignore the tilt.  Both branches are strictly convex and lie on or below the
data at the boundary, so every interior site is a hull vertex with positive
mass; E's branch lifts the start where the data rise faster than q, as
|x1|^6 does near x1 = +-1.  The solve then runs damped Newton on the mass
map.  The Jacobian is the standard power-diagram stiffness,
d(mass_i)/d(height_j) = L_ij / |x_j - x_i| for the cell edge generated by
neighbor j, sparse and symmetric, with the diagonal carrying the boundary
links.  The right-hand side of the Newton system is m - t, except for a cell
whose mass m is above its target t: there the row is Newton on
sqrt(m) - sqrt(t) (``_newton_phase``).
When Newton stops short of the tolerance, the solve raises NoConvergence
with the residual of the heights it reached; there is no second method to
fall back on.

Masses are a vectorized fan sum over the lifted lower triangulation, held
as a topology: its faces, ccw in the plane, and their edge pairing, from
which the fans about each site and the Jacobian's links follow.  A mass pass
(the start and each line-search trial) finds the lower hull of its heights
in one of four ways:

- from the lattice, for the start pass: every lift of the start lies on or
  above q.  The four corners of a lattice square lie on a circle with no
  other lattice site on or inside it, and q exceeds the plane through their
  lifts by a (|x - m|^2 - r^2) / 2 for the circle's centre m and radius r,
  which is positive off the circle; the affine l + c cancels in that
  difference, as an affine term changes no face of a lower hull.  So every
  square whose corners are interior sites at height q is a face of the
  lower hull, and Qhull builds the hull of the band only: the sites that are
  not corners of four such squares, 860 of verify-dual's 12,853
  (``_square_hull``).  The merge and its check are those of
  ``ma_measure.lower_envelope``'s lattice start (``ma_measure._square_start``
  and ``_tiles_a_disk``).  A merge that fails its check falls back to a
  whole Qhull build;
- certified as carried: the accepted pass's triangulation is still the lower
  hull when every site is a vertex and the lift is locally convex across
  every interior edge (Edelsbrunner & Shah, Algorithmica 1996);
- flipped: when it still covers every site but some edges are not locally
  convex, rounds of Lawson flips repair it, each round flipping an
  independent set of those edges, until every edge passes.  The predicate
  that ends the loop is the certificate's, so a flipped triangulation
  certifies itself.  The rounds stop at sqrt(F) for F faces: a flip can make
  its neighbours fail in the next round, sqrt(F) rounds let such a cascade
  cross the triangulation once, at about the cost of a Qhull build, and in
  floating point a tied edge can flip back and forth;
- built: when a site has left the hull (every failed edge is then blocked,
  since a 2-2 flip keeps every vertex), when the rounds run out, and for a
  start pass with no squares, Qhull builds the hull (``ma_measure._lower_faces``).

Qhull is a triangulator only: every pass takes its face gradients from the
vertex cross products of its lifted faces, and on the lattice's squares the
two triangles of a square share one.  Qhull's ``Qt`` can emit a face of
zero planar area, whose cross-product gradient is not finite; at an
interior site it makes the pass's masses non-finite, which the line search
rejects.  The predicate is the float test n . (P[v] - P[a]) >= 0; a lift
that rounds negative fails it, so on exact ties the pass may flip, or
build, where exact arithmetic would certify.
The solved envelope is the last accepted pass, its faces and gradients, so
no hull is built after the Newton loop; it equals ``lower_envelope`` of the
solved heights as a function, not array for array.  The Newton system is
symmetric positive definite; it is solved by conjugate gradients with a
two-level preconditioner, whose coarse system is factored by a
symmetric-mode sparse LU (``_newton_solve``).  A step keeps the coarse
level of the step before while CG holds its iterations on it, and a CG on
a kept level that breaks down or reaches its cap runs again on a new one
(``_newton_phase``, ``_newton_solve``).
The ``residual`` verifier goes through ma_measure's cells instead: on the
returned envelope's faces and gradients it orders each cell's gradients by
angle in gradient space and certifies convexity, and it never calls the
solve loop's mass pass.

Each line search starts at the chord test's step bound.  When an interior
site i and its two opposite lattice neighbours a = x_i + h d and
b = x_i - h d, for d one of e1, e2, e1 + e2 and e1 - e2, have
2 h_i >= h_a + h_b, the lifted point of i lies on or above the chord between
those of a and b.  Every plane supporting the lift at i then supports it at
a and b too, so the subgradient cell of i lies in a line and has no area,
and a trial there would fail the rule "every mass > 0" anyway.  The slack
h_a + h_b - 2 h_i is affine in the step length, so the least step at which
some slack reaches 0 is computed exactly (``_SolveState.step_bound``), and
the line search starts just below it, or at the full step when that is
shorter.  The test stays as a guard before every pass, since the bound is
computed in floats: a trial that fails it is halved with no mass pass and
no hull.  The argument is exact when x_i is the midpoint of x_a and x_b.
Lattice nodes are rounded k h, so in floating point that can fail by an
ulp, and the equality of the solves with and without the guard is checked
on the tests and a stress set, not proved.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import InfeasibleBoundary, NoConvergence
from .grid import (Domain2D, GridFunction, RhsField, _evaluate, lattice_box, lattice_coordinates,
                   sample)
from .ma_measure import (
    PLConvexFunction,
    _ccw,
    _edge_lifts,
    _faces_envelope,
    _gradients,
    _interior_half_edges,
    _lower_faces,
    _normals,
    _square_start,
    _tiles_a_disk,
    _twins,
    lower_envelope,
    ma_measure,
)

# A line search starts at this fraction of the chord test's step bound
# (``_SolveState.step_bound``), which keeps the first trial off the chords
# with a margin that rounding cannot use up.  On the untilted degenerate
# problems at h = 0.1 and 0.0625, 0.9 took 2 more steps each and 0.98 began
# to need backtracks.
_BOUND_FRACTION = 0.95

# Conjugate gradients stop at an l2 residual of _CG_RTOL times that of the
# right-hand side, or fail after _CG_MAXITER iterations.
_CG_RTOL = 1e-6
_CG_MAXITER = 200
# From step 2 on, a Newton step keeps the coarse level of the step before
# while that step's CG took at most _KEEP_GROWTH times the iterations of the
# CG that built the level, or of _KEEP_FLOOR when they were fewer
# (``_newton_phase``).
_KEEP_GROWTH = 1.5
_KEEP_FLOOR = 4
# The damped-Jacobi weight of the two-level cycle's sweeps, and the ratio of
# axis link strengths above which a 2 x 2 aggregate splits into two pairs.
_JACOBI_WEIGHT = 0.6
_SPLIT_RATIO = 4.0
# -J is a symmetric, irreducibly diagonally dominant M-matrix, so positive
# definite, and so is every Galerkin coarse matrix of it: diagonal pivots on
# a symmetric ordering are stable.
_SPLU_OPTIONS = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})


@dataclass(frozen=True)
class DirichletProblem:
    """Discrete Dirichlet problem: domain lattice, targets, boundary heights."""

    rhs: RhsField
    grid: GridFunction           # geometry carrier; values unused
    boundary_values: np.ndarray  # per boundary node, aligned with grid order
    targets: np.ndarray          # per interior node, aligned with grid order

    @cached_property
    def interior(self) -> np.ndarray:
        return self.grid.interior_mask


def build_problem(domain: Domain2D, h: float, rhs: RhsField, boundary) -> DirichletProblem:
    """Assemble the problem; ``boundary`` is a callable of the plane."""
    gf = sample(lambda p: np.zeros(len(p)), domain, h)
    interior = gf.interior_mask
    bvals = _evaluate(boundary, gf.nodes[~interior])
    if not np.all(np.isfinite(bvals)):
        raise ValueError("boundary values must be finite")
    targets = target_masses_on(gf, rhs)
    return DirichletProblem(rhs=rhs, grid=gf, boundary_values=bvals, targets=targets)


def target_masses_on(gf: GridFunction, rhs: RhsField) -> np.ndarray:
    """Composite midpoint integrals of f over the interior lattice cells.

    Each cell is split 2x2 and f is evaluated at the quarter-point centers
    (offset h/4 from the site), which keeps cells centered on the zero set of
    the degenerate density strictly positive.  One field call takes them all.
    """
    interior = gf.interior_mask
    pts = gf.nodes[interior]
    q = gf.h / 4.0
    quarters = np.array([(q, q), (q, -q), (-q, q), (-q, -q)])[:, None, :] + pts
    total = np.zeros(len(pts))
    for values in _evaluate(rhs, quarters.reshape(-1, 2)).reshape(4, len(pts)):
        total += values
    cellmass = total * (gf.h * gf.h) / 4.0
    out = np.zeros(len(gf))
    out[interior] = cellmass
    if np.any(cellmass <= 0):
        raise ValueError("target masses must be strictly positive")
    return out


@dataclass
class SolveWork:
    """The work of one solve, counted as it runs; ``SolveReport`` and
    ``NoConvergence`` carry it, and ``report.json``'s work block lists it."""

    newton_steps: int = 0  # accepted Newton steps
    mass_passes: int = 0   # the start pass and one per line-search trial that ran one
    hull_builds: int = 0   # Qhull lower hulls built, all of them by mass passes
    hull_sites: int = 0    # sites handed to Qhull, summed over those hulls
    backtracks: int = 0    # halved line-search trials, by the chord test or by their pass
    edge_flips: int = 0    # Lawson flips made, those of a repair that gave up included
    start_boundary_sites: int = 0  # interior sites where the start took the boundary envelope's branch
    coarse_builds: int = 0  # coarse levels the Newton solves built, a guard's rebuild included
    # max relative residual: the start pass, then each accepted step
    residuals: list[float] = field(default_factory=list)
    # the step taken by each accepted Newton step
    step_lengths: list[float] = field(default_factory=list)
    # CG iterations of each Newton system solved, both runs' when a guard rebuilt its coarse level
    cg_iterations: list[int] = field(default_factory=list)


@dataclass(frozen=True)
class SolveReport:
    iterations: int  # site updates: interior sites times Newton steps
    max_residual: float
    function: PLConvexFunction
    grid: GridFunction
    work: SolveWork


# ---------------------------------------------------------------------------
# mass evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Topology:
    """A triangulation of the sites: its faces, ccw in the plane, and their
    edge pairing.

    Side k of face f is the side opposite its vertex k, the half-edge
    3 f + k; ``twin`` holds the half-edge 3 g + j when that side is side j of
    face g, and -1 on the hull boundary.  The fans (for the masses) and the
    Jacobian's links are built from the two on first use.
    """

    sites: np.ndarray
    interior: np.ndarray
    tris: np.ndarray  # (F, 3) faces, ccw in the plane
    twin: np.ndarray  # (F, 3) half-edge across each side, or -1

    @cached_property
    def covers(self) -> bool:
        """Every site is a vertex of the triangulation."""
        return bool(np.all(np.bincount(self.tris.ravel(), minlength=len(self.sites))))

    @cached_property
    def fans(self):
        """(site, face, next face, neighbour) per corner of a face at an
        interior site v: for the face (v, p, q), the face across its side
        (v, q), which follows it ccw about v, and q.  The corners of v close
        its fan, and the cell edge between the gradients of the two faces is
        dual to the lattice edge (v, q)."""
        tris = self.tris
        corner = np.flatnonzero(self.interior[tris.ravel()])
        f, k = np.divmod(corner, 3)
        across = self.twin[f, (k + 1) % 3]
        keep = across >= 0
        f, k = f[keep], k[keep]
        return tris[f, k], f, across[keep] // 3, tris[f, (k + 2) % 3]

    @cached_property
    def links(self):
        """(rows, cols, lengths) of the Jacobian per fan corner: the interior
        indices of the site and of the neighbour (-1 on the boundary) and the
        planar length of the lattice edge between them."""
        site, _, _, nbr = self.fans
        idx_of = -np.ones(len(self.sites), dtype=np.int64)
        idx_of[self.interior] = np.arange(int(self.interior.sum()))
        x, y = self.sites.T
        return idx_of[site], idx_of[nbr], np.hypot(x[nbr] - x[site], y[nbr] - y[site])


def _topology(sites: np.ndarray, tris: np.ndarray, interior: np.ndarray) -> _Topology:
    """The topology of ``tris``: its faces turned ccw, and their edge pairing."""
    tris = _ccw(sites, tris)
    return _Topology(sites=sites, interior=interior, tris=tris, twin=_twins(len(sites), tris))


def _flip_to_lower_hull(topo: _Topology, sites: np.ndarray, heights: np.ndarray, rounds: int):
    """Certify ``topo``, which covers every site, as the lower hull of the
    heights, or else repair it by at most ``rounds`` rounds of Lawson flips;
    returns (topology, gradients, flips), with (None, None, flips) when the
    repair gives up.  A topology that certifies as it is comes back itself.

    The predicate is n . (P[v] - P[a]) >= 0 per interior edge, as the
    certificate states it; an edge whose lift rounds negative, or is not
    finite, fails it.  A round takes the failed edges and flips an
    independent set of them (no two share a face): the edge (a, b) between
    the ccw faces (a, b, c) and (b, a, d) becomes (c, d), and the faces
    (c, a, d) and (d, b, c) take the two slots.  An edge whose new faces are
    not both strictly ccw in the plane is blocked.  Only the edges of
    rewritten faces and the failed edges left over are tested again, so when
    a round finds no failed edge, every interior edge passed the predicate on
    the faces it has now: the result certifies itself, with gradients from
    the vertex cross products.  The repair gives up when every failed edge
    is blocked (a site has left the lower hull, which a 2-2 flip cannot
    mend) or when the rounds run out.
    """
    tris, twin = topo.tris, topo.twin
    lifted = np.column_stack([sites, heights])
    normal = _normals(lifted, tris)
    if not np.all(normal[:, 2] > 0.0):  # a zero-area face from Qhull's Qt
        return None, None, 0
    n_faces = len(tris)
    test = _interior_half_edges(twin.ravel())
    flips = 0
    for done in range(rounds + 1):
        lift = _edge_lifts(lifted, tris, normal, test, twin.ravel())
        failed = test[~(lift >= 0.0)]
        if len(failed) == 0:
            if flips:
                topo = _Topology(sites=sites, interior=topo.interior, tris=tris, twin=twin)
            return topo, _gradients(normal), flips
        if done == rounds:
            break
        if not flips:  # the first flip: work on copies
            tris, twin = tris.copy(), twin.copy()
        twin_flat = twin.ravel()  # a view
        f, k = np.divmod(failed, 3)
        g, j = np.divmod(twin_flat[failed], 3)
        c, a, b = tris[f, k], tris[f, (k + 1) % 3], tris[f, (k + 2) % 3]
        d = tris[g, j]
        new = np.concatenate([np.column_stack([c, a, d]), np.column_stack([d, b, c])])
        n_new = _normals(lifted, new)
        open_ = (n_new[:len(failed), 2] > 0.0) & (n_new[len(failed):, 2] > 0.0)
        if not open_.any():
            break
        # an independent set: each face goes to the first open edge that has it
        rank = np.where(open_, np.arange(len(failed)), len(failed))
        owner = np.full(n_faces, len(failed))
        np.minimum.at(owner, f, rank)
        np.minimum.at(owner, g, rank)
        sel = open_ & (owner[f] == rank) & (owner[g] == rank)
        both = np.concatenate([sel, sel])
        f, k, g, j = f[sel], k[sel], g[sel], j[sel]
        # the four outer sides of each quad, and the half-edges they move to
        outer = np.column_stack([3 * g + (j + 1) % 3, 3 * f + (k + 2) % 3,
                                 3 * f + (k + 1) % 3, 3 * g + (j + 2) % 3])  # ad, ca, bc, db
        moved = np.column_stack([3 * f, 3 * f + 2, 3 * g, 3 * g + 2])
        across = twin_flat[outer]
        new_of = np.arange(len(twin_flat))
        new_of[outer] = moved
        across = np.where(across >= 0, new_of[across], -1)
        fg = np.concatenate([f, g])
        tris[fg] = new[both]
        normal[fg] = n_new[both]
        twin[f] = np.column_stack([across[:, 0], 3 * g + 1, across[:, 1]])
        twin[g] = np.column_stack([across[:, 2], 3 * f + 1, across[:, 3]])
        inner = across >= 0
        twin_flat[across[inner]] = moved[inner]
        flips += len(f)
        # the rewritten faces' edges, and the failed edges of untouched faces
        touched = np.zeros(n_faces, dtype=bool)
        touched[fg] = True
        half = np.concatenate([(3 * fg[:, None] + np.arange(3)).ravel(),
                               failed[~touched[failed // 3]]])
        half = half[twin_flat[half] >= 0]
        test = np.unique(np.minimum(half, twin_flat[half]))
    return None, None, flips


@dataclass(frozen=True)
class _MassPass:
    """The masses of one heights vector, summed on its lower-hull topology."""

    topo: _Topology
    grads: np.ndarray       # (F, 2) face gradients, from the vertex cross products
    areas: np.ndarray       # (N,) cell areas, zero on boundary sites
    flips: int              # Lawson flips made, also by a repair that gave up
    hulls: tuple[int, ...]  # sites handed to Qhull, per hull the pass built


def _mass_pass(sites: np.ndarray, heights: np.ndarray, interior: np.ndarray,
               topo: _Topology | None = None, squares=()) -> _MassPass:
    """Subgradient-cell areas of every interior site.

    ``topo`` (that of an earlier pass) is reused when it certifies itself on
    the heights, or else repaired by Lawson flips when it covers every site.
    With no ``topo``, ``squares`` (faces of the start, ``_square_hull``)
    give the lower hull with Qhull only on the band.  When none of these
    gives the lower hull, Qhull builds it and a new topology.
    The cell polygon of a site is its incident face gradients in fan order;
    the shoelace sum is evaluated for all sites at once.
    """
    grads, flips, hulls = None, 0, ()
    if topo is not None and topo.covers:
        rounds = math.isqrt(len(topo.tris))  # the round cap of the module docstring
        topo, grads, flips = _flip_to_lower_hull(topo, sites, heights, rounds)
    elif topo is None and len(squares):
        topo, grads, band = _square_hull(sites, heights, interior, squares)
        hulls = (band,)
    if grads is None:
        topo = _topology(sites, _lower_faces(sites, heights)[0], interior)
        grads = _gradients(_normals(np.column_stack([sites, heights]), topo.tris))
        hulls += (len(sites),)
    site, face, nxt, _ = topo.fans
    gx, gy = grads.T
    cross = gx[face] * gy[nxt] - gy[face] * gx[nxt]
    areas = 0.5 * np.abs(np.bincount(site, weights=cross, minlength=len(sites)))
    return _MassPass(topo=topo, grads=grads, areas=areas, flips=flips, hulls=hulls)


def _square_hull(sites: np.ndarray, heights: np.ndarray, interior: np.ndarray,
                 squares: np.ndarray):
    """The lower hull of the start from its lattice squares, those whose
    corners take the paraboloid's branch: (topology, gradients, band size),
    with no topology and no gradients when the merged faces fail their check.

    Every square of ``squares`` is a face (module docstring), so Qhull builds
    the lower hull of the band only, and the squares' triangles take the
    place of the band faces over them (``ma_measure._square_start``).  A
    lattice cell counts as a square when its four corners are corners of
    squares; on the squares of ``_squares`` such a cell is a square, and a
    list that misses one leaves a hole there, which the check rejects.  The
    faces take their gradients from vertex cross products, as every pass's
    do, but the two triangles of a square share the first one's, since
    separate cross products of these coplanar triangles differ by an ulp and
    would give the Jacobian links of rounding size.  The merge is checked by
    ``ma_measure._tiles_a_disk``.
    """
    h = sites[squares[0, 1], 0] - sites[squares[0, 0], 0]
    k = np.rint(lattice_coordinates(sites[squares.ravel()], h)).astype(np.int64)
    lo, hi = lattice_box(k)
    corner = np.zeros(hi - lo + 1, dtype=bool)
    corner[k[:, 0] - lo[0], k[:, 1] - lo[1]] = True
    square = corner[:-1, :-1] & corner[1:, :-1] & corner[:-1, 1:] & corner[1:, 1:]
    band = np.flatnonzero(np.bincount(squares.ravel(), minlength=len(sites)) < 4)
    tris, boundary = _square_start(sites, band[_lower_faces(sites[band], heights[band])[0]],
                                   squares, h, lo, square)
    topo = _topology(sites, tris, interior)
    if not _tiles_a_disk(sites, topo.tris, topo.twin, boundary):
        return None, None, len(band)
    # a square's second triangle takes the first one's gradient
    first = len(tris) - len(squares)
    grads = _gradients(_normals(np.column_stack([sites, heights]), topo.tris[:first]))
    return topo, np.concatenate([grads, grads[first - len(squares):]]), len(band)


def _jacobian(hp: _MassPass, m: int):
    """Sparse derivative of the m interior masses with respect to interior
    heights (power-diagram stiffness) on the topology of a pass, in CSC."""
    _, face, nxt, _ = hp.topo.fans
    rows, cols, dist = hp.topo.links
    gx, gy = hp.grads.T
    w = np.hypot(gx[nxt] - gx[face], gy[nxt] - gy[face]) / dist
    keep = w > 0
    off = keep & (cols >= 0)
    diag = np.bincount(rows[keep], weights=-w[keep], minlength=m)
    # a lattice edge links a site to a neighbour once, so no (row, col) repeats
    ii = np.arange(m)
    return sp.csc_matrix((np.concatenate([w[off], diag]),
                          (np.concatenate([rows[off], ii]), np.concatenate([cols[off], ii]))),
                         shape=(m, m))


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def solve(problem: DirichletProblem, tol: float = 1e-8, max_iters: int = 10**6) -> SolveReport:
    """Adjust interior heights until every cell mass matches its target.

    Damped Newton on the mass map, from the max of a paraboloid, tilted by
    an affine fit to the boundary data, and the data's lower convex envelope
    (see the module docstring).  ``max_iters`` bounds the site updates,
    charged as the number of interior sites per accepted Newton step.
    Raises NoConvergence when tol is not positive, the update budget is
    exhausted or Newton stops short of tol, with the residual of the heights
    it reached; raises InfeasibleBoundary when the boundary data admits no
    convex extension.
    The returned envelope is the last accepted pass: its triangulation, its
    face gradients and offsets taken at each face's first vertex.  It equals
    ``lower_envelope`` of the solved heights as a function, not as arrays.
    """
    gf = problem.grid
    state = _solve_state(
        sites=gf.nodes,
        is_interior=problem.interior,
        boundary_values=problem.boundary_values,
        targets=problem.targets,
        tol=tol,
        max_iters=max_iters,
        chords=_chords(gf),
        squares=_squares(gf),
        pitch=gf.h,
        lattice=gf.lattice_indices,
    )
    heights = state.heights
    out = GridFunction(domain=gf.domain, h=gf.h, nodes=gf.nodes, values=heights)
    pl = _faces_envelope(gf.nodes, heights, state.last.topo.tris, state.last.grads)
    work = state.work
    return SolveReport(iterations=work.newton_steps * len(state.int_ids),
                       max_residual=work.residuals[-1], function=pl, grid=out, work=work)


def _chords(gf: GridFunction):
    """(centre, a, b) node indices of the chord test: per interior node x
    and lattice direction d with both x + h d and x - h d on the lattice,
    x and those two neighbours."""
    interior = gf.interior_mask
    triples = []
    for d in ((1, 0), (0, 1), (1, 1), (1, -1)):  # e1, e2, e1 + e2, e1 - e2
        a = gf.neighbor_ids(d)
        b = gf.neighbor_ids((-d[0], -d[1]))
        centre = np.flatnonzero(interior & (a >= 0) & (b >= 0))
        triples.append((centre, a[centre], b[centre]))
    return tuple(np.concatenate(part) for part in zip(*triples))


def _squares(gf: GridFunction) -> np.ndarray:
    """(S, 4) node indices of every lattice square whose four corners are
    interior nodes, ccw from the corner x of least coordinates: x, x + h e1,
    x + h (e1 + e2) and x + h e2."""
    corners = np.column_stack([np.arange(len(gf))]
                              + [gf.neighbor_ids(d) for d in ((1, 0), (1, 1), (0, 1))])
    corners = corners[np.all(corners >= 0, axis=1)]
    return corners[np.all(gf.interior_mask[corners], axis=1)]


def _solve_state(sites, is_interior, boundary_values, targets, tol, max_iters, chords, squares,
                 pitch, lattice):
    """Run the solve; returns its converged ``_SolveState``.  ``targets`` is
    aligned with the sites, ``boundary_values`` with the boundary sites.
    ``squares`` (``_squares``, or none) give the start pass its lower hull,
    ``pitch`` is the lattice spacing h and ``lattice`` the sites' integer
    lattice coordinates, which group them into the Newton solve's
    aggregates."""
    if not tol > 0:
        raise NoConvergence("tolerance must be positive", residual=np.inf)
    sites = np.asarray(sites, dtype=float)
    interior = np.asarray(is_interior, dtype=bool)
    n = len(sites)
    heights = np.zeros(n)
    heights[~interior] = boundary_values

    envelope = _boundary_envelope(sites[~interior], boundary_values)
    scale = float(np.ptp(boundary_values)) + 1.0
    if np.any(boundary_values > envelope(envelope.sites) + 1e-9 * scale):
        # a node strictly above the envelope of the rim data cannot be matched
        # by any convex function, so no lowering can meet the targets there
        raise InfeasibleBoundary(
            "boundary data lies strictly above its own convex envelope"
        )

    state = _SolveState(sites, interior, targets, heights, max_iters, chords)
    _paraboloid_init(state, boundary_values, envelope, squares, pitch)
    _newton_phase(state, tol, np.asarray(lattice)[interior])
    return state


def _boundary_envelope(sites, values) -> PLConvexFunction:
    """The lower convex envelope E of the boundary data: its faces from
    ``lower_envelope``, their planes from ``_faces_envelope``."""
    tris = lower_envelope(sites, values).triangulation  # ccw in the plane
    return _faces_envelope(sites, values, tris,
                           _gradients(_normals(np.column_stack([sites, values]), tris)))


def _paraboloid_init(state, boundary_values, envelope, squares, pitch):
    """Start from max(q, E + a (|x - x0|^2 - R^2) / 2) on the interior sites,
    and make the start pass.

    q(x) = a |x - x0|^2 / 2 + l(x) + c is a paraboloid matched to the median
    target mass at the lattice pitch, about the sites' mean x0.  l is the
    least-squares affine fit, over the boundary sites, of the gap
    g - a |x - x0|^2 / 2 to the boundary data g, and c the least of
    g - a |x - x0|^2 / 2 - l there.  The fit is linear in g, so data tilted
    by an affine l0 move l by l0 and leave c, E - l and the start's lower
    hull as they were: the start moves by l0 (to rounding), and so does every
    Newton iterate after it.  Without l, a tilt put q far below the data on
    one side: 36 constant-square solves tilted by up to 0.5 took 285 Newton
    steps, where the untilted one takes 0.  E is the boundary data's lower
    convex envelope (``envelope``, from ``_boundary_envelope``) and R^2 the
    largest |x - x0|^2 over the boundary sites.  Both branches are strictly
    convex and lie on or below the data at the boundary sites, so the max of
    the two is strictly convex: the tangent plane of the winning branch at an
    interior site supports the lift there and no other, and every interior
    site is a hull vertex with positive mass.

    The r^2 terms cancel, so E's branch wins exactly where
    E - l > c + a R^2 / 2.  An interior site whose two axis neighbours are
    interior is their midpoint, so along each lattice line E - l, convex,
    takes its greatest value on the interior sites at an end: a rim site,
    whose axis neighbour on that side is a boundary site.  E - l is
    evaluated on the rim first (the centres of the chords with a boundary
    end, which include every rim site); when no rim site takes E's branch,
    the start is q as it is, and E is never evaluated on the other sites.  On
    verify-dual E - l stays 22.7 below the level on its rim.  E is a
    ``PLConvexFunction``, evaluated by ``geometry.max_affine``.

    A lattice square of ``squares`` whose four corners take q's branch is a
    face of the start's lower hull (module docstring), since every other lift
    lies on or above q and the affine l + c changes no face of a lower hull.
    The start pass takes those squares as faces and builds a Qhull hull of
    the band only; with no such squares, or when the merged faces fail their
    check, Qhull builds the whole hull.
    """
    sites, interior, ids = state.sites, state.interior, state.int_ids
    med = float(np.median(state.tgt))
    a = np.sqrt(med) / pitch
    d = sites - sites.mean(axis=0)
    r2 = np.sum(d**2, axis=1)
    gap = boundary_values - 0.5 * a * r2[~interior]
    fit = np.linalg.lstsq(np.column_stack([np.ones(len(gap)), d[~interior]]), gap, rcond=None)[0]
    ell = fit[0] + d[:, 0] * fit[1] + d[:, 1] * fit[2]
    c = float(np.min(gap - ell[~interior]))
    state.heights[interior] = 0.5 * a * r2[interior] + ell[interior] + c
    big_r2 = float(np.max(r2[~interior]))
    centre, a_end, b_end = state.chords
    rim = np.unique(centre[~(interior[a_end] & interior[b_end])])
    if np.any(envelope(sites[rim]) - ell[rim] > c + 0.5 * a * big_r2):
        q = state.heights[ids]
        e = envelope(sites[ids]) + 0.5 * a * (r2[ids] - big_r2)
        wins = e > q
        state.heights[ids] = np.maximum(q, e)
        state.work.start_boundary_sites = int(wins.sum())
        on_q = np.ones(len(sites), dtype=bool)
        on_q[ids[wins]] = False
        squares = squares[np.all(on_q[squares], axis=1)]
    state.mass_pass(squares=squares)


class _SolveState:
    def __init__(self, sites, interior, targets, heights, max_iters, chords):
        self.sites = sites
        self.interior = interior
        self.targets = targets
        self.heights = heights
        self.max_iters = max_iters
        self.chords = chords  # (centre, a, b) of the chord test
        self.work = SolveWork()
        self.int_ids = np.flatnonzero(interior)
        self.tgt = targets[self.int_ids]
        self.last = None  # _MassPass of the heights in place

    def mass_pass(self, topo=None, squares=()) -> _MassPass:
        """Masses of the heights in place, on ``topo`` when it certifies itself
        or flips to the lower hull, else on a new hull (``_mass_pass``)."""
        self.last = _mass_pass(self.sites, self.heights, self.interior, topo, squares)
        work = self.work
        work.mass_passes += 1
        work.hull_builds += len(self.last.hulls)
        work.hull_sites += sum(self.last.hulls)
        work.edge_flips += self.last.flips
        return self.last

    def above_a_chord(self) -> bool:
        """Some interior site lies on or above the chord of two opposite
        lattice neighbours, 2 h_i >= h_a + h_b, so its cell has no area."""
        centre, a, b = self.chords
        h = self.heights
        return bool(np.any(2.0 * h[centre] >= h[a] + h[b]))

    def step_bound(self, delta) -> float:
        """The chord test's step bound for the interior step ``delta``: the
        least t > 0 at which the heights in place, moved by t delta, put
        some site on a chord; inf when no chord's slack falls.

        Per chord (centre, a, b) the slack s = h_a + h_b - 2 h_centre is
        affine in t, with rate r = d_a + d_b - 2 d_centre for the step d,
        which is 0 on boundary sites.  So t* = min over r < 0 of s / (-r):
        when the heights in place pass the test, every t < t* keeps every
        slack positive, and every t >= t* fails the test in exact arithmetic.
        """
        centre, a, b = self.chords
        h = self.heights
        d = np.zeros(len(h))
        d[self.int_ids] = delta
        slack = h[a] + h[b] - 2.0 * h[centre]
        rate = d[a] + d[b] - 2.0 * d[centre]
        falls = rate < 0.0
        return float(np.min(slack[falls] / -rate[falls], initial=np.inf))

    def residual(self) -> float:
        masses = self.last.areas
        return float(np.max(np.abs(masses[self.int_ids] - self.tgt) / self.tgt))


def _newton_phase(state, tol, lattice) -> None:
    """Damped Newton on the mass map until the max relative residual is <= tol.

    The Newton system is J delta = -r with the mass Jacobian J and the
    one-sided residual r of ``_newton_rhs``: m - t where a cell's mass m is at
    most its target t, 2 sqrt(m) (sqrt(m) - sqrt(t)) where it is bigger.
    ``_newton_solve`` solves it by CG, with the interior sites' lattice
    coordinates ``lattice`` for its aggregates; each solve's CG iterations
    go to the state's ``SolveWork``, and a CG that misses its tolerance raises
    NoConvergence, as a failed factorisation does.  Steps 0 and 1 build their
    coarse level; from step 2 on a step keeps the level of the step before
    while that step's CG took at most _KEEP_GROWTH max(b, _KEEP_FLOOR)
    iterations, for the b iterations of the CG that built the level, and
    builds a new one otherwise.  Near convergence the Jacobian barely moves,
    so an older coarse factor still preconditions well: verify-dual builds 2
    levels in its 5 steps.  Each level built, a guard's rebuild in
    ``_newton_solve`` included, counts in ``SolveWork.coarse_builds``.  A
    cell's area is close to a quadratic in its site's height, since its edges
    move parallel to themselves at linear speed.  Newton on a convex quadratic
    from above only halves the gap per step, so a paraboloid start whose
    cells are up to 1,000 times too big took many steps that each shrank them
    about 4 times.  For those cells the row is Newton on sqrt(m) - sqrt(t),
    diag(1 / (2 sqrt(m))) J delta = -(sqrt(m) - sqrt(t)), which is exact on a
    quadratic.  From below, Newton on m - t already overshoots to the far
    side in one step, so that side keeps m - t.  Both pieces are 0 with slope
    1 at m = t, so r is C1 and the local quadratic convergence stays.  Only r
    is new: the matrix, the line search on the relative l2 mass residual and
    the stopping rule are those of Newton on m - t, whose root r shares.  Two
    variants were tried and dropped.  The square root on both sides took 6
    steps on verify-dual, not 5, and the tilted degenerate h = 0.05 problem
    stopped at the 80-step cap on 4 of the seeds 1-6 (1 of 6 one-sided).  A
    line search on the l2 norm of r / t instead of the mass residual took
    the same steps as this one on verify-dual and on those seeds 1-12.

    Each line search starts at min(1, 0.95 t*) for the chord test's step
    bound t* (module docstring).  A search that started at 1 and halved into
    the bound stopped at the first power of 2 below it: on the degenerate
    problems most steps made five rejected trials and then took 1/32 of the
    Newton step, as little as half of what the bound allowed.  From its
    start, a step is halved, at most 24 times, until every interior mass
    stays positive and the l2 residual drops (the usual guarded-Newton recipe
    for prescribed-cell-area problems).  The accepted trial's pass gives the
    next step its masses and Jacobian, and its step goes to the
    ``SolveWork``.  A trial that fails the chord test, which only rounding
    can make a trial below the bound do, is halved at once.  Any other trial costs one
    mass pass, which starts from the accepted pass's triangulation: certified
    as carried, flipped, or built by Qhull (module docstring).  That start is
    the same whether or not the trials before it ran a pass, so a pass the
    chord test skips changes no later pass.  Any other exit raises
    NoConvergence with the residual of the heights left in place and the
    ``SolveWork`` so far.
    """
    int_ids, tgt, work = state.int_ids, state.tgt, state.work

    def stop(reason):
        return NoConvergence(f"Newton {reason}, residual {resid:.3e}", resid, work)

    current = state.last  # the start pass
    coarse, built_cg = None, 0  # the kept coarse level, and the iterations of the CG that built it
    for it in range(81):  # the start and 80 steps
        masses = current.areas[int_ids]
        resid = state.residual()
        work.residuals.append(resid)
        if work.newton_steps * len(int_ids) > state.max_iters:
            raise NoConvergence("update budget exhausted", resid, work)
        if resid <= tol:
            return
        if it == 80:
            raise stop("did not converge in 80 steps")
        e = (masses - tgt) / tgt
        l2 = math.sqrt(np.sum(e * e))  # no BLAS call: after SuperLU its threads can stall
        if not np.isfinite(l2):
            raise stop(f"step {it}: residual is not finite")
        try:
            delta, runs, reached, level = _newton_solve(
                _jacobian(current, len(int_ids)), -_newton_rhs(masses, tgt), lattice, coarse)
        except RuntimeError as exc:
            raise stop(f"step {it}: sparse solve failed ({exc})") from exc
        cg = sum(runs)
        work.cg_iterations.append(cg)
        if level is not coarse:
            work.coarse_builds += 1
            built_cg = runs[-1]
        if it == 0 or runs[-1] > _KEEP_GROWTH * max(built_cg, _KEEP_FLOOR):
            level = None  # the next step builds its own: drop this one before the line search
        coarse = level
        if not reached:
            raise stop(f"step {it}: CG did not reach its tolerance in {cg} iterations")
        if not np.all(np.isfinite(delta)):
            raise stop(f"step {it}: step is not finite")
        step = min(1.0, _BOUND_FRACTION * state.step_bound(delta))
        base = state.heights[int_ids].copy()
        for _ in range(24):
            state.heights[int_ids] = base + step * delta
            if not state.above_a_chord():
                trial = state.mass_pass(current.topo).areas
                e = (trial[int_ids] - tgt) / tgt
                trial_l2 = math.sqrt(np.sum(e * e))
                if (
                    np.all(trial[int_ids] > 0.0)
                    and np.isfinite(trial_l2)
                    and trial_l2 < l2 * (1.0 - 1e-4 * step)
                ):
                    break
            step *= 0.5
            work.backtracks += 1
        else:
            # back to the step's start; its pass replaces the last rejected trial's
            state.heights[int_ids] = base
            state.last = current
            raise stop(f"step {it}: line search found no descent")
        current = state.last
        work.newton_steps += 1
        work.step_lengths.append(step)


def _newton_rhs(masses: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The right-hand side r of the Newton system J delta = -r: m - t for a
    cell whose mass m is at most its target t, 2 sqrt(m) (sqrt(m) - sqrt(t))
    for a cell that is too big.  Both pieces are 0 with slope 1 at m = t."""
    root = np.sqrt(masses)
    return np.where(masses > targets, 2.0 * root * (root - np.sqrt(targets)), masses - targets)


def _newton_solve(J, rhs, lattice, coarse=None):
    """Solve J delta = rhs by preconditioned conjugate gradients on the
    symmetric positive definite -J; returns (delta, the CG iterations of
    each run, whether the l2 residual reached _CG_RTOL times that of rhs,
    the coarse level of the last run).

    CG runs on the preconditioner of ``_preconditioner`` with the kept
    coarse level ``coarse``, or with one built here from -J when there is
    none.  The guard: when CG on a kept level breaks down (r . z <= 0 or
    p . A p <= 0) or reaches _CG_MAXITER, the level is built again from -J
    and CG runs again from scratch; a CG on a level built here that misses
    its tolerance ends the solve unreached.
    """
    A = -J
    b = -rhs
    limit = _CG_RTOL * math.sqrt(np.sum(b * b))
    runs = []
    while True:
        built = coarse is None
        if built:
            coarse = _coarse_level(A, lattice)
        x, its, reached = _cg(A, b, _preconditioner(A, coarse), limit)
        runs.append(its)
        if reached or built:
            return x, runs, reached, coarse
        coarse = None


def _cg(A, b, precondition, limit):
    """Preconditioned CG on A x = b: (x, iterations, whether the l2 residual
    reached ``limit``).

    It starts from x0 = M^-1 b and stops at ``limit``, after _CG_MAXITER
    iterations, or unreached at a breakdown, r . z <= 0 or p . A p <= 0 (or
    not a number), which an M^-1 that is positive definite in exact
    arithmetic meets only by rounding.  The inner products and norms are
    numpy sums of elementwise products, not BLAS dot products, whose
    blocking can follow the thread count: with ``@`` the verify-dual heights
    changed between 1 and 2 OpenBLAS threads.
    """
    x = precondition(b)
    r = b - A @ x
    rz = p = None
    for its in range(_CG_MAXITER):
        if math.sqrt(np.sum(r * r)) <= limit:
            return x, its, True
        z = precondition(r)
        rz, rz_last = np.sum(r * z), rz
        if not rz > 0.0:
            return x, its + 1, False
        p = z if p is None else z + (rz / rz_last) * p
        q = A @ p
        pq = np.sum(p * q)
        if not pq > 0.0:
            return x, its + 1, False
        alpha = rz / pq
        x = x + alpha * p
        r = r - alpha * q
    return x, _CG_MAXITER, math.sqrt(np.sum(r * r)) <= limit


def _coarse_level(A, lattice):
    """The coarse level of ``_preconditioner`` for the symmetric positive
    definite A: (the aggregates of ``_aggregates``, their number, the sparse
    LU factor of the Galerkin matrix P^T A P for their 0/1 prolongation P)."""
    coo = A.tocoo()
    agg = _aggregates(coo, lattice)
    n_agg = int(agg.max()) + 1
    # one COO -> CSC conversion sums the entries that share an aggregate pair
    factor = splu(sp.csc_matrix((coo.data, (agg[coo.row], agg[coo.col])), shape=(n_agg, n_agg)),
                  **_SPLU_OPTIONS)
    return agg, n_agg, factor


def _preconditioner(A, coarse):
    """M^-1 for the symmetric positive definite A = -J, as a function of the
    residual, on the coarse level ``coarse`` of ``_coarse_level``: that of A,
    or of the -J of an earlier Newton step.

    It is a two-level cycle on the level's aggregates, with their 0/1
    prolongation P and coarse matrix B: one damped-Jacobi sweep W = w D^-1,
    for the weight w = _JACOBI_WEIGHT and the diagonal D of A, the coarse
    correction P B^-1 P^T on its residual, and one more sweep (Notay, *An
    aggregation-based algebraic multigrid method*, ETNA 2010).  The sweeps
    and every product with A use the current A; only P and B can be older.
    As a matrix, M^-1 = (2 W - W A W) + C B^-1 C^T with C = (I - W A) P, so
    it is symmetric for any symmetric B.  The first term is positive
    definite when the eigenvalues of W A lie in (0, 2): A is diagonally
    dominant, so those of D^-1 A are at most 2, and the weight 0.6 keeps
    them at most 1.2.  The second is positive semi-definite when B is, so
    M^-1 is positive definite for every positive definite B: the Galerkin
    matrix P^T A P of the current A, and that of an earlier -J, a symmetric
    M-matrix as A is.  What an older B can lose is the cycle's convergence
    as a stationary iteration, for which every eigenvalue of B^-1 (P^T A P)
    in (0, 2] is enough, as the coarse correction then does not grow the
    error in the A-norm.  Nothing proves that for a kept B, so CG's
    iterations decide whether it is kept (``_newton_phase``), and a CG that
    reaches its cap or breaks down by rounding rebuilds it
    (``_newton_solve``).
    """
    agg, n_agg, factor = coarse
    sweep = _JACOBI_WEIGHT / A.diagonal()

    def precondition(r):
        x = sweep * r
        x = x + factor.solve(np.bincount(agg, weights=r - A @ x, minlength=n_agg))[agg]
        return x + sweep * (r - A @ x)

    return precondition


def _aggregates(A, lattice) -> np.ndarray:
    """The aggregate of each unknown, numbered from 0: the 2 x 2 block
    floor(k / 2) of its lattice coordinates k, or one of two pairs of it.

    A block whose links along one axis, the sums of -A_ij over the pairs i, j
    in it that are lattice neighbours along that axis, are more than
    _SPLIT_RATIO times as strong as its links along the other axis splits
    into the two pairs linked along the strong axis.  That follows Notay's
    choice of strongly linked pairs where the data are anisotropic, as the
    degenerate density is, without a graph search.  On the untilted
    degenerate problems about 60% of the blocks split, and CG takes 8-13
    iterations per step at 361, 961, 5,041 and 20,449 unknowns, against
    22-42, 35-64, 28-110 and 50-146 with whole blocks.  On verify-dual 0.5%
    of the blocks split and the iterations are the same either way.
    """
    A = A.tocoo()
    k0, k1 = lattice[:, 0], lattice[:, 1]
    b0, b1 = k0 // 2, k1 // 2
    block = (b0 - b0.min()) * (int(b1.max() - b1.min()) + 1) + (b1 - b1.min())
    n_blocks = int(block.max()) + 1
    inside = block[A.row] == block[A.col]
    i, j, w = A.row[inside], A.col[inside], -A.data[inside]
    # inside a block, a link along axis 0 has d0 = +-1 and d1 = 0
    d0, d1 = k0[j] - k0[i], k1[j] - k1[i]
    s0 = np.bincount(block[i], weights=w * ((d1 == 0) & (d0 != 0)), minlength=n_blocks)
    s1 = np.bincount(block[i], weights=w * ((d0 == 0) & (d1 != 0)), minlength=n_blocks)
    along_0 = (s0 > _SPLIT_RATIO * s1)[block]
    along_1 = (s1 > _SPLIT_RATIO * s0)[block]
    # the pairs linked along axis 0 differ in the parity of k1, and vice versa
    key = 2 * block + np.where(along_0, k1 % 2, np.where(along_1, k0 % 2, 0))
    used = np.zeros(2 * n_blocks, dtype=bool)
    used[key] = True
    return (np.cumsum(used) - 1)[key]


def residual(pl: PLConvexFunction, problem: DirichletProblem) -> float:
    """Max relative mass residual, verified through ma_measure only: on the
    cells that ``pl`` builds once and keeps."""
    interior = problem.interior
    t = problem.targets[interior]
    m = ma_measure(pl)[interior]
    return float(np.max(np.abs(m - t) / t))
