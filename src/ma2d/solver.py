"""Dirichlet solver for det D2 v = f in the exact discrete Alexandrov sense.

The unknown is the vector of interior heights; the equation asks that the
subgradient-cell area of every interior site equal the prescribed integral of
f over its lattice cell.  The solve starts from a paraboloid matched to the
median target mass and kept below the boundary data (every interior site is
then a hull vertex with positive mass), and runs damped Newton on the mass
map.  The Jacobian is the standard power-diagram stiffness,
d(mass_i)/d(height_j) = L_ij / |x_j - x_i| for the cell edge generated by
neighbor j, sparse and symmetric, with the diagonal carrying the boundary
links.  When Newton stops short of the tolerance, the solve raises
NoConvergence with the residual of the heights it reached; there is no
second method to fall back on.

Masses are a vectorized fan sum in planar face order over the lifted lower
triangulation.  A mass pass (the start and each line-search trial) first
asks whether the latest pass's triangulation is still the lower hull of the
new heights.  It is when every site is a vertex and the lift is locally
convex across every interior edge (Edelsbrunner & Shah, Algorithmica 1996);
the face gradients then come from vertex cross products, with no hull.
Otherwise Qhull builds the hull (``ma_measure._lower_faces``) and a new
topology, which holds all that depends on the triangulation alone: the
angular incidence order and, built on first use, the interior edges of the
test and the Jacobian's links.  The solved envelope reuses the last pass's Qhull hull,
or is built once on the solved heights when that pass was certified.  The
Newton system is symmetric positive definite and is factored by a
symmetric-mode sparse LU.  The ``residual`` verifier goes through
ma_measure's cells instead, which orders each cell's gradients by angle in
gradient space and certifies convexity, and never calls the solve loop's
mass pass.

Before its mass pass, a line-search trial is put to the chord test.  When an
interior site i and its two opposite lattice neighbours a = x_i + h d and
b = x_i - h d, for d one of e1, e2, e1 + e2 and e1 - e2, have
2 h_i >= h_a + h_b, the lifted point of i lies on or above the chord between
those of a and b.  Every plane supporting the lift at i then supports it at
a and b too, so the subgradient cell of i lies in a line and has no area,
and the trial would fail the rule "every mass > 0" anyway.  It is halved
with no mass pass and no hull.  The argument is exact when x_i is the
midpoint of x_a and x_b.  Lattice nodes are rounded k h, so in floating
point that can fail by an ulp, and the equality of the solves with and
without the test is checked on the tests and a stress set, not proved.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import InfeasibleBoundary, NoConvergence
from .grid import Domain2D, GridFunction, RhsField, _evaluate, sample
from .ma_measure import (
    PLConvexFunction,
    _ccw,
    _envelope,
    _lower_faces,
    lower_envelope,
    ma_measure,
)


@dataclass(frozen=True)
class DirichletProblem:
    """Discrete Dirichlet problem: domain lattice, targets, boundary heights."""

    domain: Domain2D
    h: float
    rhs: RhsField
    grid: GridFunction           # geometry carrier; values unused
    boundary_values: np.ndarray  # per boundary node, aligned with grid order
    targets: np.ndarray          # per interior node, aligned with grid order

    @cached_property
    def interior(self) -> np.ndarray:
        return self.grid.interior_mask

    @property
    def alpha(self):
        return self.rhs.alpha


def build_problem(domain: Domain2D, h: float, rhs: RhsField, boundary) -> DirichletProblem:
    """Assemble the problem; ``boundary`` is a callable of the plane."""
    gf = sample(lambda p: np.zeros(len(p)), domain, h)
    interior = gf.interior_mask
    bvals = _evaluate(boundary, gf.nodes[~interior])
    if not np.all(np.isfinite(bvals)):
        raise ValueError("boundary values must be finite")
    targets = target_masses_on(gf, rhs)
    return DirichletProblem(
        domain=domain, h=h, rhs=rhs, grid=gf, boundary_values=bvals, targets=targets
    )


def target_masses_on(gf: GridFunction, rhs: RhsField) -> np.ndarray:
    """Composite midpoint integrals of f over the interior lattice cells.

    Each cell is split 2x2 and f is evaluated at the quarter-point centers
    (offset h/4 from the site), which keeps cells centered on the zero set of
    the degenerate density strictly positive.
    """
    interior = gf.interior_mask
    pts = gf.nodes[interior]
    q = gf.h / 4.0
    total = np.zeros(len(pts))
    for dx, dy in ((q, q), (q, -q), (-q, q), (-q, -q)):
        total += np.asarray(rhs(pts + np.array([dx, dy])), dtype=float)
    cellmass = total * (gf.h * gf.h) / 4.0
    out = np.zeros(len(gf))
    out[interior] = cellmass
    if np.any(cellmass <= 0):
        raise ValueError("target masses must be strictly positive")
    return out


def target_masses(problem: DirichletProblem) -> np.ndarray:
    """Per-interior-site right-hand-side masses of the problem."""
    return problem.targets[problem.interior]


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    max_residual: float
    function: PLConvexFunction
    grid: GridFunction
    h: float
    alpha: float | None
    newton_steps: int  # accepted Newton steps
    mass_passes: int   # the start pass and one per line-search trial that ran one
    hull_builds: int   # Qhull lower hulls built, the solved envelope's included
    backtracks: int    # halved line-search trials, by the chord test or by their pass

    def to_json(self) -> str:
        return json.dumps(
            {
                "iterations": self.iterations,
                "max_residual": self.max_residual,
                "h": self.h,
                "alpha": self.alpha,
            },
            sort_keys=True,
        )


# ---------------------------------------------------------------------------
# mass evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Topology:
    """The part of a mass pass that depends on the triangulation alone.

    The interior edges (for the certificate) and the Jacobian's links are
    built on first use, since most passes of a hard solve need neither.
    """

    sites: np.ndarray
    interior: np.ndarray
    tris: np.ndarray      # (F, 3) lower-face site triples, from _lower_faces
    s_sorted: np.ndarray  # (site, face) incidences sorted by site, then angle
    f_sorted: np.ndarray
    nxt: np.ndarray       # next incidence around the same site
    starts: np.ndarray    # first incidence of each vertex site

    @property
    def covers(self) -> bool:
        """Every site is a vertex of the triangulation."""
        return len(self.starts) == len(self.sites)

    @cached_property
    def edges(self):
        """(ccw faces, face, opposite vertex): the faces oriented ccw in the
        plane and, per interior edge, a face on one side of it and the
        vertex opposite it on the other."""
        ccw = _ccw(self.sites, self.tris)
        # edge k of a face is the side opposite its vertex k; an interior
        # edge is the side of two faces
        lo = np.minimum(ccw[:, [1, 2, 0]], ccw[:, [2, 0, 1]]).ravel()
        hi = np.maximum(ccw[:, [1, 2, 0]], ccw[:, [2, 0, 1]]).ravel()
        order = np.lexsort((hi, lo))
        lo, hi = lo[order], hi[order]
        twin = np.flatnonzero((lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1]))
        return ccw, order[twin] // 3, ccw.ravel()[order[twin + 1]]

    @cached_property
    def links(self):
        """(incidences, rows, cols, lengths) of the Jacobian: per incidence of
        an interior site whose cell edge links it to a lattice neighbour, the
        interior indices of the site and the neighbour (-1 on the boundary)
        and the planar length of the link."""
        sites, s_sorted, f_sorted, nxt = self.sites, self.s_sorted, self.f_sorted, self.nxt
        # consecutive faces around a site share the lattice edge that
        # generates the cell edge between their gradients
        A = self.tris[f_sorted]
        B = self.tris[f_sorted[nxt]]
        match = (B[:, :, None] == A[:, None, :]).any(axis=2) & (B != s_sorted[:, None])
        j_shared = B[np.arange(len(B)), np.argmax(match, axis=1)]
        dist = np.hypot(
            sites[j_shared, 0] - sites[s_sorted, 0],
            sites[j_shared, 1] - sites[s_sorted, 1],
        )
        link = np.flatnonzero(match.any(axis=1) & (dist > 0) & self.interior[s_sorted])
        idx_of = -np.ones(len(sites), dtype=np.int64)
        idx_of[self.interior] = np.arange(int(self.interior.sum()))
        return link, idx_of[s_sorted[link]], idx_of[j_shared[link]], dist[link]


def _topology(sites: np.ndarray, tris: np.ndarray, interior: np.ndarray) -> _Topology:
    """The (site, face) incidences of ``tris`` in angular order about each site."""
    f_ids = np.repeat(np.arange(len(tris)), 3)
    s_ids = tris.ravel()
    centroids = sites[tris].mean(axis=1)
    vec = centroids[f_ids] - sites[s_ids]
    ang = np.arctan2(vec[:, 1], vec[:, 0])
    order = np.lexsort((ang, s_ids))
    s_sorted = s_ids[order]
    starts = np.flatnonzero(np.r_[True, s_sorted[1:] != s_sorted[:-1]])
    ends = np.r_[starts[1:], len(s_sorted)]
    nxt = np.arange(len(s_sorted)) + 1
    nxt[ends - 1] = starts
    return _Topology(sites=sites, interior=interior, tris=tris, s_sorted=s_sorted,
                     f_sorted=f_ids[order], nxt=nxt, starts=starts)


def _certified_gradients(topo: _Topology, sites: np.ndarray, heights: np.ndarray):
    """Face gradients of ``topo`` when it is the lower hull of the heights, else None.

    It is when every site is a vertex and the lifted triangulation is
    locally convex: across every interior edge the opposite vertex lies on
    or above the plane of the face, n . (P[v] - P[a]) >= 0 with the upward
    normal n of the ccw face (a, b, c) (Edelsbrunner & Shah, Algorithmica
    1996).  A test that rounds negative, or is not finite, certifies nothing;
    so does a face of zero planar area (n_z = 0), which Qhull's ``Qt`` can
    emit and whose gradient is undefined.
    """
    if not topo.covers:
        return None
    tris, f, opp = topo.edges
    lifted = np.column_stack([sites, heights])
    a = lifted[tris[:, 0]]
    u = lifted[tris[:, 1]] - a
    v = lifted[tris[:, 2]] - a
    normal = np.column_stack([
        u[:, 1] * v[:, 2] - u[:, 2] * v[:, 1],
        u[:, 2] * v[:, 0] - u[:, 0] * v[:, 2],
        u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0],
    ])
    lift = np.einsum("ij,ij->i", normal[f], lifted[opp] - a[f])
    if not (np.all(lift >= 0.0) and np.all(normal[:, 2] > 0.0)):
        return None
    return -normal[:, :2] / normal[:, 2:3]


@dataclass(frozen=True)
class _MassPass:
    """The masses of one heights vector, summed on its lower-hull topology."""

    topo: _Topology
    normals: np.ndarray | None  # (F, 4) Qhull's plane equations; None if certified
    grads: np.ndarray           # (len(s_sorted), 2) face gradients in incidence order
    areas: np.ndarray           # (N,) cell areas, zero on boundary sites


def _mass_pass(sites: np.ndarray, heights: np.ndarray, interior: np.ndarray,
               topo: _Topology | None = None) -> _MassPass:
    """Subgradient-cell areas of every interior site.

    ``topo`` (that of an earlier pass) is reused when it certifies itself on
    the heights; otherwise Qhull builds the lower hull and a new topology.
    The cell polygon of a site is its incident face gradients in angular
    order; the shoelace sum is evaluated for all sites at once.
    """
    grads = None if topo is None else _certified_gradients(topo, sites, heights)
    normals = None
    if grads is None:
        tris, normals = _lower_faces(sites, heights)
        topo = _topology(sites, tris, interior)
        grads = -normals[:, :2] / normals[:, 2:3]
    g = grads[topo.f_sorted]
    gn = g[topo.nxt]
    cross = g[:, 0] * gn[:, 1] - g[:, 1] * gn[:, 0]
    sums = np.add.reduceat(cross, topo.starts)

    areas = np.zeros(len(sites))
    areas[topo.s_sorted[topo.starts]] = 0.5 * np.abs(sums)
    areas[~interior] = 0.0
    return _MassPass(topo=topo, normals=normals, grads=g, areas=areas)


def _jacobian(hp: _MassPass, m: int):
    """Sparse derivative of the m interior masses with respect to interior
    heights (power-diagram stiffness) on the topology of a pass."""
    link, rows, cols, dist = hp.topo.links
    g = hp.grads[link]
    gn = hp.grads[hp.topo.nxt[link]]
    w = np.hypot(gn[:, 0] - g[:, 0], gn[:, 1] - g[:, 1]) / dist
    keep = w > 0
    off = keep & (cols >= 0)
    J = sp.coo_matrix((w[off], (rows[off], cols[off])), shape=(m, m)).tocsr()
    diag = np.zeros(m)
    np.add.at(diag, rows[keep], -w[keep])
    return J + sp.diags(diag)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def solve(problem: DirichletProblem, tol: float = 1e-8, max_iters: int = 10**6) -> SolveReport:
    """Adjust interior heights until every cell mass matches its target.

    Damped Newton on the mass map from a paraboloid start (see the module
    docstring).  ``max_iters`` bounds the site updates, charged as the number
    of interior sites per accepted Newton step.  Raises NoConvergence when
    tol is not positive, the update budget is exhausted or Newton stops short
    of tol, with the residual of the heights it reached; raises
    InfeasibleBoundary when the boundary data admits no convex extension.
    The returned envelope is the one ``lower_envelope`` builds on the solved
    heights, made from the last accepted pass's hull when Qhull built it.
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
    )
    heights = state.heights
    out = GridFunction(domain=gf.domain, h=gf.h, nodes=gf.nodes, values=heights)
    if state.last.normals is None:  # a certified pass has no hull to hand over
        tris, normals = _lower_faces(gf.nodes, heights)
        state.hull_builds += 1
    else:
        tris, normals = state.last.topo.tris, state.last.normals
    pl = _envelope(gf.nodes, heights, tris, normals)
    return SolveReport(
        iterations=state.newton_steps * len(state.int_ids),  # site updates
        max_residual=state.residual(),
        function=pl,
        grid=out,
        h=gf.h,
        alpha=problem.alpha,
        newton_steps=state.newton_steps,
        mass_passes=state.mass_passes,
        hull_builds=state.hull_builds,
        backtracks=state.backtracks,
    )


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


def _solve_state(sites, is_interior, boundary_values, targets, tol, max_iters, chords):
    """Run the solve; returns its converged ``_SolveState``.  ``targets`` is
    aligned with the sites, ``boundary_values`` with the boundary sites."""
    if not tol > 0:
        raise NoConvergence("tolerance must be positive", residual=np.inf)
    sites = np.asarray(sites, dtype=float)
    interior = np.asarray(is_interior, dtype=bool)
    n = len(sites)
    heights = np.zeros(n)
    heights[~interior] = boundary_values

    boundary_env = lower_envelope(sites[~interior], boundary_values)
    env_at_boundary = boundary_env(sites[~interior])
    scale = float(np.ptp(boundary_values)) + 1.0
    if np.any(boundary_values > env_at_boundary + 1e-9 * scale):
        # a node strictly above the envelope of the rim data cannot be matched
        # by any convex function, so no lowering can meet the targets there
        raise InfeasibleBoundary(
            "boundary data lies strictly above its own convex envelope"
        )

    state = _SolveState(sites, interior, targets, heights, max_iters, chords)
    _paraboloid_init(state, boundary_values)
    _newton_phase(state, tol)
    return state


def _paraboloid_init(state, boundary_values):
    """Replace the interior envelope start by a paraboloid matched to the
    median target mass and kept below every boundary sample.

    All paraboloid samples are vertices of the lifted lower hull, so every
    interior site starts with strictly positive mass and a nonsingular
    Newton system.
    """
    sites, interior = state.sites, state.interior
    pitch = _pitch(sites)
    med = float(np.median(state.tgt))
    a = np.sqrt(med) / pitch
    center = sites.mean(axis=0)
    r2 = np.sum((sites - center) ** 2, axis=1)
    c = float(np.min(boundary_values - 0.5 * a * r2[~interior]))
    state.heights[interior] = 0.5 * a * r2[interior] + c


class _SolveState:
    def __init__(self, sites, interior, targets, heights, max_iters, chords):
        self.sites = sites
        self.interior = interior
        self.targets = targets
        self.heights = heights
        self.max_iters = max_iters
        self.chords = chords  # (centre, a, b) of the chord test
        self.newton_steps = 0
        self.mass_passes = 0
        self.hull_builds = 0
        self.backtracks = 0
        self.int_ids = np.flatnonzero(interior)
        self.tgt = targets[self.int_ids]
        self.last = None  # _MassPass of the heights in place

    def mass_pass(self, carry=True) -> _MassPass:
        """Masses of the heights in place, on the topology of the latest pass
        when ``carry`` is set and it certifies itself, else on a new Qhull hull."""
        topo = None if self.last is None or not carry else self.last.topo
        self.last = _mass_pass(self.sites, self.heights, self.interior, topo)
        self.mass_passes += 1
        self.hull_builds += self.last.normals is not None
        return self.last

    def above_a_chord(self) -> bool:
        """Some interior site lies on or above the chord of two opposite
        lattice neighbours, 2 h_i >= h_a + h_b, so its cell has no area."""
        centre, a, b = self.chords
        h = self.heights
        return bool(np.any(2.0 * h[centre] >= h[a] + h[b]))

    def no_convergence(self, message, residual) -> NoConvergence:
        return NoConvergence(message, residual=residual, newton_steps=self.newton_steps,
                             mass_passes=self.mass_passes, hull_builds=self.hull_builds,
                             backtracks=self.backtracks)

    def residual(self) -> float:
        masses = self.last.areas
        return float(np.max(np.abs(masses[self.int_ids] - self.tgt) / self.tgt))


def _newton_phase(state, tol) -> None:
    """Damped Newton on the mass map until the max relative residual is <= tol.

    Steps are halved, at most 24 times, until every interior mass stays
    positive and the l2 residual drops (the usual guarded-Newton recipe for
    prescribed-cell-area problems).  The accepted trial's pass gives the next
    step its masses and Jacobian.  A trial that fails the chord test (module
    docstring) is halved at once.  Any other trial costs one mass pass, with
    a Qhull build when the latest pass's triangulation fails its certificate
    on the trial heights or when the trial before failed the chord test.  The
    skipped pass would have built a hull without the lifted site, which
    certifies nothing, so building afresh keeps the results those of a solve
    without the test.  Any other exit raises NoConvergence with the residual
    of the heights left in place and the work counters so far.
    """
    int_ids, tgt = state.int_ids, state.tgt

    def stop(reason):
        return state.no_convergence(f"Newton {reason}, residual {resid:.3e}", resid)

    current = state.mass_pass()
    for it in range(80):
        F = current.areas[int_ids] - tgt
        resid = state.residual()
        if resid <= tol:
            return
        l2 = float(np.linalg.norm(F / tgt))
        if not np.isfinite(l2):
            raise stop(f"step {it}: residual is not finite")
        J = _jacobian(current, len(int_ids))
        try:
            # -J is a symmetric, irreducibly diagonally dominant M-matrix, so
            # positive definite: diagonal pivots on a symmetric ordering are stable
            delta = splu(J.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True}).solve(-F)
        except RuntimeError as exc:
            raise stop(f"step {it}: sparse solve failed ({exc})") from exc
        if not np.all(np.isfinite(delta)):
            raise stop(f"step {it}: step is not finite")
        step = 1.0
        base = state.heights[int_ids].copy()
        carry = True  # False after a chord rejection; see the docstring
        for _ in range(24):
            state.heights[int_ids] = base + step * delta
            if state.above_a_chord():
                carry = False
            else:
                trial = state.mass_pass(carry).areas
                carry = True
                trial_l2 = float(np.linalg.norm((trial[int_ids] - tgt) / tgt))
                if (
                    np.all(trial[int_ids] > 0.0)
                    and np.isfinite(trial_l2)
                    and trial_l2 < l2 * (1.0 - 1e-4 * step)
                ):
                    break
            step *= 0.5
            state.backtracks += 1
        else:
            # back to the step's start; its pass replaces the last rejected trial's
            state.heights[int_ids] = base
            state.last = current
            raise stop(f"step {it}: line search found no descent")
        current = state.last
        state.newton_steps += 1
        if state.newton_steps * len(int_ids) > state.max_iters:
            raise state.no_convergence("update budget exhausted", state.residual())
    resid = state.residual()
    if resid > tol:
        raise stop("did not converge in 80 steps")


def _pitch(sites: np.ndarray) -> float:
    """Characteristic site spacing: median nearest-neighbor distance."""
    from scipy.spatial import cKDTree

    d, _ = cKDTree(sites).query(sites, k=2)
    return float(np.median(d[:, 1]))


def residual(pl: PLConvexFunction, problem: DirichletProblem) -> float:
    """Max relative mass residual, verified through ma_measure only."""
    measure = ma_measure(pl)
    interior = problem.interior
    t = problem.targets[interior]
    m = measure.masses[interior]
    return float(np.max(np.abs(m - t) / t))
