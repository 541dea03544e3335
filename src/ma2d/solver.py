"""Dirichlet solver for det D2 v = f in the exact discrete Alexandrov sense.

The unknown is the vector of interior heights; the equation asks that the
subgradient-cell area of every interior site equal the prescribed integral of
f over its lattice cell.  Two methods share the machinery:

* method="newton" (default): start from a paraboloid matched to the median
  target mass and kept below the boundary data (every interior site is then
  a hull vertex with positive mass), and run damped Newton on the mass map.
  The Jacobian is the standard power-diagram stiffness,
  d(mass_i)/d(height_j) = L_ij / |x_j - x_i| for the cell edge generated by
  neighbor j, sparse and symmetric, with the diagonal carrying the boundary
  links; per-site height solves repair any degenerate start or stall.
* method="op": the classical monotone coordinate scheme - initialize with
  the convex envelope of the boundary data (an upper solution with zero
  interior mass) and sweep per-site height solves in descending-residual
  order.  Orders of magnitude slower, kept for its ordering guarantees.

Masses are evaluated two ways that agree to rounding away from degenerate
states: globally through the lower convex hull (vectorized fan pass), and
per site as the area of the half-plane intersection
{p : p.(x_j - x_i) <= h_j - t} (height solves).  The ``residual`` verifier
goes through ma_measure instead, which orders each cell's gradients by angle
in gradient space and certifies convexity, and never touches the solve
loop's code path.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve
from scipy.spatial import ConvexHull

from .errors import InfeasibleBoundary, NoConvergence
from .geometry import clip_halfplane, polygon_area
from .grid import Domain2D, GridFunction, RhsField, sample
from .ma_measure import PLConvexFunction, lower_envelope, ma_measure


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
    bvals = np.asarray(
        _call_field(boundary, gf.nodes[~interior]), dtype=float
    )
    if not np.all(np.isfinite(bvals)):
        raise ValueError("boundary values must be finite")
    targets = target_masses_on(gf, rhs)
    return DirichletProblem(
        domain=domain, h=h, rhs=rhs, grid=gf, boundary_values=bvals, targets=targets
    )


def _call_field(field, pts):
    if callable(field):
        out = np.asarray(field(pts), dtype=float)
        if out.shape == (len(pts),):
            return out
        return np.array([float(field(p)) for p in pts])
    return np.full(len(pts), float(field))


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

def _mass_pass(sites: np.ndarray, heights: np.ndarray, interior: np.ndarray,
               jacobian: bool = False):
    """Subgradient-cell areas of every interior site from one global hull.

    The cell polygon of a site is its incident lower-hull face gradients in
    angular order; the shoelace sum is evaluated for all sites at once.  With
    ``jacobian=True`` also returns the sparse derivative of interior masses
    with respect to interior heights (power-diagram stiffness).
    """
    n = len(sites)
    lifted = np.column_stack([sites, heights])
    spread = float(np.ptp(heights)) + float(np.ptp(sites)) + 1.0
    apex = np.array([[sites[:, 0].mean(), sites[:, 1].mean(), heights.max() + 10.0 * spread]])
    hull = ConvexHull(np.vstack([lifted, apex]), qhull_options="Qt")
    eq = hull.equations
    keep = (eq[:, 2] < -1e-12) & ~np.any(hull.simplices == n, axis=1)
    tris = hull.simplices[keep]
    normals = eq[keep]
    grads = -normals[:, :2] / normals[:, 2:3]

    f_ids = np.repeat(np.arange(len(tris)), 3)
    s_ids = tris.ravel()
    centroids = sites[tris].mean(axis=1)
    vec = centroids[f_ids] - sites[s_ids]
    ang = np.arctan2(vec[:, 1], vec[:, 0])
    order = np.lexsort((ang, s_ids))
    s_sorted = s_ids[order]
    f_sorted = f_ids[order]
    g = grads[f_sorted]

    starts = np.flatnonzero(np.r_[True, s_sorted[1:] != s_sorted[:-1]])
    ends = np.r_[starts[1:], len(s_sorted)]
    nxt = np.arange(len(s_sorted)) + 1
    nxt[ends - 1] = starts
    gn = g[nxt]
    cross = g[:, 0] * gn[:, 1] - g[:, 1] * gn[:, 0]
    sums = np.add.reduceat(cross, starts)

    areas = np.zeros(n)
    areas[s_sorted[starts]] = 0.5 * np.abs(sums)
    areas[~interior] = 0.0
    if not jacobian:
        return areas

    # consecutive faces around a site share the lattice edge that generates
    # the cell edge between their gradients
    A = tris[f_sorted]
    B = tris[f_sorted[nxt]]
    match = (B[:, :, None] == A[:, None, :]).any(axis=2) & (B != s_sorted[:, None])
    has = match.any(axis=1)
    j_shared = B[np.arange(len(B)), np.argmax(match, axis=1)]
    L = np.hypot(gn[:, 0] - g[:, 0], gn[:, 1] - g[:, 1])
    dist = np.hypot(
        sites[j_shared, 0] - sites[s_sorted, 0],
        sites[j_shared, 1] - sites[s_sorted, 1],
    )
    w = np.where(has & (dist > 0) & interior[s_sorted], L / np.where(dist > 0, dist, 1.0), 0.0)

    idx_of = -np.ones(n, dtype=np.int64)
    int_ids = np.flatnonzero(interior)
    idx_of[int_ids] = np.arange(len(int_ids))
    rows = idx_of[s_sorted]
    cols = idx_of[j_shared]
    keep_entry = (w > 0) & (rows >= 0)
    off = keep_entry & (cols >= 0)
    m = len(int_ids)
    J = sp.coo_matrix(
        (w[off], (rows[off], cols[off])), shape=(m, m)
    ).tocsr()
    diag = np.zeros(m)
    np.add.at(diag, rows[keep_entry], -w[keep_entry])
    J = J + sp.diags(diag)
    return areas, J


def _cell_polygon(i: int, t: float, sites: np.ndarray, heights: np.ndarray,
                  cand: np.ndarray) -> np.ndarray:
    """Clip the subdifferential cell of site i at trial height t.

    Constraints are visited by ascending slack (signed plane distance from
    the origin of gradient space); once the slack exceeds the polygon radius
    no later constraint can cut, so the loop stops early.
    """
    d = sites[cand] - sites[i]
    c = heights[cand] - t
    nrm = np.hypot(d[:, 0], d[:, 1])
    ok = nrm > 0
    d, c, nrm = d[ok], c[ok], nrm[ok]
    slack = c / nrm
    order = np.argsort(slack, kind="stable")

    big = 1e9
    poly = np.array([[-big, -big], [big, -big], [big, big], [-big, big]])
    radius = big * np.sqrt(2.0)
    for j in order:
        if slack[j] > radius * (1.0 + 1e-12):
            break
        poly = clip_halfplane(poly, d[j], c[j])
        if len(poly) == 0:
            return poly
        radius = float(np.hypot(poly[:, 0], poly[:, 1]).max())
    return poly


def _cell_mass(i, t, sites, heights, cand) -> float:
    return polygon_area(_cell_polygon(i, t, sites, heights, cand))


def _candidates(i: int, t_lo: float, sites: np.ndarray, heights: np.ndarray) -> np.ndarray:
    """Constraint sites that can bound the cell of i for any trial t >= t_lo."""
    d = sites - sites[i]
    nrm = np.hypot(d[:, 0], d[:, 1])
    nrm[i] = np.inf
    c = heights - t_lo
    with np.errstate(divide="ignore", invalid="ignore"):
        slack = np.where(np.isfinite(nrm) & (nrm > 0), c / nrm, np.inf)
    # outer bound from the 32 most binding constraints
    order = np.argsort(slack, kind="stable")[:32]
    order = order[np.isfinite(slack[order])]
    big = 1e9
    poly = np.array([[-big, -big], [big, -big], [big, big], [-big, big]])
    for j in order:
        poly = clip_halfplane(poly, d[j], c[j])
        if len(poly) == 0:
            return order
    radius = float(np.hypot(poly[:, 0], poly[:, 1]).max())
    keep = np.flatnonzero(slack <= radius * (1.0 + 1e-12))
    return keep


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def solve(problem: DirichletProblem, tol: float = 1e-8, max_iters: int = 10**6,
          method: str = "newton") -> SolveReport:
    """Adjust interior heights until every cell mass matches its target.

    ``method`` is "newton" (damped Newton from a matched paraboloid, the
    default) or "op" (pure monotone coordinate descent with per-site height
    solves).  Raises NoConvergence when tol is not positive or the update
    budget is exhausted, and InfeasibleBoundary when the boundary data admits
    no convex extension.
    """
    gf = problem.grid
    heights, iterations, resid = solve_core(
        sites=gf.nodes,
        is_interior=problem.interior,
        boundary_values=problem.boundary_values,
        targets=problem.targets,
        tol=tol,
        max_iters=max_iters,
        method=method,
    )
    out = GridFunction(domain=gf.domain, h=gf.h, nodes=gf.nodes, values=heights)
    pl = lower_envelope(gf.nodes, heights)
    return SolveReport(
        iterations=iterations,
        max_residual=resid,
        function=pl,
        grid=out,
        h=gf.h,
        alpha=problem.alpha,
    )


def solve_core(sites, is_interior, boundary_values, targets, tol, max_iters,
               method: str = "newton"):
    """Scheme core on an arbitrary site set; returns (heights, iterations, residual).

    ``targets`` is aligned with sites (zeros on boundary), ``boundary_values``
    with the boundary subset in site order.
    """
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
    heights[interior] = boundary_env(sites[interior])

    state = _SolveState(sites, interior, targets, heights, max_iters)

    if method == "newton":
        _paraboloid_init(state, boundary_values)
        _dezero(state)
        done = _newton_phase(state, tol)
        if not done:
            _gauss_seidel_phase(state, tol)
    else:
        _gauss_seidel_phase(state, tol)
    return state.heights, state.iterations, state.residual()


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
    def __init__(self, sites, interior, targets, heights, max_iters):
        self.sites = sites
        self.interior = interior
        self.targets = targets
        self.heights = heights
        self.max_iters = max_iters
        self.iterations = 0
        self.int_ids = np.flatnonzero(interior)
        self.tgt = targets[self.int_ids]
        self._masses = None

    def masses(self, jacobian=False):
        out = _mass_pass(self.sites, self.heights, self.interior, jacobian=jacobian)
        self._masses = out[0] if jacobian else out
        return out

    def residual(self, masses=None) -> float:
        if masses is None:
            masses = self._masses if self._masses is not None else self.masses()
        return float(np.max(np.abs(masses[self.int_ids] - self.tgt) / self.tgt))

    def charge(self, count):
        self.iterations += int(count)
        if self.iterations > self.max_iters:
            raise NoConvergence("update budget exhausted", residual=self.residual())


def _dezero(state, max_passes: int = 4):
    """Give any zero-mass interior site its target mass by a direct height solve."""
    for _ in range(max_passes):
        masses = state.masses()
        dead = state.int_ids[masses[state.int_ids] <= 0.0]
        if len(dead) == 0:
            return
        for i in dead:
            state.heights[i] = _solve_site(
                int(i), state.sites, state.heights, state.targets[i], 0.25
            )
            state.charge(1)


def _newton_phase(state, tol) -> bool:
    """Damped Newton on the mass map; returns True when tol was reached.

    Steps are halved until every interior mass stays positive and the l2
    residual drops (the usual guarded-Newton recipe for prescribed-cell-area
    problems); the stopping test is the max relative residual.
    """
    int_ids, tgt = state.int_ids, state.tgt
    for it in range(80):
        masses, J = state.masses(jacobian=True)
        F = masses[int_ids] - tgt
        if state.residual(masses) <= tol:
            return True
        l2 = float(np.linalg.norm(F / tgt))
        if not np.isfinite(l2):
            return False
        try:
            delta = spsolve(J.tocsc(), -F)
        except Exception:
            return False
        if not np.all(np.isfinite(delta)):
            return False
        step = 1.0
        base = state.heights[int_ids].copy()
        accepted = False
        for _ in range(24):
            state.heights[int_ids] = base + step * delta
            trial = state.masses()
            trial_l2 = float(np.linalg.norm((trial[int_ids] - tgt) / tgt))
            if (
                np.all(trial[int_ids] > 0.0)
                and np.isfinite(trial_l2)
                and trial_l2 < l2 * (1.0 - 1e-4 * step)
            ):
                accepted = True
                break
            step *= 0.5
        if not accepted:
            state.heights[int_ids] = base
            return False
        state.charge(len(int_ids))
    return state.residual() <= tol


def _gauss_seidel_phase(state, tol):
    """Descending-residual sweeps of exact per-site height solves."""
    sites, heights = state.sites, state.heights
    int_ids, tgt = state.int_ids, state.tgt
    final_resid = np.inf
    prev = np.inf
    stall = 0
    for sweep in range(2000):
        masses = state.masses()
        rel = np.abs(masses[int_ids] - tgt) / tgt
        final_resid = float(rel.max())
        if final_resid <= tol:
            return
        if final_resid >= prev * (1.0 - 1e-12):
            stall += 1
            if stall > 12:
                raise NoConvergence(
                    f"residual stalled at {final_resid:.3e}", residual=final_resid
                )
        else:
            stall = 0
        prev = min(prev, final_resid)
        order = np.argsort(-rel, kind="stable")
        todo = order[rel[order] > 0.5 * tol]
        for k in todo:
            i = int(int_ids[k])
            heights[i] = _solve_site(i, sites, heights, state.targets[i], 0.25 * tol)
            state.charge(1)
    raise NoConvergence(
        f"no convergence after sweep budget, residual {final_resid:.3e}",
        residual=final_resid,
    )


def _pitch(sites: np.ndarray) -> float:
    """Characteristic site spacing: median nearest-neighbor distance."""
    from scipy.spatial import cKDTree

    d, _ = cKDTree(sites).query(sites, k=2)
    return float(np.median(d[:, 1]))


def _solve_site(i, sites, heights, target, rel_tol) -> float:
    """Height at which site i's cell mass equals target.

    Monotone root solve (mass decreases in the height): bracket, then an
    Illinois secant with bisection safeguard, at most 60 mass evaluations.
    """
    t0 = heights[i]
    span = float(np.ptp(heights)) + 1.0
    step = max(1e-3 * span, 1e-12)
    # bracket below: expand until mass >= target
    t_lo = t0
    cand = _candidates(i, t_lo, sites, heights)
    m_lo = _cell_mass(i, t_lo, sites, heights, cand)
    guard = 0
    while m_lo < target and guard < 80:
        step *= 2.0
        t_lo = t0 - step
        guard += 1
        cand = _candidates(i, t_lo, sites, heights)
        m_lo = _cell_mass(i, t_lo, sites, heights, cand)
    if m_lo < target:
        return t_lo
    # bracket above: raise towards zero mass when currently overshooting
    t_hi = t0
    m_hi = _cell_mass(i, t_hi, sites, heights, cand) if t_hi > t_lo else m_lo
    if t_hi == t_lo or m_hi > target:
        step = max(1e-3 * span, 1e-12)
        guard = 0
        t_hi = t0
        m_hi = m_lo if t_hi == t_lo else m_hi
        while m_hi > target and guard < 80:
            t_hi = t_hi + step
            step *= 2.0
            m_hi = _cell_mass(i, t_hi, sites, heights, cand)
            guard += 1
    f_lo = m_lo - target  # >= 0
    f_hi = m_hi - target  # <= 0
    if f_lo <= 0:
        return t_lo
    if f_hi >= 0:
        return t_hi
    side = 0
    t_new = 0.5 * (t_lo + t_hi)
    for k in range(60):
        if f_lo == f_hi:
            break
        t_new = (t_lo * f_hi - t_hi * f_lo) / (f_hi - f_lo)
        if not t_lo < t_new < t_hi and not t_hi < t_new < t_lo:
            t_new = 0.5 * (t_lo + t_hi)
        if t_new == t_lo or t_new == t_hi:
            break
        m = _cell_mass(i, t_new, sites, heights, cand)
        f = m - target
        if abs(f) <= rel_tol * target:
            return t_new
        if f > 0:
            t_lo, f_lo = t_new, f
            if side == 1:
                f_hi *= 0.5
            side = 1
        else:
            t_hi, f_hi = t_new, f
            if side == -1:
                f_lo *= 0.5
            side = -1
    return t_new


def residual(pl: PLConvexFunction, problem: DirichletProblem) -> float:
    """Max relative mass residual, verified through ma_measure only."""
    measure = ma_measure(pl)
    interior = problem.interior
    t = problem.targets[interior]
    m = measure.masses[interior]
    return float(np.max(np.abs(m - t) / t))
