"""Sections of convex functions, John-ellipse normalization, balance radii,
doubling constants, and sub-level compactness.

A section S is the sub-level polygon {v <= v(x0) + p.(x - x0) + t}.  For
callable convex functions the boundary is traced along 512 equally spaced
rays from the base point per level, the rays of every level at once: each
step calls the function once on an (m, 2) array holding every ray still
open.  Radii are bracketed by doubling from 1, with w(lo) <= 0 < w(hi) for
the shifted function w, and the root is then found by Chandrupatla's method
on every ray, until the bracket is no wider than 1e-13 + 1e-14 r or w is
exactly 0; the vertex is the bracket end of least |w|.  A ray's radii depend
on its own values only, so a level's polygon is the same traced alone or
with others.  For grid samples the base point is a lattice node, and the
boundary is the marching-squares contour with linear interpolation along
lattice edges, all edges at once.

John ellipses are fitted for a stack of polygons at once, by a primal-dual
interior-point Newton method in numpy on padded arrays of their edges
(``john_ellipses``), each on an active set of its edges, since a
maximum-volume inscribed ellipse touches at most five of them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegeneratePolygon,
    DivideByZeroMass,
    DomainTooSmall,
    NoConvergence,
    NonfiniteValue,
    SectionNotCompact,
)
from .grid import Domain2D, GridFunction, lattice_coordinates
from .geometry import disk_rule, polygon_area, polygon_quadrature


@dataclass(frozen=True)
class Section:
    """Sub-level polygon of a convex function above a supporting plane."""

    base_point: np.ndarray
    slope: np.ndarray
    height: float
    polygon: np.ndarray  # (k, 2) ccw

    @property
    def area(self) -> float:
        return polygon_area(self.polygon)

    def mass(self, density) -> float:
        """Integral of a density over the section polygon."""
        return polygon_quadrature(self.polygon, density)


def extract_section(v, x0, p, t) -> Section:
    """Section polygon of v at height t above the supporting plane at x0:
    ``extract_sections`` with the one level t."""
    return extract_sections(v, x0, p, [t])[0]


def extract_sections(v, x0, p, levels) -> list:
    """Section polygons of v at each height in ``levels`` above the
    supporting plane at x0.

    ``v`` may be a GridFunction (marching squares on lattice edges; x0 must
    be one of its nodes, else ValueError), a PLConvexFunction, or any
    callable of (N, 2) arrays.  A callable is traced along 512 rays per
    level, the rays of every level in one batched bracket and root search
    (see the module docstring): 9 to 18 calls of ``v`` for the oracles at
    t = 1 and 128, each on the rays still open, for radii to
    1e-13 + 1e-14 r.  A ray's radii do not depend on the other rays, so
    each polygon is the one its level gives alone.  Raises
    SectionNotCompact when a ray's radius passes 1e9, naming the
    lowest-index such direction, and NonfiniteValue when ``v`` is NaN or
    infinite at a traced point; with several levels, the error is the one
    the lowest failing level raises alone.
    """
    levels = np.asarray(levels, dtype=float).reshape(-1)
    if np.any(levels <= 0):
        raise ValueError("section height t must be positive")
    x0 = np.asarray(x0, dtype=float)
    p = np.asarray(p, dtype=float)
    if isinstance(v, GridFunction):
        return _sections_from_grid(v, x0, p, levels)
    # PLConvexFunction instances evaluate as max-affine callables
    return _sections_from_callable(v, x0, p, levels)


_N_DIRS = 512  # rays traced around a callable's section
_XTOL, _RTOL = 1e-13, 1e-14  # a ray's bracket [x1, x2] closes at width _XTOL + _RTOL * max(x1, x2)
_R_MAX = 1e9  # a ray whose bracket passes this radius is unbounded


def _sections_from_callable(fn, x0, p, levels) -> list:
    v0 = float(np.asarray(fn(x0[None, :]), dtype=float)[0])
    if not np.isfinite(v0):
        raise NonfiniteValue(f"function value {v0} at the base point is not finite")
    theta = 2 * np.pi * np.arange(_N_DIRS) / _N_DIRS
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    # ray k runs along direction k % _N_DIRS at level k // _N_DIRS
    n_rays = len(levels) * _N_DIRS
    height = np.repeat(levels, _N_DIRS)
    failed = {}  # level -> the error its own trace raises first

    def fail(rays, make_error):
        """Record the error of each level among ``rays`` that has none yet,
        built from the level's first ray there."""
        lv, first = np.unique(rays // _N_DIRS, return_index=True)
        for level, k in zip(lv.tolist(), rays[first].tolist()):
            failed.setdefault(level, make_error(k))

    def w(rays, s):
        """Shifted function at radius s[i] along ray rays[i], one call of fn;
        NaN on the rays of a failed level."""
        d = s[:, None] * dirs[rays % _N_DIRS]
        x = x0 + d
        vals = np.asarray(fn(x), dtype=float)
        out = vals - v0 - (d[:, 0] * p[0] + d[:, 1] * p[1]) - height[rays]
        bad = np.flatnonzero(~np.isfinite(out))
        if bad.size:
            radius = dict(zip(rays[bad].tolist(), s[bad].tolist()))
            fail(rays[bad], lambda k: NonfiniteValue(
                f"function value is not finite along direction {theta[k % _N_DIRS]:.3f}"
                f" at radius {radius[k]:.6g}"
            ))
        if failed:
            out[np.isin(rays // _N_DIRS, list(failed))] = np.nan
        return out

    # bracket: double hi on the rays where the shifted function is still <= 0,
    # keeping the values at both ends; w(0) = -t
    lo = np.zeros(n_rays)
    hi = np.ones(n_rays)
    wlo = -height
    whi = np.empty(n_rays)
    rays = np.arange(n_rays)
    while True:
        vals = w(rays, hi[rays])
        up = vals <= 0.0  # NaN, on a failed level, is not
        whi[rays[~up]] = vals[~up]
        rays = rays[up]
        if not rays.size:
            break
        lo[rays], wlo[rays] = hi[rays], vals[up]
        hi[rays] *= 2.0
        # every open ray has the same hi, so the bound trips for all at once
        if hi[rays[0]] > _R_MAX:
            fail(rays, lambda k: SectionNotCompact(
                f"level set is unbounded along direction {theta[k % _N_DIRS]:.3f}"
            ))
            break
    live = np.flatnonzero(~np.isin(np.arange(n_rays) // _N_DIRS, list(failed)))
    root = _chandrupatla(w, lo, wlo, hi, whi, live)
    if failed:
        raise failed[min(failed)]
    verts = x0 + root.reshape(len(levels), _N_DIRS, 1) * dirs
    return [Section(base_point=x0, slope=p, height=float(t), polygon=poly)
            for t, poly in zip(levels, verts)]


def _chandrupatla(w, a, fa, b, fb, rays) -> np.ndarray:
    """Root of w on every ray from its bracket [a, b], fa = w(a) <= 0 < w(b) = fb.

    Chandrupatla's hybrid of inverse quadratic interpolation and bisection
    (Adv. Eng. Softw. 28, 1997), run on all rays at once from the open set
    ``rays``: each step calls ``w(rays, s)`` once on the rays still open.
    Per ray, x1 is the latest point, x2 the bracket's other end and x3 the
    point last dropped from the bracket; the next point is
    x1 + t (x2 - x1), with t from the quadratic through the three points
    where it is monotone in the bracket and 1/2 otherwise, kept tol/2 clear
    of both ends.  A ray stops when its bracket is no wider than
    tol = _XTOL + _RTOL * max(x1, x2), when w is exactly 0 at x1, or when w
    is NaN there.  Its root is the bracket end of least |w|: the zero where
    one was found, and within tol of the root in any case.
    """
    x1, f1, x2, f2 = a.copy(), fa.copy(), b.copy(), fb.copy()
    # the open rays' state, kept compact: each ray's values are written back
    # to x1, f1, x2, f2 when it closes
    X1, F1, X2, F2 = x1[rays], f1[rays], x2[rays], f2[rays]
    X3, F3 = np.empty_like(X1), np.empty_like(X1)
    T = np.full(len(rays), 0.5)
    while True:
        dx = np.abs(X2 - X1)
        tol = _XTOL + _RTOL * np.maximum(X1, X2)
        open_ = (dx > tol) & (F1 != 0.0) & (F1 == F1)
        if not open_.all():
            shut = ~open_
            x1[rays[shut]], f1[rays[shut]] = X1[shut], F1[shut]
            x2[rays[shut]], f2[rays[shut]] = X2[shut], F2[shut]
            rays, X1, F1, X2, F2, X3, F3, T, dx, tol = (
                v[open_] for v in (rays, X1, F1, X2, F2, X3, F3, T, dx, tol))
        if not rays.size:
            break
        tl = 0.5 * tol / dx
        s = X1 + np.clip(T, tl, 1.0 - tl) * (X2 - X1)
        fs = w(rays, s)
        # the bracket keeps X2 where w(s) has w(X1)'s sign, else it keeps X1
        flip = np.sign(fs) != np.sign(F1)
        X3, F3 = np.where(flip, X2, X1), np.where(flip, F2, F1)
        X2, F2 = np.where(flip, X1, X2), np.where(flip, F1, F2)
        X1, F1 = s, fs
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            xi = (X1 - X2) / (X3 - X2)
            phi = (F1 - F2) / (F3 - F2)
            quad = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
            T = np.where(
                quad,
                F1 / (F2 - F1) * F3 / (F2 - F3)
                + (X3 - X1) / (X2 - X1) * F1 / (F3 - F1) * F2 / (F3 - F2),
                0.5,
            )
    return np.where(np.abs(f1) <= np.abs(f2), x1, x2)


def _sections_from_grid(gf: GridFunction, x0, p, levels) -> list:
    v0 = _grid_value_at(gf, x0)
    # a zero slope, as at a minimum, adds only zeros of either sign, which
    # leave every shifted value base - t the same
    base = gf.values - v0 - (gf.nodes - x0) @ p if p.any() else gf.values - v0
    return [_section_from_grid(gf, x0, p, t, base - t) for t in levels.tolist()]


def _section_from_grid(gf: GridFunction, x0, p, t, w) -> Section:
    """The section of the lattice function whose shifted values are w."""
    inside = w <= 0.0
    if not inside.any():
        raise SectionNotCompact("section height below the function minimum")
    if np.any(inside & gf.boundary_mask):
        raise SectionNotCompact("level set touches the computational boundary")
    a, b = gf.lattice_edges.T
    cut = inside[a] != inside[b]
    a, b = a[cut], b[cut]
    if len(a) < 3:
        raise SectionNotCompact("level set too small for the lattice resolution")
    lam = w[a] / (w[a] - w[b])
    crossings = gf.nodes[a] + lam[:, None] * (gf.nodes[b] - gf.nodes[a])
    pts = np.unique(np.round(crossings, 12), axis=0)
    center = pts.mean(axis=0)
    ang = np.arctan2(pts[:, 1] - center[1], pts[:, 0] - center[0])
    poly = pts[np.argsort(ang, kind="stable")]
    return Section(base_point=x0, slope=np.asarray(p, dtype=float), height=float(t), polygon=poly)


def _grid_value_at(gf: GridFunction, x) -> float:
    """The value at the node x, found by its lattice coordinates, which snap
    to integers at a node (``grid.lattice_coordinates``); raises ValueError
    when x is not a node."""
    k = lattice_coordinates(x, gf.h)
    grid, lo, _ = gf._id_grid
    i, j = k - lo
    if np.all(k == np.rint(k)) and 0 <= i < grid.shape[0] and 0 <= j < grid.shape[1]:
        node = grid[int(i), int(j)]
        if node >= 0:
            return float(gf.values[node])
    raise ValueError(f"base point ({x[0]!r}, {x[1]!r}) is not a node of the pitch-{gf.h!r} lattice")


@dataclass(frozen=True)
class EllipsoidFit:
    """Maximum-volume inscribed ellipse {x : (x-c)^T M (x-c) <= 1} with its
    unimodular normalization A = S^(1/2)/det(S)^(1/4), S = M^(-1)."""

    center: np.ndarray
    shape_matrix: np.ndarray  # M
    normalized: np.ndarray    # A, symmetric, det A = 1
    scale: float              # det(S)^(1/4): radius of the equal-area disk
    r: float = float("nan")   # balance radius, filled by the balance step
    k0: float = float("nan")  # measured balance constant


def john_ellipses(polygons) -> list:
    """Maximum-volume inscribed ellipses of convex polygons, fitted together.

    Each fit maximises log det B over ellipses c + B(unit disk), B symmetric
    positive definite, subject to the edge constraints a_i . c + |B a_i| <= b_i
    (Boyd & Vandenberghe, Convex Optimization, 8.4.2).  A polygon is first
    moved to its centroid and whitened by the Cholesky factor of its area
    covariance (``_edge_frame``); the problem is affine-equivariant, so this
    changes only its conditioning, and the fit is mapped back.  All polygons
    are then solved at once by ``_john_solve``, a primal-dual interior-point
    Newton method on padded (K, m) edge arrays; a single polygon is a stack
    of one.

    The optimum touches at most five edges (John, 1948), so the solve runs
    on an active set of edges: every (m // 32)-th of the m edges, the 8
    nearest the centroid and the 8 nearest it in the whitening frame, which
    is every edge when m < 64; the frame's 8 take in the ends of long, thin
    sections, where the optimum touches edges far from the centroid.  After
    each solve the slack of all m edges is evaluated; the edges violated by
    more than 1e-12 max |b_i| join the set and the polygons with new edges
    are solved again.  Each subset problem is a relaxation of the full one,
    so an optimum that satisfies every edge is the full problem's optimum,
    and the loop ends since the set grows on every round but the last.
    """
    frames = [_edge_frame(p) for p in polygons]
    fits = [None] * len(frames)
    todo = list(range(len(frames)))
    while todo:
        sets = [np.flatnonzero(frames[k].active) for k in todo]
        width = max(map(len, sets))
        # a shorter set is padded with copies of the edge w1 <= 1e3 max d_i,
        # far outside the polygon, which leave its optimum the same
        a = np.zeros((len(todo), width, 2))
        d = np.empty((len(todo), width))
        a[..., 0] = 1.0
        for j, (k, e) in enumerate(zip(todo, sets)):
            a[j, : len(e)], d[j, : len(e)] = frames[k].a[e], frames[k].d[e]
            d[j, len(e):] = 1e3 * d[j, : len(e)].max()
        x = _john_solve(a, d)[0]
        again = []
        for k, xk in zip(todo, x):
            f = frames[k]
            Ba = f.a @ xk[[[2, 3], [3, 4]]]
            slack = f.scale * (f.d - f.a @ xk[:2] - np.hypot(Ba[:, 0], Ba[:, 1]))
            added = ~f.active & (slack < -f.tol)
            if added.any():
                f.active[added] = True
                again.append(k)
            else:
                fits[k] = _fit_from_frame(f, xk)
        todo = again
    return fits


@dataclass(frozen=True)
class _EdgeFrame:
    """A convex polygon's edges {x : n_i . x <= b_i}, unit outward normals
    n_i, in the whitening frame x = c0 + L w of ``john_ellipses``: there
    edge i is a_i . w <= d_i, with a_i = L^T n_i / scale_i and
    d_i = (b_i - n_i . c0) / scale_i for scale_i = |L^T n_i|.  ``tol`` is
    1e-12 max |b_i|, and ``active`` the edges the solve uses."""

    a: np.ndarray
    d: np.ndarray
    scale: np.ndarray
    c0: np.ndarray
    L: np.ndarray  # lower-triangular: L L^T is the area covariance
    tol: float
    active: np.ndarray


def _edge_frame(polygon) -> _EdgeFrame:
    """The frame of a convex polygon with ccw vertices; raises
    DegeneratePolygon when its area is below 1e-14, when it is not
    star-shaped around its centroid, or when its area covariance is
    singular in floating point."""
    poly = np.asarray(polygon, dtype=float)
    keep = np.ones(len(poly), dtype=bool)
    keep[1:] = (poly[1:] != poly[:-1]).any(axis=1)
    poly = poly[keep]
    nxt = np.concatenate([poly[1:], poly[:1]])
    cross = poly[:, 0] * nxt[:, 1] - nxt[:, 0] * poly[:, 1]  # shoelace terms
    twice_area = cross.sum()
    if not 0.5 * abs(twice_area) >= 1e-14:
        raise DegeneratePolygon("polygon area below 1e-14")
    edges = nxt - poly
    lens = np.hypot(edges[:, 0], edges[:, 1])
    if not lens.all():
        poly, edges, lens = poly[lens > 0], edges[lens > 0], lens[lens > 0]
    normals = edges[:, ::-1] * (_OUTWARD / lens[:, None])  # unit, outward
    c0 = cross @ (poly + nxt) / (3.0 * twice_area)
    b = normals[:, 0] * poly[:, 0] + normals[:, 1] * poly[:, 1]
    dist = b - normals @ c0
    if not dist.min() > 0:
        raise DegeneratePolygon("polygon is not star-shaped around its centroid")
    # area covariance: twice the area w times the second moments of the
    # triangle (c0, p, q) about c0 is (p p^T + q q^T + (p + q)(p + q)^T) / 12
    P, Q = poly - c0, nxt - c0
    w = P[:, 0] * Q[:, 1] - Q[:, 0] * P[:, 1]
    R = np.concatenate([P, Q, P + Q])
    (c11, c12), (_, c22) = ((R.T * np.tile(w, 3)) @ R / (12.0 * w.sum())).tolist()
    l21 = c12 / math.sqrt(c11) if c11 > 0 else math.nan
    if not c22 - l21 * l21 > 0:
        raise DegeneratePolygon("polygon too thin to whiten by its area covariance")
    L = np.array([[math.sqrt(c11), 0.0], [l21, math.sqrt(c22 - l21 * l21)]])
    a = normals @ L
    scale = np.hypot(a[:, 0], a[:, 1])
    d = dist / scale
    active = np.zeros(len(b), dtype=bool)
    active[:: max(1, len(b) // 32)] = True
    active[np.argsort(dist, kind="stable")[:8]] = True
    active[np.argsort(d, kind="stable")[:8]] = True
    return _EdgeFrame(a=a / scale[:, None], d=d, scale=scale, c0=c0, L=L,
                      tol=1e-12 * float(np.abs(b).max()), active=active)


def _fit_from_frame(f: _EdgeFrame, x) -> EllipsoidFit:
    """The fit in the polygon's coordinates from the solution x = (c, B) in
    its whitening frame: the ellipse c0 + L c + L B(unit disk), whose
    covariance is S = (L B)(L B)^T."""
    c1, c2, p, q, r = x.tolist()
    (l11, _), (l21, l22) = f.L.tolist()
    m11, m12, m21, m22 = l11 * p, l11 * q, l21 * p + l22 * q, l21 * q + l22 * r
    s11, s12, s22 = m11 * m11 + m12 * m12, m11 * m21 + m12 * m22, m21 * m21 + m22 * m22
    root = abs(l11 * l22 * (p * r - q * q))  # det(S)^(1/2)
    scale = math.sqrt(root)
    # S^(1/2) of a 2 x 2 positive definite S: (S + det(S)^(1/2) I) / (tr S + 2 det(S)^(1/2))^(1/2)
    k = 1.0 / (scale * math.sqrt(s11 + s22 + 2.0 * root))
    return EllipsoidFit(
        center=f.c0 + np.array([l11 * c1, l21 * c1 + l22 * c2]),
        shape_matrix=np.array([[s22, -s12], [-s12, s11]]) / (root * root),
        normalized=np.array([[(s11 + root) * k, s12 * k], [s12 * k, (s22 + root) * k]]),
        scale=scale,
    )


_OUTWARD = np.array([1.0, -1.0])  # (e2, e1) * _OUTWARD is edge e's outward normal
_FIT_GAP, _FIT_RES = 1e-10, 1e-9  # stopping bounds of _john_solve
_FIT_STEPS = 50  # Newton steps after which _john_solve gives up
# x = (c1, c2, p, q, r) with B = [[p, q], [q, r]]: row-major B as _DB @ (p, q, r)
_DB = np.zeros((4, 5))
_DB[0, 2] = _DB[1, 3] = _DB[2, 3] = _DB[3, 4] = 1.0
# ((p + r) / 2, (p - r) / 2, q) lies in the second-order cone iff B is
# positive semidefinite
_PSD_ROW = np.array([[0, 0, 0.5, 0, 0.5], [0, 0, 0.5, 0, -0.5], [0, 0, 0, 1, 0]])
_LORENTZ = np.array([1.0, -1.0, -1.0])
# x -> row-major adj(B) = (r, -q, -q, p)
_ADJ = np.zeros((5, 4))
_ADJ[4, 0] = _ADJ[2, 3] = 1.0
_ADJ[3, 1] = _ADJ[3, 2] = -1.0


def _john_solve(a, b):
    """max log det B subject to s_i = y_i - |B a_i| >= 0, y_i = b_i - a_i . c,
    for K problems at once: unit normals a (K, m, 2) and offsets b (K, m),
    each with the origin strictly inside.

    A primal-dual interior-point Newton method, after Zhang & Gao (SIAM J.
    Optim. 14, 2003), on x = (c, B) and multipliers lam_i > 0, with Mehrotra's
    predictor-corrector: the predictor step sets the centring
    sigma = (mu_aff / mu)^3, and the corrector also carries the second-order
    terms of lam_i s_i and the curvature of the concave s_i along the
    predictor step.  Each step is 0.999 of the longest one that keeps every
    lam_i positive and every (y_i, B a_i), and B itself, inside its cone;
    that longest step is a root of a quadratic per cone, so no iterate
    leaves the interior.  A problem is done, and leaves the batch, when the
    gap sum lam_i s_i is at most _FIT_GAP and the largest entry of the
    Lagrangian gradient -grad log det B - sum lam_i grad s_i is at most
    _FIT_RES; raises NoConvergence after _FIT_STEPS steps.  Returns
    (x, lam, gap, residual), x = (c1, c2, p, q, r) with B = [[p, q], [q, r]].
    """
    K, m, _ = a.shape
    # each cone row (y, v) = offset + x @ rows: (b_i - a_i . c, B a_i) per
    # edge, then B's positive-semidefinite row
    rows = np.zeros((K, m + 1, 3, 5))
    rows[:, :m, 0, :2] = -a
    rows[:, :m, 1, 2:4] = a
    rows[:, :m, 2, 3:] = a
    rows[:, m] = _PSD_ROW
    r0, r1, r2 = rows[:, :m, 0], rows[:, :m, 1], rows[:, :m, 2]
    # -grad s_i = u1 r1 + u2 r2 - r0 for u = B a_i / |B a_i|, and the Hessian
    # of |B a_i| is t_i t_i^T / |B a_i| for t_i = u1 r2 - u2 r1
    first = np.concatenate([r1, r2], axis=2)
    second = np.concatenate([r2, -r1], axis=2)
    last = np.concatenate([r0, np.zeros_like(r0)], axis=2)
    rows = rows.reshape(K, 3 * (m + 1), 5).transpose(0, 2, 1)
    offset = np.zeros((K, m + 1, 3))
    offset[:, :m, 0] = b
    offset = offset.reshape(K, 1, 3 * (m + 1))

    def cones(x):
        """At x, (k, 1, 5): the cone rows Y = (y, v), |v| and s = y - |v|."""
        Y = (offset + np.matmul(x, rows)).reshape(len(x), m + 1, 3)
        n = np.hypot(Y[..., 1], Y[..., 2])
        return Y, n, Y[..., 0] - n

    # start: the disk of 0.99 times the least offset at the origin, and
    # lam_i s_i all equal with sum lam_i |B a_i| = 2, as at the optimum
    x = np.zeros((K, 1, 5))
    x[:, 0, 2] = x[:, 0, 4] = 0.99 * b.min(axis=1)
    Y, n, s = cones(x)
    lam = 1.0 / s[:, :m]
    lam *= 2.0 / (lam * n[:, :m]).sum(axis=1, keepdims=True)
    out = np.empty((K, 5)), np.empty((K, m)), np.empty(K), np.empty(K)
    live = np.arange(K)  # the problems still in the batch
    with np.errstate(divide="ignore", invalid="ignore"):
        for step in range(_FIT_STEPS + 1):
            ne, se = n[:, :m], s[:, :m]
            det = s * (Y[..., 0] + n)  # y^2 - |v|^2, which is det B on B's row
            u = Y[:, :m, 1:] / ne[..., None]
            GT = u[..., :1] * first + u[..., 1:] * second - last
            G, T = GT[..., :5], GT[..., 5:]
            Binv = np.matmul(x, _ADJ) / det[:, m:, None]  # row-major B^-1
            grad = np.matmul(lam[:, None, :], G) - np.matmul(Binv, _DB)
            ls = lam * se
            gap = ls.sum(axis=1)
            done = gap <= _FIT_GAP
            if done.any():
                res = np.abs(grad).max(axis=(1, 2))
                done &= res <= _FIT_RES
            if done.any():
                for o, v in zip(out, (x[:, 0], lam, gap, res)):
                    o[live[done]] = v[done]
                if done.all():
                    return out
                keep = ~done
                live = live[keep]
                rows, first, second, last, offset, x, lam, Y, n, s = (
                    v[keep] for v in (rows, first, second, last, offset, x, lam, Y, n, s))
                continue
            if step == _FIT_STEPS:
                raise NoConvergence(
                    f"John ellipse fit stopped after {_FIT_STEPS} steps at gap "
                    f"{gap.max():.3g} and residual {np.abs(grad).max():.3g}"
                )
            # H dx = rhs: the Lagrangian's Hessian plus the multipliers' part
            k = len(x)
            kron = (Binv.reshape(k, 2, 1, 2, 1) * Binv.reshape(k, 1, 2, 1, 2)).reshape(k, 4, 4)
            # the rows G_i, T_i of GT, weighted by (lam_i / s_i)^(1/2) and
            # (lam_i / |B a_i|)^(1/2)
            W = GT.reshape(k, 2 * m, 5) * np.sqrt(
                lam[..., None] / np.stack([se, ne], axis=2)).reshape(k, 2 * m, 1)
            H = np.matmul(W.transpose(0, 2, 1), W) + _DB.T @ kron @ _DB
            # the step for targets t_i is dx = -H^-1 (grad + sum t_i g_i / s_i):
            # one solve gives H^-1 grad and every H^-1 g_i / s_i.  H is
            # solved, not inverted: with an inverse the dual residual grows
            # as lam_i / s_i does, to 1e-6 where a solve keeps it below 1e-10
            Gt = G.transpose(0, 2, 1)
            Z = np.concatenate([grad.transpose(0, 2, 1), Gt / se[:, None, :]], axis=2)
            Z = -np.linalg.solve(H, Z).transpose(0, 2, 1)
            Z0, Z1, Gt = Z[:, :1], Z[:, 1:], -Gt

            def direction(target):
                """Newton step that moves every lam_i s_i by target_i."""
                dx = Z0 + np.matmul(target[:, None, :], Z1)
                ds = np.matmul(dx, Gt)[:, 0]
                return dx, ds, (target - lam * ds) / se

            # predictor: the affine step, lam and s linearised; dl = -lam (1 + q)
            dx, ds, dl = direction(-ls)
            q = ds / se
            al = 1.0 / np.maximum(np.maximum(q + 1.0, -q).max(axis=1), 1.0)
            aq = al[:, None] * q
            sigma = ((ls * ((1.0 - al)[:, None] - aq) * (1.0 + aq)).sum(axis=1) / gap) ** 3
            curve = cones(x + dx)[2][:, :m] - se - ds
            dx, ds, dl = direction((sigma * gap / m)[:, None] - ls - dl * ds - lam * curve)
            # the longest step is 1 / beta for the largest root beta of
            # det(u) beta^2 + 2 <u, du> beta + det(du), det(u) = y^2 - |v|^2
            D = np.matmul(dx, rows).reshape(k, m + 1, 3)
            DL = D * _LORENTZ
            bq = (Y * DL).sum(axis=2)
            dq = (D * DL).sum(axis=2)
            sq = np.sqrt(np.maximum(bq * bq - det * dq, 0.0))
            beta = np.where(bq > 0, -dq / (sq + bq), (sq - bq) / det)
            worst = np.maximum(beta.max(axis=1), (-dl / lam).max(axis=1))
            al = (0.999 / np.maximum(worst, 0.999))[:, None]
            x = x + al[:, None] * dx
            lam = lam + al * dl
            Y, n, s = cones(x)


def eccentricity(fit: EllipsoidFit) -> float:
    """Operator norm of the unimodular normalization A."""
    return float(np.linalg.eigvalsh(fit.normalized).max())


def caffarelli_radius(t: float, mass: float) -> float:
    """Balance radius r = t / sqrt(section mass)."""
    if not mass > 0:
        raise DivideByZeroMass("section mass must be positive")
    return float(t) / np.sqrt(mass)


def balance_check(section: Section, fit: EllipsoidFit, r: float) -> float:
    """Measured balance constant k0 with A^(-1) B_(r/k0) inside the recentred
    section and the section inside A(B_(k0 r))."""
    A = fit.normalized
    Ainv = np.linalg.inv(A)
    w = (section.polygon - section.base_point) @ Ainv.T
    outer = float(np.hypot(w[:, 0], w[:, 1]).max()) / r
    # inner radius: distance from the origin to each edge line
    a = w
    bshift = np.roll(w, -1, axis=0)
    e = bshift - a
    elen = np.hypot(e[:, 0], e[:, 1])
    ok = elen > 0
    cross = np.abs(a[ok, 0] * bshift[ok, 1] - a[ok, 1] * bshift[ok, 0])
    dist = cross / elen[ok]
    inner = r / float(dist.min())
    return max(outer, inner)


def section_balance(v, density, x0, p, t):
    """Convenience pipeline: section -> John fit -> balance constant.

    Returns (section, fit) with the fit's ``r`` and ``k0`` fields filled.
    """
    sec = extract_section(v, x0, p, t)
    fit = john_ellipses([sec.polygon])[0]
    mass = sec.mass(density)
    r = caffarelli_radius(t, mass)
    k0 = balance_check(sec, fit, r)
    return sec, replace(fit, r=r, k0=k0)


_BLOCK = 1024  # ellipses tested and evaluated per batch of doubling_constant


def doubling_constant(f, region: Domain2D, n_samples: int, rng_seed: int) -> float:
    """Estimated doubling constant sup mu(E)/mu(E/2) over random ellipses in
    the region; mu = f dx by a degree-7 disk rule mapped through each ellipse.

    Centers are uniform in the region, semi-axes log-uniform in
    [1e-2, diam/4], orientations uniform; ellipses not contained in the
    region are rejected.  Raises DomainTooSmall, before it draws anything,
    when that interval is empty, and when 200 * n_samples proposals leave
    fewer than n_samples ellipses.  Deterministic for a fixed seed, and the
    estimate is monotone in n_samples for a common seed prefix.

    A proposal reads two doubles of the generator for its center and, when
    the center is in the region, three more for its semi-axes and angle.
    The doubles are drawn in blocks and the proposals walked over them, so
    the draws are those of one proposal at a time.  ``f`` is called on
    batches of points: the 48 rule points of up to 1024 ellipses at once.
    One matmul maps the disk rule through the m ellipses of a batch; the
    points c + full and c + 0.5 full are then written one coordinate at a
    time into one (2, m, 24, 2) array, the sums of a broadcast add, so the
    same bits without a stacked temporary.
    """
    if n_samples < 100:
        raise ValueError("need at least 100 samples")
    if region.diameter / 4.0 < 1e-2:
        raise DomainTooSmall(f"the semi-axes' interval [1e-2, diam/4] = [0.01, "
                             f"{region.diameter / 4.0:.3g}] is empty")
    rng = np.random.default_rng(rng_seed)
    lo, hi = region.bbox()
    la, lb = float(np.log(1e-2)), float(np.log(region.diameter / 4.0))
    pts, wts = disk_rule()
    best = 0.0
    accepted = 0
    proposals = 0
    budget = 200 * n_samples
    u = np.empty(0)
    while accepted < n_samples:
        if proposals >= budget:
            raise DomainTooSmall("ellipse sampler rejection rate too high")
        u = np.concatenate([u, rng.random(5 * _BLOCK)])
        centers = lo + np.stack([u[:-1], u[1:]], axis=1) * (hi - lo)
        inside = region.contains(centers).tolist()
        # walk the proposals: 5 doubles for a center in the region, else 2
        starts = []
        i, end = 0, len(u) - 4
        while i < end and proposals < budget and len(starts) < _BLOCK:
            proposals += 1
            if inside[i]:
                starts.append(i)
                i += 5
            else:
                i += 2
        st = np.asarray(starts, dtype=np.intp)
        T = _ellipse_maps(u[st + 2], u[st + 3], u[st + 4], la, lb)
        ok = _ellipses_inside(region, centers[st], T)
        st, T = st[ok][: n_samples - accepted], T[ok][: n_samples - accepted]
        accepted += len(st)
        u = u[i:]
        if not len(st):
            continue
        full = np.matmul(pts, T.transpose(0, 2, 1))  # (m, 24, 2)
        x = np.empty((2,) + full.shape)
        for k, ck in enumerate(centers[st].T):
            np.add(ck[:, None], full[:, :, k], out=x[0, :, :, k])
            np.multiply(full[:, :, k], 0.5, out=x[1, :, :, k])
            x[1, :, :, k] += ck[:, None]
        vals = np.asarray(f(x.reshape(-1, 2)), dtype=float).reshape(2, len(st), 1, len(wts))
        # a stack of (1, 24) @ (24, 1) products: one dot per ellipse, as wts @ v
        mu = np.matmul(vals, wts[:, None])[:, :, 0, 0]
        mu_full, mu_half = mu[0], 0.25 * mu[1]
        pos = mu_half > 0
        with np.errstate(over="ignore", invalid="ignore"):  # as float division
            ratio = mu_full[pos] / mu_half[pos]
        ratio = ratio[~np.isnan(ratio)]
        if ratio.size:
            best = max(best, float(ratio.max()))
    return 4.0 if best == 0.0 else best


def _ellipse_maps(u0, u1, u2, la, lb) -> np.ndarray:
    """Maps T = rotation(phi) @ diag(s), (m, 2, 2), of the ellipses drawn from
    uniform doubles: s_k = exp(la + (lb - la) * u_k) and phi = pi * u2, as
    ``Generator.uniform`` forms them."""
    s0 = np.exp(la + (lb - la) * u0)
    s1 = np.exp(la + (lb - la) * u1)
    phi = np.pi * u2
    cph, sph = np.cos(phi), np.sin(phi)
    return np.stack([cph * s0, -sph * s1, sph * s0, cph * s1], axis=1).reshape(-1, 2, 2)


def _ellipses_inside(region: Domain2D, centers, T) -> np.ndarray:
    """Per ellipse center + T(unit disk), whether it lies in the region, a
    disk or a square."""
    if region.kind == "disk":
        # T = rotation @ diag(s) has orthogonal columns: |T|_2 is the larger column norm
        smax = np.maximum(np.hypot(T[:, 0, 0], T[:, 1, 0]), np.hypot(T[:, 0, 1], T[:, 1, 1]))
        return np.hypot(centers[:, 0], centers[:, 1]) + smax <= region.size
    # support of the ellipse in the axis directions: row norms of T
    ext = np.hypot(T[:, :, 0], T[:, :, 1])
    return np.all(np.abs(centers) + ext <= region.size, axis=1)


def sublevel_compactness(v: GridFunction, levels) -> list:
    """Per-level verdicts: does {v <= level} stay 2h clear of the boundary?"""
    out = []
    x0 = v.nodes[v.argmin_node()]
    vmin = float(v.values.min())
    for lvl in np.atleast_1d(np.asarray(levels, dtype=float)):
        t = float(lvl) - vmin
        if t <= 0:
            out.append(False)
            continue
        try:
            sec = extract_section(v, x0, np.zeros(2), t)
        except SectionNotCompact:
            out.append(False)
            continue
        margin = v.domain.boundary_distance(sec.polygon)
        out.append(bool(np.min(margin) >= 2.0 * v.h))
    return out
