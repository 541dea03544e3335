"""Sections of convex functions, John-ellipse normalization, balance radii,
doubling constants, and sub-level compactness.

A section S is the sub-level polygon {v <= v(x0) + p.(x - x0) + t}.  For
callable convex functions the boundary is traced along 512 equally spaced
rays from the base point, all rays at once: each step calls the function once
on an (m, 2) array holding every ray still open.  Radii are bracketed by
doubling from 1, with w(lo) <= 0 < w(hi) for the shifted function w, and the
root is then found by Chandrupatla's method on every ray, until the bracket
is no wider than 1e-13 + 1e-14 r or w is exactly 0; the vertex is the bracket
end of least |w|.  For grid samples the base point is a lattice node, and the
boundary is the marching-squares contour with linear interpolation along
lattice edges, all edges at once.

The John ellipse is fitted on an active set of the polygon's edges, since a
maximum-volume inscribed ellipse touches at most five of them.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegeneratePolygon,
    DivideByZeroMass,
    DomainTooSmall,
    NonfiniteValue,
    SectionNotCompact,
)
from .grid import Domain2D, GridFunction, lattice_coordinates
from .geometry import disk_rule, polygon_area, polygon_centroid, polygon_quadrature


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
    """Section polygon of v at height t above the supporting plane at x0.

    ``v`` may be a GridFunction (marching squares on lattice edges; x0 must
    be one of its nodes, else ValueError), a PLConvexFunction, or any
    callable of (N, 2) arrays.  A callable is traced along 512 rays by a
    batched bracket and root search (see the module docstring): 9 to 18
    calls of ``v`` for the oracles at t = 1 and 128, each on the rays still
    open, for radii to 1e-13 + 1e-14 r.  Raises SectionNotCompact when a
    ray's radius passes 1e9, naming the lowest-index such direction, and
    NonfiniteValue when ``v`` is NaN or infinite at a traced point.
    """
    if t <= 0:
        raise ValueError("section height t must be positive")
    x0 = np.asarray(x0, dtype=float)
    p = np.asarray(p, dtype=float)
    if isinstance(v, GridFunction):
        return _section_from_grid(v, x0, p, t)
    # PLConvexFunction instances evaluate as max-affine callables
    return _section_from_callable(v, x0, p, t)


_N_DIRS = 512  # rays traced around a callable's section
_XTOL, _RTOL = 1e-13, 1e-14  # a ray's bracket [x1, x2] closes at width _XTOL + _RTOL * max(x1, x2)
_R_MAX = 1e9  # a ray whose bracket passes this radius is unbounded


def _section_from_callable(fn, x0, p, t) -> Section:
    v0 = float(np.asarray(fn(x0[None, :]), dtype=float)[0])
    if not np.isfinite(v0):
        raise NonfiniteValue(f"function value {v0} at the base point is not finite")
    theta = 2 * np.pi * np.arange(_N_DIRS) / _N_DIRS
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)

    def w(rays, s):
        """Shifted function at radius s[i] along ray rays[i], one call of fn."""
        d = s[:, None] * dirs[rays]
        x = x0 + d
        vals = np.asarray(fn(x), dtype=float)
        out = vals - v0 - (d[:, 0] * p[0] + d[:, 1] * p[1]) - t
        bad = np.flatnonzero(~np.isfinite(out))
        if bad.size:
            k = rays[bad[0]]
            raise NonfiniteValue(
                f"function value is not finite along direction {theta[k]:.3f}"
                f" at radius {s[bad[0]]:.6g}"
            )
        return out

    # bracket: double hi on the rays where the shifted function is still <= 0,
    # keeping the values at both ends; w(0) = -t
    lo = np.zeros(_N_DIRS)
    hi = np.ones(_N_DIRS)
    wlo = np.full(_N_DIRS, -float(t))
    whi = np.empty(_N_DIRS)
    rays = np.arange(_N_DIRS)
    while True:
        vals = w(rays, hi[rays])
        up = vals <= 0.0
        whi[rays[~up]] = vals[~up]
        rays = rays[up]
        if not rays.size:
            break
        lo[rays], wlo[rays] = hi[rays], vals[up]
        hi[rays] *= 2.0
        # every open ray has the same hi, so the bound trips for all at once
        if hi[rays[0]] > _R_MAX:
            raise SectionNotCompact(
                f"level set is unbounded along direction {theta[rays[0]]:.3f}"
            )
    root = _chandrupatla(w, lo, wlo, hi, whi)
    verts = x0 + root[:, None] * dirs
    return Section(base_point=x0, slope=p, height=float(t), polygon=verts)


def _chandrupatla(w, a, fa, b, fb) -> np.ndarray:
    """Root of w on every ray from its bracket [a, b], fa = w(a) <= 0 < w(b) = fb.

    Chandrupatla's hybrid of inverse quadratic interpolation and bisection
    (Adv. Eng. Softw. 28, 1997), run on all rays at once: each step calls
    ``w(rays, s)`` once on the rays still open.  Per ray, x1 is the latest
    point, x2 the bracket's other end and x3 the point last dropped from the
    bracket; the next point is x1 + t (x2 - x1), with t from the quadratic
    through the three points where it is monotone in the bracket and 1/2
    otherwise, kept tol/2 clear of both ends.  A ray stops when its bracket
    is no wider than tol = _XTOL + _RTOL * max(x1, x2), or when w is exactly
    0 at x1.  Its root is the bracket end of least |w|: the zero where one
    was found, and within tol of the root in any case.
    """
    x1, f1, x2, f2 = a.copy(), fa.copy(), b.copy(), fb.copy()
    x3, f3 = np.empty_like(x1), np.empty_like(x1)
    t = np.full(len(x1), 0.5)
    rays = np.arange(len(x1))
    while True:
        dx = np.abs(x2[rays] - x1[rays])
        tol = _XTOL + _RTOL * np.maximum(x1[rays], x2[rays])
        open_ = (dx > tol) & (f1[rays] != 0.0)
        rays, dx, tol = rays[open_], dx[open_], tol[open_]
        if not rays.size:
            break
        tl = 0.5 * tol / dx
        s = x1[rays] + np.clip(t[rays], tl, 1.0 - tl) * (x2[rays] - x1[rays])
        fs = w(rays, s)
        # the bracket keeps x2 where w(s) has w(x1)'s sign, else it keeps x1
        flip = np.sign(fs) != np.sign(f1[rays])
        keep, swap = rays[~flip], rays[flip]
        x3[keep], f3[keep] = x1[keep], f1[keep]
        x3[swap], f3[swap] = x2[swap], f2[swap]
        x2[swap], f2[swap] = x1[swap], f1[swap]
        x1[rays], f1[rays] = s, fs
        r1, r2, r3 = x1[rays], x2[rays], x3[rays]
        g1, g2, g3 = f1[rays], f2[rays], f3[rays]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            xi = (r1 - r2) / (r3 - r2)
            phi = (g1 - g2) / (g3 - g2)
            quad = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
            t[rays] = np.where(
                quad,
                g1 / (g2 - g1) * g3 / (g2 - g3)
                + (r3 - r1) / (r2 - r1) * g1 / (g3 - g1) * g2 / (g3 - g2),
                0.5,
            )
    return np.where(np.abs(f1) <= np.abs(f2), x1, x2)


def _section_from_grid(gf: GridFunction, x0, p, t) -> Section:
    v0 = _grid_value_at(gf, x0)
    w = gf.values - v0 - (gf.nodes - x0) @ p - t
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


def john_ellipsoid(polygon) -> EllipsoidFit:
    """Maximum-volume inscribed ellipse of a convex polygon.

    Solves max log det B over ellipses c + B(unit disk) subject to the edge
    constraints a_i . c + |B a_i| <= b_i (B symmetric positive definite via
    its Cholesky parameters); SLSQP with analytic gradients.

    The optimum touches at most five edges (John, 1948), so SLSQP runs on an
    active set of edges: every (m // 32)-th of the m edges and the 8 nearest
    the centroid, which is every edge when m < 64.  After each solve the
    slack of all m edges is evaluated; the edges violated by more than
    1e-12 max |b_i| join the set and the problem is solved again from the last
    optimum.  Each subset problem is a relaxation of the full one, so an
    optimum that satisfies every edge is the full problem's optimum, and the
    loop ends since the set grows on every round but the last.
    """
    from scipy import optimize

    poly = np.asarray(polygon, dtype=float)
    poly = poly[np.r_[True, np.any(np.diff(poly, axis=0) != 0, axis=1)]]
    if polygon_area(poly) < 1e-14:
        raise DegeneratePolygon("polygon area below 1e-14")
    edges = np.roll(poly, -1, axis=0) - poly
    normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1)
    lens = np.hypot(normals[:, 0], normals[:, 1])
    ok = lens > 0
    normals = normals[ok] / lens[ok, None]
    b = np.sum(normals * poly[ok], axis=1)

    c0 = polygon_centroid(poly)
    dist = b - normals @ c0
    rad0 = float(np.min(dist))
    if rad0 <= 0:
        raise DegeneratePolygon("polygon is not star-shaped around its centroid")
    x0 = np.array([c0[0], c0[1], 0.5 * rad0, 0.0, 0.5 * rad0])

    def unpack(z):
        c = z[:2]
        L = np.array([[z[2], 0.0], [z[3], z[4]]])
        return c, L

    def fun(z):
        return -(np.log(z[2]) + np.log(z[4]))

    def jac(z):
        g = np.zeros(5)
        g[2] = -1.0 / z[2]
        g[4] = -1.0 / z[4]
        return g

    def cons_f(z, normals, b):
        c, L = unpack(z)
        Ba = (L @ L.T) @ normals.T
        return b - normals @ c - np.hypot(Ba[0], Ba[1])

    def cons_j(z, normals, b):
        c, L = unpack(z)
        B = L @ L.T
        Ba = (B @ normals.T).T  # (m, 2)
        norm = np.hypot(Ba[:, 0], Ba[:, 1])
        norm = np.where(norm > 0, norm, 1.0)
        u = Ba / norm[:, None]
        m = len(normals)
        J = np.zeros((m, 5))
        J[:, 0] = -normals[:, 0]
        J[:, 1] = -normals[:, 1]
        # dB/dl11 = [[2 l11, l21], [l21, 0]], dB/dl21 = [[0, l11], [l11, 2 l21]],
        # dB/dl22 = [[0, 0], [0, 2 l22]]
        l11, l21, l22 = z[2], z[3], z[4]
        a1, a2 = normals[:, 0], normals[:, 1]
        d11 = np.stack([2 * l11 * a1 + l21 * a2, l21 * a1], axis=1)
        d21 = np.stack([l11 * a2, l11 * a1 + 2 * l21 * a2], axis=1)
        d22 = np.stack([np.zeros(m), 2 * l22 * a2], axis=1)
        J[:, 2] = -np.sum(u * d11, axis=1)
        J[:, 3] = -np.sum(u * d21, axis=1)
        J[:, 4] = -np.sum(u * d22, axis=1)
        return J

    active = np.zeros(len(b), dtype=bool)
    active[:: max(1, len(b) // 32)] = True
    active[np.argsort(dist, kind="stable")[:8]] = True
    z = x0
    while True:
        res = optimize.minimize(
            fun,
            z,
            jac=jac,
            method="SLSQP",
            constraints=[{"type": "ineq", "fun": cons_f, "jac": cons_j,
                          "args": (normals[active], b[active])}],
            bounds=[(None, None), (None, None), (1e-12, None), (None, None), (1e-12, None)],
            options={"maxiter": 400, "ftol": 1e-12},
        )
        z = res.x
        added = ~active & (cons_f(z, normals, b) < -1e-12 * np.abs(b).max())
        if not added.any():
            break
        active |= added
    c, L = unpack(z)
    B = L @ L.T
    S = B @ B.T  # ellipse covariance: x = c + B u, so (x-c)^T (B B^T)^-1 (x-c) <= 1
    M = np.linalg.inv(S)
    M = 0.5 * (M + M.T)
    evals, evecs = np.linalg.eigh(S)
    evals = np.maximum(evals, 1e-300)
    sqrtS = (evecs * np.sqrt(evals)) @ evecs.T
    detS = float(evals[0] * evals[1])
    A = sqrtS / detS**0.25
    return EllipsoidFit(
        center=c,
        shape_matrix=M,
        normalized=A,
        scale=detS**0.25,
    )


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
    fit = john_ellipsoid(sec.polygon)
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
    region are rejected.  Raises DomainTooSmall when 200 * n_samples
    proposals leave fewer than n_samples ellipses.  Deterministic for a fixed
    seed, and the estimate is monotone in n_samples for a common seed prefix.

    A proposal reads two doubles of the generator for its center and, when
    the center is in the region, three more for its semi-axes and angle.
    The doubles are drawn in blocks and the proposals walked over them, so
    the draws are those of one proposal at a time.  ``f`` is called on
    batches of points: the 48 rule points of up to 1024 ellipses at once.
    """
    if n_samples < 100:
        raise ValueError("need at least 100 samples")
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
        x = centers[st][:, None, :] + np.stack([full, 0.5 * full])
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
