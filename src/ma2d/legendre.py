"""Discrete Legendre-Fenchel conjugation over sampled node sets.

The conjugate is taken over the finite node set itself, which makes the
Fenchel-Young inequality exact.  The fast path factors the 2D supremum into
one-dimensional sweeps: first along every primal lattice row for every dual
slope y1, then along every dual column over the rows' partial maxima.  Each
stage treats all its rows at once: the lower hulls of the rows are built in
lockstep (``_lower_hulls``), and each (row, slope) query takes the first
hull vertex where the supporting line stops rising, by the linear-time sweep
of Lucet (Numer. Algorithms 1997) over ascending slopes, all rows' pointers
in lockstep (``_row_argmax``); first maximum on ties.  Every winning
node is then re-evaluated with the same floating-point expression as the
brute-force path.  When the two paths agree on the maximiser their values
agree bit for bit.  They agree whenever no two nodes tie within rounding.
They also agree when every product and sum is exact, as on dyadic lattices
with dyadic values.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput
from .geometry import max_affine, spans_plane
from .grid import Domain2D, GridFunction, sample


@dataclass(frozen=True)
class ConjugateResult:
    dual: GridFunction
    argmax: np.ndarray  # per dual node, index of the primal node attaining the sup


def _conjugate_values(y: np.ndarray, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Canonical evaluation y.x - u used by both paths (fixed operation order)."""
    return y[0] * x[:, 0] + y[1] * x[:, 1] - u


def legendre_transform_brute(u: GridFunction, dual_domain: Domain2D, h_dual: float) -> ConjugateResult:
    """O(N*M) reference conjugate; ties broken by smallest primal index."""
    _require_full_rank(u)
    dual = sample(lambda p: np.zeros(len(p)), dual_domain, h_dual)
    vals = np.empty(len(dual))
    arg = np.empty(len(dual), dtype=np.int64)
    for j, y in enumerate(dual.nodes):
        cand = _conjugate_values(y, u.nodes, u.values)
        arg[j] = int(np.argmax(cand))  # first maximum = smallest index
        vals[j] = cand[arg[j]]
    out = GridFunction(domain=dual.domain, h=dual.h, nodes=dual.nodes, values=vals)
    return ConjugateResult(dual=out, argmax=arg)


def _lower_hulls(x: np.ndarray, u: np.ndarray, n: np.ndarray):
    """Lower hulls of all rows at once.  Row r holds the points
    (x[r, i], u[r, i]) for i < n[r], x strictly increasing along it; ``x``
    may also be one row shared by all.

    Andrew's monotone chain on every row in lockstep: one stack per row, all
    pushed at the same step i; each pass of the pop loop drops, on every row
    at once, a top vertex b that lies on or above the segment from the vertex
    a below it to point i.  Returns ``(stack, top)``: row r's hull is
    ``stack[r, :top[r]]``, as positions along the row.
    """
    rows, width = u.shape
    # longest rows first, so the rows still open at step i are a prefix
    order = np.argsort(-n, kind="stable")
    xs = np.broadcast_to(x, u.shape)[order].ravel()
    us = u[order].ravel()
    n_open = np.searchsorted(-n[order], -np.arange(width), side="left")
    base = np.arange(rows) * width
    stack = np.repeat(base, width)  # flat indices into xs, us; unused slots at 0
    top = np.zeros(rows, dtype=np.intp)
    for i in range(width):
        m = n_open[i]
        live = np.flatnonzero(top[:m] >= 2)
        while live.size:
            at = base[live] + top[live]
            a, b, c = stack[at - 2], stack[at - 1], base[live] + i
            xa, ua = xs[a], us[a]
            drop = (us[b] - ua) * (xs[c] - xa) >= (us[c] - ua) * (xs[b] - xa)
            live = live[drop]
            top[live] -= 1
            live = live[top[live] >= 2]
        stack[base[:m] + top[:m]] = base[:m] + i
        top[:m] += 1
    back = np.empty_like(order)
    back[order] = np.arange(rows)
    stack = stack.reshape(rows, width) - base[:, None]
    return stack[back], top[back]


def _row_argmax(x: np.ndarray, u: np.ndarray, n: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """Per row r and slope s = slopes[r, j], the position i < n[r] along row r
    that maximises s * x[r, i] - u[r, i], the first such i on ties; rows as
    in ``_lower_hulls``, ``slopes`` of shape (rows, m) or (1, m), ascending.

    Along row r's hull, with edges (dx_k, du_k) and dx_k > 0, the answer is
    the first vertex k with not s * dx_k > du_k, or the last vertex when the
    test holds on every edge.  A rounded product is monotone in s, so Lucet's
    linear-time sweep (Numer. Algorithms 1997) finds it: each row's pointer
    resumes where the previous slope stopped and advances while the test
    holds, all rows in lockstep.
    """
    stack, top = _lower_hulls(x, u, n)
    hx = np.take_along_axis(np.broadcast_to(x, u.shape), stack, axis=1)
    hu = np.take_along_axis(u, stack, axis=1)
    # edge k joins hull vertices k and k + 1; at and past the last vertex the
    # test fails (s * 0 > inf is false, also for infinite or NaN s)
    rows, width = u.shape
    edge = np.arange(width - 1) < top[:, None] - 1
    dx = np.zeros(u.shape)
    du = np.full(u.shape, np.inf)
    dx[:, :-1][edge] = (hx[:, 1:] - hx[:, :-1])[edge]
    du[:, :-1][edge] = (hu[:, 1:] - hu[:, :-1])[edge]
    dx, du = dx.ravel(), du.ravel()
    at = np.arange(rows) * width  # each row's pointer, a flat index into dx, du
    k = np.empty((slopes.shape[1], rows), dtype=np.intp)
    for j, s in enumerate(np.broadcast_to(slopes, (rows, slopes.shape[1])).T):
        live = np.arange(rows)
        while live.size:
            e = at[live]
            live = live[s[live] * dx[e] > du[e]]
            at[live] += 1
        k[j] = at
    return stack.ravel()[k.T]


def legendre_transform(
    u: GridFunction, dual_domain: Domain2D, h_dual: float, method: str = "fast"
) -> ConjugateResult:
    """Discrete conjugate u*(y) = max_i  y . x_i - u(x_i) on a dual lattice.

    ``method`` selects the separable row-sweep path ("fast") or the
    brute-force reference ("brute").  Both take the first maximum; they
    differ only where nodes tie within rounding (see the module docstring).
    """
    if method == "brute":
        return legendre_transform_brute(u, dual_domain, h_dual)
    _require_full_rank(u)
    dual = sample(lambda p: np.zeros(len(p)), dual_domain, h_dual)

    # nodes are lexicographic by (x2, x1): rows are contiguous, x1 ascending
    _, row_start, row_len = np.unique(
        u.lattice_indices[:, 1], return_index=True, return_counts=True
    )
    n_rows = len(row_start)
    row_y = u.nodes[row_start, 1]
    row_of = np.repeat(np.arange(n_rows), row_len)
    pos = np.arange(len(u)) - row_start[row_of]
    x1 = np.zeros((n_rows, row_len.max()))
    uu = np.zeros((n_rows, row_len.max()))
    x1[row_of, pos] = u.nodes[:, 0]
    uu[row_of, pos] = u.values

    y1_vals, y1_inv = np.unique(dual.nodes[:, 0], return_inverse=True)
    n_y1 = len(y1_vals)
    # stage 1: per primal row, 1D conjugate in x1 for every dual slope y1
    loc = _row_argmax(x1, uu, row_len, y1_vals[None, :])
    stage_arg = loc + row_start[:, None]
    stage_val = (
        y1_vals * np.take_along_axis(x1, loc, axis=1) - np.take_along_axis(uu, loc, axis=1)
    )

    # stage 2: per dual x1-column, 1D conjugate in x2 over the rows for the
    # column's slopes y2, from one split of the dual nodes by column (a short
    # column's tail repeats its last slope)
    order = np.argsort(y1_inv, kind="stable")
    col = y1_inv[order]
    j = np.arange(len(order)) - np.searchsorted(col, col)  # place in the column
    last = order[np.searchsorted(col, np.arange(n_y1), side="right") - 1]
    y2 = np.repeat(dual.nodes[last, 1][:, None], j.max() + 1, axis=1)
    y2[col, j] = dual.nodes[order, 1]
    rloc = _row_argmax(row_y, -stage_val.T, np.full(n_y1, n_rows), y2)
    arg = np.empty(len(dual), dtype=np.int64)
    arg[order] = stage_arg[rloc[col, j], col]
    # canonical re-evaluation: identical fp expression to the brute path
    vals = _conjugate_values(dual.nodes.T, u.nodes[arg], u.values[arg])
    out = GridFunction(domain=dual.domain, h=dual.h, nodes=dual.nodes, values=vals)
    return ConjugateResult(dual=out, argmax=arg)


def _require_full_rank(u: GridFunction) -> None:
    if not spans_plane(u.nodes):
        raise DegenerateInput("need at least 3 non-collinear primal nodes")


def default_dual_halfwidth(u: GridFunction, h_dual: float) -> float:
    """Dual half-width covering the subgradient image: max finite-difference
    slope of u plus one dual spacing."""
    a, b = u.lattice_edges.T
    best = float((np.abs(u.values[b] - u.values[a]) / u.h).max()) if len(a) else 0.0
    return best + h_dual


def biconjugate(u: GridFunction, h_dual: float) -> GridFunction:
    """(u*)* restricted to the primal nodes: the convex envelope of the samples.

    Values are clipped from above by u, and raw values within a few ulps of u
    snap to u exactly; this keeps both the envelope property and idempotence
    bitwise in floating point.
    """
    hw = default_dual_halfwidth(u, h_dual)
    star = legendre_transform(u, Domain2D.square(hw), h_dual)
    vals = max_affine(u.nodes, star.dual.nodes, -star.dual.values)
    scale = float(np.abs(u.values).max()) + hw * float(np.abs(u.nodes).max()) + 1.0
    snap = 32.0 * np.finfo(float).eps * scale
    vals = np.where(vals >= u.values - snap, u.values, vals)
    return GridFunction(domain=u.domain, h=u.h, nodes=u.nodes, values=vals)
