"""Discrete Legendre-Fenchel conjugation over sampled node sets.

The conjugate is taken over the finite node set itself, which makes the
Fenchel-Young inequality exact.  The fast path factors the 2D supremum into
one-dimensional sweeps along lattice rows (linear-time via the lower hull of
each row), then re-evaluates the winning node with the same floating-point
expression as the brute-force path so the two agree bitwise.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput
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


def _row_conjugate(x: np.ndarray, u: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """Indices (into x) of argmax_i slope * x_i - u_i for every sorted slope.

    x must be strictly increasing, slopes non-decreasing.  On slope ties with
    a hull edge, the left (smaller-x) vertex wins, matching first-argmax.
    """
    hull_idx = _lower_hull_indices(x, u)
    hx, hu = x[hull_idx], u[hull_idx]
    out = np.empty(len(slopes), dtype=np.int64)
    k = 0
    last = len(hull_idx) - 1
    for m, s in enumerate(slopes):
        # advance while the next hull vertex strictly improves
        while k < last and s * (hx[k + 1] - hx[k]) > hu[k + 1] - hu[k]:
            k += 1
        out[m] = hull_idx[k]
    return out


def _lower_hull_indices(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    idx = []
    for i in range(len(x)):
        while len(idx) >= 2:
            a, b = idx[-2], idx[-1]
            # drop b when it lies on or above segment a-i
            if (u[b] - u[a]) * (x[i] - x[a]) >= (u[i] - u[a]) * (x[b] - x[a]):
                idx.pop()
            else:
                break
        idx.append(i)
    return np.asarray(idx, dtype=np.int64)


def legendre_transform(
    u: GridFunction, dual_domain: Domain2D, h_dual: float, method: str = "fast"
) -> ConjugateResult:
    """Discrete conjugate u*(y) = max_i  y . x_i - u(x_i) on a dual lattice.

    ``method`` selects the separable row-sweep path ("fast") or the
    brute-force reference ("brute"); both produce identical values.
    """
    if method == "brute":
        return legendre_transform_brute(u, dual_domain, h_dual)
    _require_full_rank(u)
    dual = sample(lambda p: np.zeros(len(p)), dual_domain, h_dual)

    k = u.lattice_indices
    row_key = k[:, 1]
    rows, row_start = np.unique(row_key, return_index=True)
    # nodes are lexicographic by (x2, x1): rows are contiguous, x ascending
    row_slices = np.append(row_start, len(k))
    row_y = u.nodes[row_start, 1]

    kd = dual.lattice_indices
    y1_vals, y1_inv = np.unique(dual.nodes[:, 0], return_inverse=True)

    n_rows, n_y1 = len(rows), len(y1_vals)
    # stage 1: per primal row, 1D conjugate in x1 for every dual slope y1
    stage_val = np.empty((n_rows, n_y1))
    stage_arg = np.empty((n_rows, n_y1), dtype=np.int64)
    for r in range(n_rows):
        sl = slice(row_slices[r], row_slices[r + 1])
        x1 = u.nodes[sl, 0]
        uu = u.values[sl]
        loc = _row_conjugate(x1, uu, y1_vals)
        stage_arg[r] = loc + row_slices[r]
        stage_val[r] = y1_vals * x1[loc] - uu[loc]

    # stage 2: per dual x1-column, 1D conjugate in x2 over the rows
    vals = np.empty(len(dual))
    arg = np.empty(len(dual), dtype=np.int64)
    order = np.lexsort((dual.nodes[:, 1], y1_inv))
    start = 0
    while start < len(order):
        col = y1_inv[order[start]]
        end = start
        while end < len(order) and y1_inv[order[end]] == col:
            end += 1
        sel = order[start:end]
        y2 = dual.nodes[sel, 1]  # ascending within the column
        g = stage_val[:, col]
        rloc = _row_conjugate(row_y, -g, y2)
        arg[sel] = stage_arg[rloc, col]
        start = end
    # canonical re-evaluation: identical fp expression to the brute path
    for j in range(len(dual)):
        vals[j] = _conjugate_values(dual.nodes[j], u.nodes[arg[j] : arg[j] + 1], u.values[arg[j] : arg[j] + 1])[0]
    out = GridFunction(domain=dual.domain, h=dual.h, nodes=dual.nodes, values=vals)
    return ConjugateResult(dual=out, argmax=arg)


def _require_full_rank(u: GridFunction) -> None:
    """Raise DegenerateInput unless some three nodes are not collinear: some
    node must be off the line through the first node and one distinct from it."""
    x = u.nodes
    if len(x) >= 3:
        d = x - x[0]
        far = np.flatnonzero(np.any(d != 0.0, axis=1))
        if len(far) and np.any(d[far[0], 0] * d[:, 1] - d[far[0], 1] * d[:, 0] != 0.0):
            return
    raise DegenerateInput("need at least 3 non-collinear primal nodes")


def default_dual_halfwidth(u: GridFunction, h_dual: float) -> float:
    """Dual half-width covering the subgradient image: max finite-difference
    slope of u plus one dual spacing."""
    best = 0.0
    for off in ((1, 0), (0, 1)):
        nb = u.neighbor_ids(off)
        ok = nb >= 0
        if ok.any():
            d = np.abs(u.values[nb[ok]] - u.values[ok]) / u.h
            best = max(best, float(d.max()))
    return best + h_dual


def biconjugate(u: GridFunction, h_dual: float) -> GridFunction:
    """(u*)* restricted to the primal nodes: the convex envelope of the samples.

    Values are clipped from above by u, and raw values within a few ulps of u
    snap to u exactly; this keeps both the envelope property and idempotence
    bitwise in floating point.
    """
    hw = default_dual_halfwidth(u, h_dual)
    star = legendre_transform(u, Domain2D.square(hw), h_dual)
    y, w = star.dual.nodes, star.dual.values
    vals = np.empty(len(u))
    chunk = 2048
    for s in range(0, len(u), chunk):
        x = u.nodes[s : s + chunk]
        vals[s : s + chunk] = np.max(x @ y.T - w[None, :], axis=1)
    scale = float(np.abs(u.values).max()) + hw * float(np.abs(u.nodes).max()) + 1.0
    snap = 32.0 * np.finfo(float).eps * scale
    vals = np.where(vals >= u.values - snap, u.values, vals)
    return GridFunction(domain=u.domain, h=u.h, nodes=u.nodes, values=vals)
