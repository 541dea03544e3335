"""Discrete Legendre-Fenchel conjugation over sampled node sets.

The conjugate is taken over the finite node set itself, which makes the
Fenchel-Young inequality exact.  The fast path factors the 2D supremum into
one-dimensional sweeps: first along every primal lattice row for every dual
slope y1, then along every dual column over the rows' partial maxima.  Each
stage treats all its rows at once, as ragged rows of one flat array.

``_lower_hulls`` builds every row's lower hull by Andrew's monotone chain.
Each step pushes its point, so unless step c - 1 popped, the two top
vertices at step c are c - 2 and c - 1 and its first pop test is the fixed
triple (c - 2, c - 1, c).  One vectorised pass tests every triple, and a
step whose triple keeps its middle point, after a step that did not pop,
only pushes.  The pop loop visits the other steps alone, one per row and
round, all rows in lockstep.

``_row_argmax`` answers each (row, slope) query with the first hull vertex
where the supporting line stops rising, the answer of the linear-time
pointer sweep of Lucet (Numer. Algorithms 1997) over ascending slopes;
first maximum on ties.  It takes every answer from one ``searchsorted`` of
the slope among the edges' du/dx and then certifies it with the sweep's own
test: the guesses do not decrease along the slopes, the edge at each guess
fails, and each edge between one slope's guess and the next slope's rises
for the next slope.  Then, slope by slope, the pointer passes exactly those
edges and stops at the guess.  Only a row whose certificate fails is swept.

Both tests are one function each, ``_drops`` and ``_rises``, on every path.
Every winning node is then re-evaluated with the same floating-point
expression as the brute-force path.  When the two paths agree on the
maximiser their values agree bit for bit.  They agree whenever no two nodes
tie within rounding.  They also agree when every product and sum is exact,
as on dyadic lattices with dyadic values.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput
from .geometry import orientation, spans_plane
from .grid import Domain2D, GridFunction, lattice_coordinates, sample


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


def _drops(dxb, dub, dxc, duc):
    """The monotone chain's pop test: whether b, between a and c in x, lies
    on or above the chord from a to c, given b - a = (dxb, dub) and
    c - a = (dxc, duc)."""
    return dub * dxc >= duc * dxb


def _rises(s, dx, du):
    """The sweep's test: whether s * x - u rises along an edge that moves by
    (dx, du)."""
    return s * dx > du


def _lower_hulls(x: np.ndarray, u: np.ndarray, start: np.ndarray):
    """Lower hulls of ragged rows: row r holds the points (x[i], u[i]) for
    start[r] <= i < start[r + 1], x strictly increasing along it, and no row
    is empty.  Returns the mask of the points on their row's hull, and the
    steps dx[i] = x[i + 1] - x[i] and du[i] = u[i + 1] - u[i] that its pass
    tests (the last entry is left unset).

    The chain pops, at step c, each top vertex b that ``_drops`` from the
    vertex a below it to c.  The pass tests every triple (c - 2, c - 1, c);
    a step whose triple drops pops at least once if step c - 1 did not pop.
    ``prev``, the vertex below each point, starts out as if no step popped.
    Each round of the loop takes every open row's next popping step, pops
    its known first vertex, pops on while the test holds, and then tests the
    step after it, whose first triple is known only now.  If that pops too,
    it is the row's next popping step; else the next is the row's next
    dropping triple, since every step between them only pushes.
    """
    n_pts = len(u)
    dx, du = np.empty(n_pts), np.empty(n_pts)
    np.subtract(x[1:], x[:-1], out=dx[:-1])
    np.subtract(u[1:], u[:-1], out=du[:-1])
    drop = np.zeros(n_pts, dtype=bool)
    drop[2:] = _drops(dx[:-2], du[:-2], x[2:] - x[:-2], u[2:] - u[:-2])
    young = np.concatenate([start[:-1], start[:-1] + 1])  # no triple ends there
    drop[young[young < n_pts]] = False
    events = np.flatnonzero(drop)
    hull = np.ones(n_pts, dtype=bool)
    prev = np.arange(-1, n_pts - 1)
    prev[start[:-1]] = -1

    def drops(a, b, c):
        xa, ua = x[a], u[a]
        return _drops(x[b] - xa, u[b] - ua, x[c] - xa, u[c] - ua)

    row_end = start[np.searchsorted(start, events, side="right")]
    lead = np.ones(events.size, dtype=bool)
    lead[1:] = row_end[1:] != row_end[:-1]
    c, end = events[lead], row_end[lead]  # each row's first popping step
    while c.size:
        hull[c - 1] = False
        b = prev[c - 1]
        live = np.arange(c.size)
        while live.size:
            bl = b[live]
            a = prev[bl]
            pop = (a >= 0) & drops(a, bl, c[live])
            live = live[pop]
            hull[bl[pop]] = False
            b[live] = a[pop]
        prev[c] = b
        again = (c + 1 < end) & drops(b, c, np.minimum(c + 1, n_pts - 1))
        e = np.searchsorted(events, c + 2)
        nxt = events[np.minimum(e, events.size - 1)]
        more = again | ((e < events.size) & (nxt < end))
        c, end = np.where(again, c + 1, nxt)[more], end[more]
    return hull, dx, du


def _row_argmax(x: np.ndarray, u: np.ndarray, start: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """Per row r and slope s = slopes[r, j], the index i of the point of row
    r (rows as in ``_lower_hulls``) that maximises s * x[i] - u[i], the
    first such i on ties; ``slopes`` of shape (rows, m) or (1, m), ascending.

    The answer is the row's first hull vertex whose edge to the next does
    not ``_rises``, or its last point.  Lucet's sweep finds it: the pointer
    resumes where the previous slope stopped and advances while the edge
    rises.  Here the pointer steps along all points, and at a point off the
    hull reads the hull edge over it, which it passes whole or not at all.

    The guess g_j is the row's first point whose edge has du/dx >= s_j.  It
    is the sweep's answer for every j when (a) g does not decrease in j, from
    the row's first point; (b) the edge at g_j fails for s_j; and (c) every
    edge from g_(j-1) to g_j - 1 rises for s_j: by induction on j the pointer
    passes those edges and stops at g_j.  A row that fails any part is
    swept, all such rows in lockstep.  Returns indices into x and u.
    """
    rows, m = len(start) - 1, slopes.shape[1]
    head, tail = start[:-1], start[1:] - 1
    hull, dx, du = _lower_hulls(x, u, start)
    # the edge over point i runs from the last hull vertex a <= i to the
    # first b > i: it is step i but next to points off the hull, and there
    # is none at a row's last point, where s * 0 > inf fails for every s
    off = np.flatnonzero(~hull)
    first = np.ones(off.size, dtype=bool)
    first[1:] = off[1:] != off[:-1] + 1
    last = np.ones(off.size, dtype=bool)
    last[:-1] = first[1:]
    a, b = off[first] - 1, off[last] + 1  # the hull vertices around each run
    at, to = np.repeat(a, b - a), np.repeat(b, b - a)
    over = at + np.arange(at.size) - np.repeat(np.cumsum(b - a) - (b - a), b - a)
    dx[over], du[over] = x[to] - x[at], u[to] - u[at]
    dx[tail], du[tail] = 0.0, np.inf

    s = np.broadcast_to(slopes, (rows, m))
    with np.errstate(divide="ignore", invalid="ignore"):
        q = du / dx
    bounds = start.tolist()
    g = np.array([np.searchsorted(q[lo:hi], sr) for lo, hi, sr in zip(bounds, bounds[1:], s)])
    g = np.minimum(g.reshape(rows, m) + head[:, None], tail[:, None])
    # (a), and the runs of edges each slope's pointer passes by (c), with
    # the row's rest after the last guess, which no test asks to rise
    run = np.diff(g, axis=1, prepend=head[:, None], append=start[1:, None])
    ok = (run >= 0).all(axis=1)
    run[~ok] = 0
    run[~ok, m] = (tail - head + 1)[~ok]
    s_run = np.empty((rows, m + 1))
    s_run[:, :m], s_run[:, m] = s, np.inf
    with np.errstate(invalid="ignore"):
        ok &= ~_rises(s, dx[g], du[g]).any(axis=1)  # (b)
        miss = np.flatnonzero(~_rises(np.repeat(s_run.ravel(), run.ravel()), dx, du))
    miss_row = np.searchsorted(start, miss, side="right") - 1
    ok[miss_row[miss < g[miss_row, -1]]] = False  # (c)
    bad = np.flatnonzero(~ok)
    if bad.size:
        at = head[bad]
        with np.errstate(invalid="ignore"):
            for j in range(m):
                live = np.arange(bad.size)
                while live.size:
                    p = at[live]
                    live = live[_rises(s[bad[live], j], dx[p], du[p])]
                    at[live] += 1
                g[bad, j] = at
    return g


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

    # nodes are in lattice order, (k2, k1): a row starts where k2 changes,
    # and x2 changes there too, so only those nodes need their k2, rounded
    # as ``lattice_indices`` rounds it (a stored node may lie off the
    # lattice by up to 1e-9 h, so its x2 can change within a row)
    x2 = u.nodes[:, 1]
    step = np.flatnonzero(x2[1:] != x2[:-1]) + 1
    k2 = np.rint(lattice_coordinates(np.concatenate([x2[step - 1], x2[step]]), u.h))
    start = np.concatenate([[0], step[k2[: step.size] != k2[step.size :]], [len(u)]])
    n_rows = len(start) - 1
    x1 = np.ascontiguousarray(u.nodes[:, 0])

    y1_vals, y1_inv = np.unique(dual.nodes[:, 0], return_inverse=True)
    n_y1 = len(y1_vals)
    # stage 1: per primal row, 1D conjugate in x1 for every dual slope y1
    stage_arg = _row_argmax(x1, u.values, start, y1_vals[None, :])
    stage_val = y1_vals * x1[stage_arg] - u.values[stage_arg]

    # stage 2: per dual x1-column, 1D conjugate in x2 over the rows for the
    # column's slopes y2, from one split of the dual nodes by column (a short
    # column's tail repeats its last slope)
    order = np.argsort(y1_inv, kind="stable")
    col = y1_inv[order]
    j = np.arange(len(order)) - np.searchsorted(col, col)  # place in the column
    last = order[np.searchsorted(col, np.arange(n_y1), side="right") - 1]
    y2 = np.repeat(dual.nodes[last, 1][:, None], j.max() + 1, axis=1)
    y2[col, j] = dual.nodes[order, 1]
    col_start = np.arange(n_y1 + 1) * n_rows
    row_y = np.tile(x2[start[:-1]], n_y1)
    rloc = _row_argmax(row_y, -stage_val.T.ravel(), col_start, y2) - col_start[:-1, None]
    arg = np.empty(len(dual), dtype=np.int64)
    arg[order] = stage_arg[rloc[col, j], col]
    # canonical re-evaluation: identical fp expression to the brute path
    vals = _conjugate_values(dual.nodes.T, u.nodes[arg], u.values[arg])
    out = GridFunction(domain=dual.domain, h=dual.h, nodes=dual.nodes, values=vals)
    return ConjugateResult(dual=out, argmax=arg)


def _require_full_rank(u: GridFunction) -> None:
    """Raise DegenerateInput unless some three nodes are not collinear.

    On a lattice the first two nodes of a row and the last node of a later
    row already turn, so their one cross product decides; ``spans_plane``
    over every node decides only when it is 0.  Any turning triple proves
    the rank, and ``spans_plane`` tests that same triple when the first two
    nodes differ, so the verdict is its verdict on every input.
    """
    x = u.nodes
    if len(x) >= 3 and orientation(x[0], x[1], x[-1]) != 0.0:
        return
    if not spans_plane(x):
        raise DegenerateInput("need at least 3 non-collinear primal nodes")
