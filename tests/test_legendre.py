import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ma2d import grid, legendre, ma_measure
from ma2d.geometry import max_affine, spans_plane
from ma2d.errors import DegenerateInput

from conftest import quadratic


def conj_pair(u, hw, h, **kw):
    dom = grid.Domain2D.square(hw)
    fast = legendre.legendre_transform(u, dom, h, method="fast", **kw)
    brute = legendre.legendre_transform(u, dom, h, method="brute", **kw)
    return fast, brute


def test_quadratic_self_dual_value():
    u = grid.sample(quadratic, grid.Domain2D.square(2.0), 0.25)
    res = legendre.legendre_transform(u, grid.Domain2D.square(1.0), 0.25)
    j = np.flatnonzero((res.dual.nodes[:, 0] == 0.5) & (res.dual.nodes[:, 1] == 0.0))[0]
    assert res.dual.values[j] == 0.125


def test_affine_conjugate_vanishes_at_slope():
    u = grid.sample(lambda p: p[:, 0] + 2 * p[:, 1], grid.Domain2D.square(1.0), 0.5)
    res = legendre.legendre_transform(u, grid.Domain2D.square(2.5), 0.5)
    j = np.flatnonzero((res.dual.nodes[:, 0] == 1.0) & (res.dual.nodes[:, 1] == 2.0))[0]
    assert res.dual.values[j] == 0.0


def test_cone_conjugate_inside_unit_disk():
    u = grid.sample(
        lambda p: np.hypot(p[:, 0], p[:, 1]), grid.Domain2D.square(1.0), 0.05
    )
    res = legendre.legendre_transform(u, grid.Domain2D.square(0.5), 0.1)
    j = np.flatnonzero(
        (np.abs(res.dual.nodes[:, 0] - 0.3) < 1e-12) & (res.dual.nodes[:, 1] == 0.0)
    )[0]
    assert abs(res.dual.values[j]) <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2, 7])
def test_fast_equals_brute_random(seed):
    rng = np.random.default_rng(seed)
    hw = float(rng.uniform(0.8, 1.4))
    h = float(rng.uniform(0.08, 0.2))
    vals = {}
    u = grid.sample(lambda p: rng.standard_normal(len(p)), grid.Domain2D.square(hw), h)
    fast, brute = conj_pair(u, 1.2, 0.13)
    assert np.array_equal(fast.dual.values, brute.dual.values)
    assert np.array_equal(fast.argmax, brute.argmax)


@pytest.mark.parametrize(
    "field",
    [
        lambda p: np.zeros(len(p)),
        quadratic,
        lambda p: np.abs(p[:, 0]) + np.abs(p[:, 1]),
        lambda p: np.minimum(np.abs(p[:, 0] - 0.5), np.abs(p[:, 0] + 0.5)),
    ],
)
def test_fast_equals_brute_structured(field):
    u = grid.sample(field, grid.Domain2D.square(1.0), 0.125)
    fast, brute = conj_pair(u, 1.5, 0.25)
    assert np.array_equal(fast.dual.values, brute.dual.values)


def test_fenchel_young_exact():
    rng = np.random.default_rng(3)
    u = grid.sample(lambda p: quadratic(p) + 0.1 * rng.standard_normal(len(p)),
                    grid.Domain2D.square(1.0), 0.2)
    res = legendre.legendre_transform(u, grid.Domain2D.square(1.5), 0.3)
    for j, y in enumerate(res.dual.nodes):
        vals = y[0] * u.nodes[:, 0] + y[1] * u.nodes[:, 1] - u.values
        assert np.all(res.dual.values[j] >= vals)  # FY holds against every node
        i = res.argmax[j]
        assert res.dual.values[j] == vals[i]  # equality at the recorded argmax


def test_order_reversal():
    rng = np.random.default_rng(11)
    u = grid.sample(quadratic, grid.Domain2D.square(1.0), 0.25)
    bump = np.abs(rng.standard_normal(len(u)))
    v = grid.GridFunction(domain=u.domain, h=u.h, nodes=u.nodes, values=u.values + bump)
    du = legendre.legendre_transform(u, grid.Domain2D.square(1.5), 0.25).dual
    dv = legendre.legendre_transform(v, grid.Domain2D.square(1.5), 0.25).dual
    assert np.all(du.values >= dv.values)


def test_dual_is_convex():
    rng = np.random.default_rng(13)
    u = grid.sample(lambda p: rng.standard_normal(len(p)), grid.Domain2D.square(1.0), 0.25)
    dual = legendre.legendre_transform(u, grid.Domain2D.square(2.0), 0.25).dual
    # the dual coincides with its own lower convex envelope, to 1e-9 relative
    # to its largest value (or absolute below 1)
    gap = dual.values - ma_measure.lower_envelope(dual.nodes, dual.values)(dual.nodes)
    assert np.max(np.abs(gap)) <= 1e-9 * max(1.0, float(np.abs(dual.values).max()))


def default_dual_halfwidth(u, h_dual):
    """Dual half-width covering the subgradient image: max finite-difference
    slope of u plus one dual spacing."""
    a, b = u.lattice_edges.T
    best = float((np.abs(u.values[b] - u.values[a]) / u.h).max()) if len(a) else 0.0
    return best + h_dual


def biconjugate(u, h_dual):
    """(u*)* restricted to the primal nodes: the convex envelope of the samples.

    Values are clipped from above by u, and raw values within a few ulps of u
    snap to u exactly; this keeps both the envelope property and idempotence
    bitwise in floating point.
    """
    hw = default_dual_halfwidth(u, h_dual)
    star = legendre.legendre_transform(u, grid.Domain2D.square(hw), h_dual)
    vals = max_affine(u.nodes, star.dual.nodes, -star.dual.values)
    scale = float(np.abs(u.values).max()) + hw * float(np.abs(u.nodes).max()) + 1.0
    snap = 32.0 * np.finfo(float).eps * scale
    vals = np.where(vals >= u.values - snap, u.values, vals)
    return grid.GridFunction(domain=u.domain, h=u.h, nodes=u.nodes, values=vals)


def test_biconjugate_convex_input_unchanged():
    u = grid.sample(quadratic, grid.Domain2D.square(1.0), 0.2)
    env = biconjugate(u, 0.1)
    diam = 2 * np.sqrt(2)
    assert np.all(env.values <= u.values)
    assert np.max(u.values - env.values) <= 2 * 0.1 * diam


def test_biconjugate_w_shape_strictly_below():
    field = lambda p: np.minimum(np.abs(p[:, 0] - 0.5), np.abs(p[:, 0] + 0.5))
    u = grid.sample(field, grid.Domain2D.square(1.0), 0.125)
    env = biconjugate(u, 0.05)
    # independent envelope through the lower convex hull of the lifted graph
    pl = ma_measure.lower_envelope(u.nodes, u.values)
    ref = pl(u.nodes)
    assert np.all(env.values <= u.values + 1e-12)
    mid = np.abs(u.nodes[:, 0]) < 0.3
    assert np.all(u.values[mid] - env.values[mid] > 0.05)
    assert np.max(np.abs(env.values - ref)) <= 2 * 0.05 * (2 * np.sqrt(2))


def test_biconjugate_single_dip_local():
    u = grid.sample(quadratic, grid.Domain2D.square(1.0), 0.25)
    vals = u.values.copy()
    k = np.flatnonzero((u.nodes[:, 0] == 0.0) & (u.nodes[:, 1] == 0.25))[0]
    vals[k] -= 0.2
    dipped = grid.GridFunction(domain=u.domain, h=u.h, nodes=u.nodes, values=vals)
    env = biconjugate(dipped, 0.05)
    pl = ma_measure.lower_envelope(dipped.nodes, dipped.values)
    ref = pl(dipped.nodes)
    # the supporting cone of the dip touches the paraboloid at radius sqrt(2 * depth)
    far = np.hypot(dipped.nodes[:, 0] - 0.0, dipped.nodes[:, 1] - 0.25) > 1.0
    assert np.max(np.abs(env.values[far] - vals[far])) <= 2 * 0.05 * (2 * np.sqrt(2))
    assert env.values[k] <= vals[k] + 1e-12
    assert np.max(np.abs(env.values - ref)) <= 2 * 0.05 * (2 * np.sqrt(2))


def test_involution_exact_on_nodes():
    rng = np.random.default_rng(17)
    u = grid.sample(lambda p: quadratic(p) + 0.2 * rng.standard_normal(len(p)),
                    grid.Domain2D.square(1.0), 0.25)
    once = biconjugate(u, 0.1)
    twice = biconjugate(once, 0.1)
    assert np.array_equal(once.values, twice.values)


def test_collinear_nodes_rejected():
    nodes = np.stack([np.linspace(-1, 1, 9), np.zeros(9)], axis=1)
    gf = grid.GridFunction(
        domain=grid.Domain2D.square(1.0), h=0.25, nodes=nodes, values=np.zeros(9)
    )
    with pytest.raises(DegenerateInput):
        legendre.legendre_transform(gf, grid.Domain2D.square(1.0), 0.5)


def _nodes_gf(nodes):
    nodes = np.asarray(nodes, dtype=float).reshape(-1, 2)
    return grid.GridFunction(
        domain=grid.Domain2D.square(1.0), h=0.25, nodes=nodes, values=np.zeros(len(nodes))
    )


_ROW = np.stack([np.arange(-4, 5) * 0.25, np.full(9, 0.5)], axis=1)


@pytest.mark.parametrize(
    "nodes",
    [
        _ROW,                                      # single row
        _ROW[:, ::-1],                             # single column
        np.stack([np.arange(-4, 5) * 0.1] * 2, 1),  # lattice diagonal
        np.tile([[0.25, -0.5]], (6, 1)),           # duplicates only
        _ROW[:2],                                  # fewer than 3 nodes
        _ROW[:0],
    ],
    ids=["row", "column", "diagonal", "duplicates", "two", "none"],
)
@pytest.mark.parametrize("method", ["fast", "brute"])
def test_degenerate_node_sets_rejected(nodes, method):
    with pytest.raises(DegenerateInput):
        legendre.legendre_transform(_nodes_gf(nodes), grid.Domain2D.square(1.0), 0.5,
                                    method=method)


def test_one_node_off_the_row_is_full_rank():
    u = _nodes_gf(np.concatenate([_ROW, [[0.0, 0.75]]]))  # lattice order by (x2, x1)
    fast, brute = conj_pair(u, 1.0, 0.5)
    assert np.array_equal(fast.dual.values, brute.dual.values)
    assert np.array_equal(fast.argmax, brute.argmax)


@pytest.mark.parametrize(
    "nodes",
    [
        np.concatenate([_ROW, [[0.0, 0.75]]]),             # last node off the row
        np.concatenate([_ROW[:3], [[0.0, 0.75]], _ROW[3:]]),  # off the row in the middle
        np.concatenate([_ROW[:1], _ROW[:1], [[0.0, 0.75]], _ROW[1:]]),  # first node twice
        np.concatenate([_ROW[:3], [[0.0, 0.75]], _ROW[3:]])[::-1],
        _ROW, _ROW[:2], np.tile([[0.25, -0.5]], (6, 1)),
    ],
    ids=["last-off", "middle-off", "first-twice", "reversed", "row", "two", "duplicates"],
)
def test_rank_verdict_is_that_of_spans_plane(nodes):
    # the first two nodes and the last decide when they turn; every other
    # node set falls back to the test over all nodes
    gf = _nodes_gf(nodes)
    if spans_plane(gf.nodes):
        legendre._require_full_rank(gf)
    else:
        with pytest.raises(DegenerateInput):
            legendre._require_full_rank(gf)


def test_default_dual_halfwidth_covers_slopes():
    u = grid.sample(quadratic, grid.Domain2D.square(1.0), 0.1)
    hw = default_dual_halfwidth(u, 0.1)
    assert hw >= 1.0  # max slope of the quadratic on the unit square


# --- the row-by-row fast path, kept as the reference for the batched one ---

def ref_lower_hull_indices(x, u):
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


def ref_row_conjugate(x, u, slopes):
    """Linear-time sweep: indices into x of argmax_i s * x_i - u_i for sorted slopes."""
    hull_idx = ref_lower_hull_indices(x, u)
    hx, hu = x[hull_idx], u[hull_idx]
    out = np.empty(len(slopes), dtype=np.int64)
    k = 0
    last = len(hull_idx) - 1
    for m, s in enumerate(slopes):
        while k < last and s * (hx[k + 1] - hx[k]) > hu[k + 1] - hu[k]:
            k += 1
        out[m] = hull_idx[k]
    return out


def ref_fast_transform(u, dual_domain, h_dual):
    """The fast path one row and one dual column at a time."""
    dual = grid.sample(lambda p: np.zeros(len(p)), dual_domain, h_dual)
    rows, row_start = np.unique(u.lattice_indices[:, 1], return_index=True)
    row_slices = np.append(row_start, len(u))
    row_y = u.nodes[row_start, 1]
    y1_vals, y1_inv = np.unique(dual.nodes[:, 0], return_inverse=True)
    stage_val = np.empty((len(rows), len(y1_vals)))
    stage_arg = np.empty((len(rows), len(y1_vals)), dtype=np.int64)
    for r in range(len(rows)):
        sl = slice(row_slices[r], row_slices[r + 1])
        x1, uu = u.nodes[sl, 0], u.values[sl]
        loc = ref_row_conjugate(x1, uu, y1_vals)
        stage_arg[r] = loc + row_slices[r]
        stage_val[r] = y1_vals * x1[loc] - uu[loc]
    arg = np.empty(len(dual), dtype=np.int64)
    for col in range(len(y1_vals)):
        sel = np.flatnonzero(y1_inv == col)
        sel = sel[np.argsort(dual.nodes[sel, 1], kind="stable")]
        rloc = ref_row_conjugate(row_y, -stage_val[:, col], dual.nodes[sel, 1])
        arg[sel] = stage_arg[rloc, col]
    vals = np.array([legendre._conjugate_values(dual.nodes[j], u.nodes[i : i + 1],
                                                u.values[i : i + 1])[0]
                     for j, i in enumerate(arg)])
    return arg, vals


def tied_field(kind, h, rng):
    """Random lattice values with many exact ties: a few levels, a convex
    quadratic floored to quarters plus 0 or 1/2, or constant rows.  All are
    dyadic when h is."""

    def field(p):
        if kind == "levels":
            return 0.25 * rng.integers(-2, 3, len(p))
        if kind == "convex":
            return np.floor(4 * quadratic(p)) / 4 + 0.5 * rng.integers(0, 2, len(p))
        return 0.5 * rng.integers(-2, 3, 64)[np.rint(p[:, 1] / h).astype(int) % 64]

    return field


@st.composite
def lattice_fields(draw):
    """A random field on a square or disk lattice and a dual square lattice:
    normal noise at any pitch, or tied values (``tied_field``) at dyadic
    pitches, where every product and sum the fast path and the brute path
    form is exact."""
    kind = draw(st.sampled_from(["noise", "levels", "convex", "constant_rows"]))
    pitches = [0.1, 0.125, 0.2, 0.25] if kind == "noise" else [0.125, 0.25]
    h = draw(st.sampled_from(pitches))
    size = draw(st.floats(0.45, 1.1))
    dom = draw(st.sampled_from([grid.Domain2D.square, grid.Domain2D.disk]))(size)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "noise":
        u = grid.sample(lambda p: rng.standard_normal(len(p)), dom, h)
    else:
        u = grid.sample(tied_field(kind, h, rng), dom, h)
    hw = draw(st.floats(0.3, 2.5))
    h_dual = draw(st.sampled_from([0.15, 0.25, 0.5] if kind == "noise" else [0.125, 0.25, 0.5]))
    return u, grid.Domain2D.square(hw), h_dual


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=lattice_fields())
def test_fast_equals_row_sweep_and_brute_property(case):
    u, dom, h_dual = case
    fast = legendre.legendre_transform(u, dom, h_dual, method="fast")
    brute = legendre.legendre_transform(u, dom, h_dual, method="brute")
    ref_arg, ref_vals = ref_fast_transform(u, dom, h_dual)
    assert np.array_equal(fast.argmax, ref_arg)
    assert np.array_equal(fast.dual.values, ref_vals)
    assert np.array_equal(fast.argmax, brute.argmax)
    assert np.array_equal(fast.dual.values, brute.dual.values)


@pytest.mark.parametrize("kind", ["levels", "convex", "constant_rows"])
@pytest.mark.parametrize("seed", [0, 1])
def test_fast_equals_row_sweep_on_inexact_ties(kind, seed):
    # at pitch 0.1 the two paths round tied values differently, so only the
    # row sweep is the reference here (see the xfail below)
    u = grid.sample(tied_field(kind, 0.1, np.random.default_rng(seed)),
                    grid.Domain2D.square(1.0), 0.1)
    fast = legendre.legendre_transform(u, grid.Domain2D.square(1.5), 0.1)
    ref_arg, ref_vals = ref_fast_transform(u, grid.Domain2D.square(1.5), 0.1)
    assert np.array_equal(fast.argmax, ref_arg)
    assert np.array_equal(fast.dual.values, ref_vals)


@pytest.mark.xfail(strict=True, reason="known defect: on tied values at a non-dyadic "
                   "pitch the fast path's maximiser differs from brute's by rounding")
def test_fast_equals_brute_on_inexact_ties():
    u = grid.sample(tied_field("levels", 0.1, np.random.default_rng(0)),
                    grid.Domain2D.square(1.0), 0.1)
    fast, brute = conj_pair(u, 1.5, 0.1)
    assert np.array_equal(fast.dual.values, brute.dual.values)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lockstep_hulls_equal_row_hulls(seed):
    rng = np.random.default_rng(seed)
    n = rng.integers(1, 30, 12)
    x = np.sort(rng.uniform(-1, 1, (12, 30)), axis=1)
    u = np.where(rng.random((12, 30)) < 0.5, rng.integers(-2, 3, (12, 30)) * 0.5,
                 rng.standard_normal((12, 30)))
    stack, top = legendre._lower_hulls(x, u, n)
    for r in range(12):
        ref = ref_lower_hull_indices(x[r, : n[r]], u[r, : n[r]])
        assert np.array_equal(stack[r, : top[r]], ref)
    slopes = np.sort(rng.uniform(-4, 4, (12, 9)), axis=1)
    slopes[:, 4] = slopes[:, 3]  # a repeated slope
    got = legendre._row_argmax(x, u, n, slopes)
    for r in range(12):
        assert np.array_equal(got[r], ref_row_conjugate(x[r, : n[r]], u[r, : n[r]], slopes[r]))


def ref_dense_row_argmax(x, u, n, slopes):
    """``legendre._row_argmax`` by one dense comparison per block of rows:
    every slope against every hull edge, the first failing edge wins."""
    stack, top = legendre._lower_hulls(x, u, n)
    hx = np.take_along_axis(np.broadcast_to(x, u.shape), stack, axis=1)
    hu = np.take_along_axis(u, stack, axis=1)
    rows, width = u.shape
    edge = np.arange(width - 1) < top[:, None] - 1
    dx = np.zeros(u.shape)
    du = np.full(u.shape, np.inf)
    dx[:, :-1][edge] = (hx[:, 1:] - hx[:, :-1])[edge]
    du[:, :-1][edge] = (hu[:, 1:] - hu[:, :-1])[edge]
    slopes = np.broadcast_to(slopes, (rows, slopes.shape[1]))
    k = np.empty(slopes.shape, dtype=np.intp)
    step = max(1, 2**16 // (slopes.shape[1] * width))
    for r in range(0, rows, step):
        w = int(top[r : r + step].max())  # edges past every hull's end all fail
        rising = slopes[r : r + step, :, None] * dx[r : r + step, None, :w] > du[r : r + step, None, :w]
        k[r : r + step] = np.argmin(rising, axis=2)  # the first False
    return np.take_along_axis(stack, k, axis=1)


def ragged_tied_rows(rng, rows=40, width=24):
    """Rows of 1 to ``width`` points on a dyadic x grid, with values drawn
    from five levels (many exact ties and collinear runs) or normal noise."""
    n = rng.integers(1, width + 1, rows)
    n[0] = width
    x = np.sort(rng.choice(np.arange(-64, 64) / 16, (rows, width), replace=True), axis=1)
    x += np.arange(width) * 8.0  # strictly increasing, still dyadic
    u = np.where(rng.random((rows, width)) < 0.7, rng.integers(-2, 3, (rows, width)) * 0.5,
                 rng.standard_normal((rows, width)))
    return x, u, n


def ascending_slopes(rng, shape):
    """Sorted slopes with repeats and both infinities in every row."""
    s = rng.choice(np.arange(-24, 25) / 8, shape)
    s[:, 0], s[:, 1], s[:, -1] = -np.inf, -np.inf, np.inf
    s[:, 5] = s[:, 4]
    return np.sort(s, axis=1)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0 past a hull's end
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_sweep_equals_dense_comparison(seed):
    rng = np.random.default_rng(seed)
    x, u, n = ragged_tied_rows(rng)
    for slopes in (ascending_slopes(rng, (len(u), 17)), ascending_slopes(rng, (1, 17))):
        assert np.array_equal(legendre._row_argmax(x, u, n, slopes),
                              ref_dense_row_argmax(x, u, n, slopes))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sweep_equals_dense_comparison_stage_2_shape(seed):
    # stage 2 of the fast path: one x shared by all rows, every row full
    # length, and ragged dual columns whose tails repeat their last slope
    rng = np.random.default_rng(seed)
    cols, n_rows, h = 30, 41, 0.125
    row_y = (np.arange(n_rows) - n_rows // 2) * h
    u = -np.where(rng.random((cols, n_rows)) < 0.5, rng.integers(-3, 4, (cols, n_rows)) * 0.25,
                  rng.standard_normal((cols, n_rows)))
    lengths = rng.integers(1, 20, cols)
    y2 = np.sort(rng.choice(np.arange(-40, 41) * h, (cols, 20)), axis=1)
    y2 = np.take_along_axis(y2, np.minimum(np.arange(20), lengths[:, None] - 1), axis=1)
    n = np.full(cols, n_rows)
    assert np.array_equal(legendre._row_argmax(row_y, u, n, y2),
                          ref_dense_row_argmax(row_y, u, n, y2))
