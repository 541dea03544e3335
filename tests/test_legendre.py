import numpy as np
import pytest

from ma2d import grid, legendre, ma_measure
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
    res = legendre.legendre_transform(u, grid.Domain2D.square(2.0), 0.25)
    assert ma_measure.is_convex_grid(res.dual)


def test_biconjugate_convex_input_unchanged():
    u = grid.sample(quadratic, grid.Domain2D.square(1.0), 0.2)
    env = legendre.biconjugate(u, 0.1)
    diam = 2 * np.sqrt(2)
    assert np.all(env.values <= u.values)
    assert np.max(u.values - env.values) <= 2 * 0.1 * diam


def test_biconjugate_w_shape_strictly_below():
    field = lambda p: np.minimum(np.abs(p[:, 0] - 0.5), np.abs(p[:, 0] + 0.5))
    u = grid.sample(field, grid.Domain2D.square(1.0), 0.125)
    env = legendre.biconjugate(u, 0.05)
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
    env = legendre.biconjugate(dipped, 0.05)
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
    once = legendre.biconjugate(u, 0.1)
    twice = legendre.biconjugate(once, 0.1)
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


def test_default_dual_halfwidth_covers_slopes():
    u = grid.sample(quadratic, grid.Domain2D.square(1.0), 0.1)
    hw = legendre.default_dual_halfwidth(u, 0.1)
    assert hw >= 1.0  # max slope of the quadratic on the unit square
