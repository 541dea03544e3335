import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ma2d import grid
from ma2d.errors import (
    EmptyDomain,
    LatticeTooLarge,
    MalformedFile,
    NonfiniteValue,
)

from conftest import DATA, quadratic


def test_sample_constant_square():
    gf = grid.sample(lambda p: np.zeros(len(p)), grid.Domain2D.square(1.0), 0.5)
    assert len(gf) == 25
    assert np.all(gf.values == 0.0)


def test_sample_quadratic_coarse():
    gf = grid.sample(quadratic, grid.Domain2D.square(1.0), 1.0)
    assert len(gf) == 9
    assert sorted(set(gf.values.tolist())) == [0.0, 0.5, 1.0]


def test_sample_lattice_budget(monkeypatch):
    # far above the largest lattice sampled anywhere: criterion 10's 401 x 401 box
    assert grid.MAX_LATTICE_NODES >= 100 * 401**2
    grid.check_lattice_budget(grid.Domain2D.disk(10.0), 0.05)

    def forbidden(*args, **kwargs):
        raise AssertionError("the lattice was laid out before the budget check")

    monkeypatch.setattr(grid.np, "meshgrid", forbidden)
    for h in (1e-9, 1e-300):
        with pytest.raises(LatticeTooLarge, match="budget"):
            grid.sample(lambda p: np.zeros(len(p)), grid.Domain2D.disk(1.0), h)


def test_sample_node_order_lexicographic():
    gf = grid.sample(lambda p: np.zeros(len(p)), grid.Domain2D.square(1.0), 0.5)
    order = np.lexsort((gf.nodes[:, 0], gf.nodes[:, 1]))
    assert np.array_equal(order, np.arange(len(gf)))


def test_sample_symmetric_node_set():
    gf = grid.sample(lambda p: np.zeros(len(p)), grid.Domain2D.disk(1.3), 0.25)
    as_set = {tuple(np.round(n, 12)) for n in gf.nodes}
    flipped = {tuple(np.round(-n, 12)) for n in gf.nodes}
    assert as_set == flipped


def test_sample_nonfinite_raises():
    def field(p):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(p[:, 0])

    with pytest.raises(NonfiniteValue):
        grid.sample(field, grid.Domain2D.square(1.0), 0.5)


def test_sample_field_evaluation():
    dom = grid.Domain2D.square(1.0)

    def scalar_only(p):
        return 0.5 * (float(p[0]) ** 2 + float(p[1]) ** 2)  # TypeError on an (N, 2) array

    assert np.array_equal(grid.sample(scalar_only, dom, 0.25).values,
                          grid.sample(quadratic, dom, 0.25).values)

    def broken(p):
        if np.ndim(p) == 2:
            raise ZeroDivisionError("fault in the vectorised branch")
        return quadratic(p)[0]

    with pytest.raises(ZeroDivisionError):
        grid.sample(broken, dom, 0.25)


def test_sample_empty_domain():
    tiny = grid.Domain2D.polygon([[10.1, 10.1], [10.4, 10.1], [10.3, 10.35]])
    with pytest.raises(EmptyDomain):
        grid.sample(lambda p: np.zeros(len(p)), tiny, 1.0)


def test_rhs_dual_translator_value():
    f = grid.RhsField("dual_translator", alpha=1 / 8, eta=1.0)
    assert f(np.array([[1.0, 0.0]]))[0] == 4.0  # exponent 1/(2a) - 2 = 2
    # closed form on circles: |x|^(4-1/a) f = (1 + R^-2)^(1/(2a)-2)
    theta = 2 * np.pi * np.arange(128) / 128
    unit = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    for r in (2.0, 5.0, 10.0, 20.0, 40.0):
        assert np.allclose(r**-4.0 * f(r * unit), (1.0 + r**-2.0) ** 2, rtol=1e-10)


def test_rhs_positive_off_axis():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((200, 2)) * 3
    pts = pts[np.abs(pts[:, 0]) > 1e-9]
    for kind, kw in (
        ("constant", {}),
        ("dual_translator", {"alpha": 1 / 8}),
        ("degenerate", {"alpha": 1 / 8}),
    ):
        f = grid.RhsField(kind, **kw)
        assert np.all(f(pts) > 0)


def test_rhs_degenerate_vanishes_on_axis():
    f = grid.RhsField("degenerate", alpha=1 / 8)
    assert f(np.array([[0.0, 3.0]]))[0] == 0.0


def test_save_load_round_trip(tmp_path):
    gf = grid.sample(quadratic, grid.Domain2D.square(1.5), 0.3)
    path = tmp_path / "q.gfn"
    grid.save(gf, path)
    back = grid.load(path)
    assert np.array_equal(back.nodes, gf.nodes)
    assert np.array_equal(back.values, gf.values)
    assert back.domain.kind == "square" and back.domain.size == 1.5


def test_load_shipped_fixture_matches_regeneration():
    """Regenerating the shipped fixture gives it back bit for bit.

    The oracle's quadrature rule is pinned and its panel sums run in a fixed
    order, so this holds whatever BLAS or LAPACK numpy uses.  It still rests
    on numpy's float64 ``power`` dispatch, which picks a kernel by CPU
    feature: the fixture matches the AVX-512 SVML kernel, and with
    those features disabled 76 of the 197 values differ in the last bits.
    """
    from ma2d import oracle

    back = grid.load(f"{DATA}/radial_dual_alpha8.gfn")
    prof = oracle.RadialProfile(alpha=1 / 8, kind="dual_translator")
    regen = grid.sample(prof, grid.Domain2D.disk(2.0), 0.25)
    assert np.array_equal(back.nodes, regen.nodes)
    assert np.array_equal(back.values, regen.values)


def test_load_wrong_node_count(tmp_path):
    gf = grid.sample(quadratic, grid.Domain2D.square(1.0), 0.5)
    path = tmp_path / "bad.gfn"
    grid.save(gf, path)
    lines = path.read_text().splitlines()
    lines[3] = "n 999"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedFile) as err:
        grid.load(path)
    assert "line" in str(err.value)


def test_load_bad_header(tmp_path):
    path = tmp_path / "bad.gfn"
    path.write_text("GFN 2\ndomain square 1\nh 0.5\nn 0\n")
    with pytest.raises(MalformedFile) as err:
        grid.load(path)
    assert "line 1" in str(err.value)


def test_load_trailing_data(tmp_path):
    gf = grid.sample(quadratic, grid.Domain2D.square(1.0), 1.0)
    path = tmp_path / "bad.gfn"
    grid.save(gf, path)
    path.write_text(path.read_text() + "0 0 0\n")
    with pytest.raises(MalformedFile):
        grid.load(path)


def _edited_gfn(tmp_path, edits, name="bad.gfn"):
    """A saved 5 x 5 lattice file with the given {line number: text} edits."""
    gf = grid.sample(quadratic, grid.Domain2D.square(1.0), 0.5)
    path = tmp_path / name
    grid.save(gf, path)
    lines = path.read_text().splitlines()
    for lineno, text in edits.items():
        lines[lineno - 1] = text
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize(
    "edits, message",
    [
        ({7: "0.0 zero 1.0"}, "line 7: entries must be numbers"),
        ({8: "0.5 0.5 inf"}, "line 8: value is not finite"),
        ({9: "0.5 0.5 nan"}, "line 9: value is not finite"),
        ({10: "0.25 0.5 1.0"}, "line 10: node is not on the pitch-h lattice"),
        ({11: "0.5 0.5"}, "line 11: expected 'x1 x2 value'"),
        ({4: "n -2"}, "line 4: node count must not be negative"),
        # the first bad line is named, whatever check a later line fails
        ({12: "0.5 0.5 nan", 20: "0.0 x 1.0"}, "line 12: value is not finite"),
        ({12: "0.5 0.5 1 2", 20: "0.25 0.5 1.0"}, "line 12: expected 'x1 x2 value'"),
        ({12: "0.25 0.5 inf", 20: "0.5"}, "line 12: value is not finite"),
        ({12: "0.25 0.5 1.0", 13: "a b c"}, "line 12: node is not on the pitch-h lattice"),
        ({7: "nan 0.5 1.0"}, "line 7: coordinate is not finite"),
        ({8: "inf 0.5 1.0"}, "line 8: coordinate is not finite"),
        ({9: "0.5 nan 1.0"}, "line 9: coordinate is not finite"),
        ({10: "0.5 -inf 1.0"}, "line 10: coordinate is not finite"),
        ({12: "nan 0.5 inf"}, "line 12: value is not finite"),
        ({12: "0.5 inf 1.0", 13: "0.25 0.5 1.0"}, "line 12: coordinate is not finite"),
    ],
    ids=["number", "inf", "nan", "lattice", "count", "negative-n", "nan-then-number",
         "count-then-lattice", "value-before-lattice", "lattice-then-number",
         "nan-x1", "inf-x1", "nan-x2", "inf-x2", "value-before-coordinate",
         "coordinate-then-lattice"],
)
def test_load_names_first_bad_line(tmp_path, edits, message):
    path = _edited_gfn(tmp_path, edits)
    with pytest.raises(MalformedFile, match=message):
        grid.load(path)


def test_load_short_file_after_good_lines(tmp_path):
    path = _edited_gfn(tmp_path, {})
    path.write_text("\n".join(path.read_text().splitlines()[:20]) + "\n")
    with pytest.raises(MalformedFile, match="line 21: unexpected end of file"):
        grid.load(path)


@st.composite
def gfn_cases(draw):
    kind = draw(st.sampled_from(["square", "disk", "polygon"]))
    size = draw(st.floats(0.3, 1.5))
    if kind == "polygon":
        k = draw(st.integers(3, 7))
        turn = draw(st.floats(0.0, 1.0))
        ang = 2 * np.pi * (np.arange(k) + turn) / k
        dom = grid.Domain2D.polygon(size * np.stack([np.cos(ang), np.sin(ang)], axis=1))
    else:
        dom = grid.Domain2D(kind, size=size)
    h = draw(st.floats(0.15, 0.6))
    n = len(grid.sample(0.0, dom, h))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = draw(st.lists(finite, min_size=n, max_size=n))
    return grid.sample(lambda p: np.array(values), dom, h)


def ref_node_lines(gf):
    """The node rows of a .gfn file, formatted one node at a time."""
    return [f"{float(x1)!r} {float(x2)!r} {float(v)!r}" for (x1, x2), v in zip(gf.nodes, gf.values)]


def test_save_equals_per_node_formatter_on_dual_solution(tmp_path, solved_dual_disk8):
    _, report, _ = solved_dual_disk8
    path = tmp_path / "dual.gfn"
    grid.save(report.grid, path)
    rows = path.read_bytes().decode("utf-8").split("\n")
    assert rows[4:] == ref_node_lines(report.grid) + [""]


def test_save_equals_per_row_writer_with_signed_zeros(tmp_path):
    gf = grid.sample(quadratic, grid.Domain2D.disk(1.0), 0.25)
    nodes = gf.nodes.copy()
    nodes[::3] *= -1.0  # -0.0 where a coordinate is 0.0, on the axes
    signed = grid.GridFunction(domain=gf.domain, h=gf.h, nodes=nodes, values=-gf.values)
    assert np.any(np.signbit(nodes) & (nodes == 0.0))
    assert np.any(~np.signbit(nodes) & (nodes == 0.0))
    path = tmp_path / "signed.gfn"
    grid.save(signed, path)
    rows = path.read_bytes().decode("utf-8").split("\n")
    assert rows[4:] == ref_node_lines(signed) + [""]
    assert any(row.startswith("-0.0 ") for row in rows)


def test_save_of_loaded_fixture_gives_its_bytes(tmp_path):
    path = tmp_path / "again.gfn"
    grid.save(grid.load(f"{DATA}/radial_dual_alpha8.gfn"), path)
    with open(f"{DATA}/radial_dual_alpha8.gfn", "rb") as fh:
        assert path.read_bytes() == fh.read()


awkward = st.floats(width=64) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 0.1, 1 / 3]
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.lists(st.tuples(awkward, awkward, awkward), min_size=1, max_size=20))
def test_save_equals_per_node_formatter_property(tmp_path_factory, data):
    arr = np.array(data, dtype=float)
    gf = grid.GridFunction(domain=grid.Domain2D.square(1.0), h=0.5, nodes=arr[:, :2],
                           values=arr[:, 2])
    path = tmp_path_factory.mktemp("gfn") / "rows.gfn"
    grid.save(gf, path)
    rows = path.read_text(encoding="utf-8").split("\n")
    assert rows[4:] == ref_node_lines(gf) + [""]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(gf=gfn_cases())
def test_save_load_round_trip_property(tmp_path_factory, gf):
    path = tmp_path_factory.mktemp("gfn") / "case.gfn"
    grid.save(gf, path)
    back = grid.load(path)
    assert back.domain.kind == gf.domain.kind
    assert np.array_equal(back.domain._params(), gf.domain._params())
    assert back.h == gf.h
    assert np.array_equal(back.nodes, gf.nodes)
    assert np.array_equal(back.values, gf.values)


def test_interior_mask_square():
    gf = grid.sample(lambda p: np.zeros(len(p)), grid.Domain2D.square(1.0), 0.5)
    assert gf.interior_mask.sum() == 9  # inner 3x3 of the 5x5 lattice
    inner = gf.nodes[gf.interior_mask]
    assert np.abs(inner).max() <= 0.5 + 1e-12


@pytest.mark.parametrize(
    "vertices",
    [
        [[0, 0], [0, 1], [1, 1], [1, 0]],
        [[0, 0], [2, 0], [2, 2], [1, 0.5], [0, 2]],
        [[0, 0], [1, 0], [2, 0], [1, 1]],
    ],
    ids=["clockwise-square", "reflex-pentagon", "collinear"],
)
def test_domain_polygon_rejects(vertices):
    with pytest.raises(ValueError, match="strictly convex ccw"):
        grid.Domain2D.polygon(vertices)


def test_domain_polygon_accepts_ccw_convex():
    pentagon = [[0, 0], [2, 0], [2.5, 1.5], [1, 2.5], [-0.5, 1.5]]
    dom = grid.Domain2D.polygon(pentagon)
    assert np.array_equal(dom.vertices, np.asarray(pentagon, dtype=float))


def test_domain_boundary_distance():
    d = grid.Domain2D.disk(2.0)
    assert np.isclose(d.boundary_distance(np.array([[1.0, 0.0]]))[0], 1.0)
    s = grid.Domain2D.square(1.0)
    assert np.isclose(s.boundary_distance(np.array([[0.25, -0.5]]))[0], 0.5)


def test_polygon_boundary_distance():
    tri = grid.Domain2D.polygon([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    pts = np.array([[0.5, 0.5], [0.9, 0.9], [1.0, 0.25], [3.0, 3.0], [-1.0, 1.0]])
    # distances to y = 0, x = 0 and x + y = 2, the least of them, signed
    expected = [0.5, 0.2 / np.sqrt(2), 0.25, -4 / np.sqrt(2), -1.0]
    np.testing.assert_allclose(tri.boundary_distance(pts), expected, rtol=0, atol=1e-15)
    square = grid.Domain2D.polygon([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    cloud = np.random.default_rng(5).uniform(-1.5, 1.5, size=(500, 2))
    np.testing.assert_allclose(
        square.boundary_distance(cloud),
        grid.Domain2D.square(1.0).boundary_distance(cloud),
        rtol=0, atol=1e-15,
    )


_UNIT_OFFSETS = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)]
_LATTICES = {
    "disk": (grid.Domain2D.disk(1.0), 0.1),
    "square": (grid.Domain2D.square(1.0), 0.125),
    "polygon": (grid.Domain2D.polygon([[-1.0, -0.8], [1.0, -0.8], [0.3, 1.0]]), 0.07),
}


def _lattice(case):
    return grid.sample(quadratic, *_LATTICES[case])


@pytest.mark.parametrize("case", list(_LATTICES))
def test_neighbor_ids_equal_coordinate_lookup(case):
    gf = _lattice(case)
    index = {key: i for i, key in enumerate(map(tuple, gf.lattice_indices.tolist()))}
    for d in _UNIT_OFFSETS:
        want = [index.get((k1 + d[0], k2 + d[1]), -1) for k1, k2 in gf.lattice_indices.tolist()]
        assert np.array_equal(gf.neighbor_ids(d), want)
    for bad in [(0, 0), (2, 0), (1, -2), (0.5, 0), (1, 0, 0)]:
        with pytest.raises(ValueError, match="unit lattice offset"):
            gf.neighbor_ids(bad)


def _reference_value_at(gf, x):
    """A node's own value at a node; elsewhere bilinear interpolation with
    the four corners found by a coordinate lookup, or the nearest node where
    one is missing; and whether it was the nearest node."""
    at = np.flatnonzero((gf.nodes[:, 0] == x[0]) & (gf.nodes[:, 1] == x[1]))
    if len(at):
        return float(gf.values[at[0]]), False
    k = np.asarray(x, dtype=float) / gf.h
    k0 = np.floor(k).astype(np.int64)
    frac = k - k0
    index = {key: i for i, key in enumerate(map(tuple, gf.lattice_indices.tolist()))}
    ids = [index.get((int(k0[0]) + dx, int(k0[1]) + dy), -1)
           for dx, dy in ((0, 0), (1, 0), (0, 1), (1, 1))]
    if min(ids) < 0:
        j = int(np.argmin(np.hypot(gf.nodes[:, 0] - x[0], gf.nodes[:, 1] - x[1])))
        return float(gf.values[j]), True
    v00, v10, v01, v11 = gf.values[ids]
    fx, fy = frac
    return float(v00 * (1 - fx) * (1 - fy) + v10 * fx * (1 - fy) + v01 * (1 - fx) * fy
                 + v11 * fx * fy), False


@pytest.mark.parametrize("case", list(_LATTICES))
def test_grid_value_at_keeps_its_values(case):
    from ma2d import sections

    gf = _lattice(case)
    rng = np.random.default_rng(8)
    lo, hi = gf.nodes.min(axis=0), gf.nodes.max(axis=0)
    points = np.concatenate([
        gf.nodes,                                               # exact at nodes
        rng.uniform(lo - 0.3, hi + 0.3, size=(400, 2)),         # cells, rim and outside
        gf.nodes[~gf.interior_mask] + 0.5 * gf.h,               # cells that leave the lattice
        [[lo[0] - 5.0, 0.0], [0.0, hi[1] + 5.0], [-1e3, 1e3]],  # far off the padded grid
    ])
    want, nearest = zip(*(_reference_value_at(gf, x) for x in points))
    assert [sections._grid_value_at(gf, x) for x in points] == list(want)
    assert 0 < sum(nearest) < len(points) - len(gf)


@pytest.mark.parametrize("case", list(_LATTICES))
def test_grid_value_at_is_exact_at_nodes(case):
    # a node k h is stored rounded, and x / h can round below k: floor then
    # took k - 1 and blended the neighbours, at 92 of the 317 nodes of the
    # quadratic on disk(1) at h = 0.1
    from ma2d import sections

    gf = _lattice(case)
    assert case != "disk" or len(gf) == 317
    assert [sections._grid_value_at(gf, x) for x in gf.nodes] == gf.values.tolist()
    k = grid.lattice_coordinates(gf.nodes, gf.h)
    assert np.array_equal(k, gf.lattice_indices) and np.array_equal(k, np.rint(gf.nodes / gf.h))
    # away from the nodes the coordinates are x / h, and rint takes the same integers
    off = np.random.default_rng(4).uniform(-9.0, 9.0, size=(1000, 2))
    assert np.array_equal(grid.lattice_coordinates(off, gf.h), off / gf.h)
    assert np.array_equal(np.rint(grid.lattice_coordinates(gf.nodes + 1e-9, gf.h)),
                          np.rint((gf.nodes + 1e-9) / gf.h))
