import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ma2d import grid
from ma2d.errors import LatticeTooLarge, MalformedFile, NonfiniteValue

from conftest import DATA, polygon_lattice, quadratic


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

    for name in ("arange", "tile", "repeat"):
        monkeypatch.setattr(grid.np, name, forbidden)
    for h in (1e-9, 1e-300):
        with pytest.raises(LatticeTooLarge, match="budget"):
            grid.sample(lambda p: np.zeros(len(p)), grid.Domain2D.disk(1.0), h)


def meshgrid_layout(domain, h):
    """The nodes of the pitch-h lattice box that ``sample`` laid out by a
    meshgrid, a (box, 2) stack and a row gather, with the disk and square
    tests written out: the reference of the two-array layout."""
    slack, k_lo, k_hi = grid._lattice_box(domain, h)
    k1 = np.arange(int(k_lo[0]), int(k_hi[0]) + 1)
    k2 = np.arange(int(k_lo[1]), int(k_hi[1]) + 1)
    g1, g2 = np.meshgrid(k1, k2, indexing="xy")
    nodes = np.stack([g1.ravel() * h, g2.ravel() * h], axis=1)
    if domain.kind == "square":
        inside = np.abs(nodes).max(axis=1) <= domain.size + slack
    else:
        inside = np.hypot(nodes[:, 0], nodes[:, 1]) <= domain.size + slack
    return nodes[inside]


# sizes whose boundary nodes lie off the boundary by rounding (0.3 = 3 x 0.1
# rounds up) or inside the _SNAP slack only (1 - 5e-10), and one just past it
@pytest.mark.parametrize("h", [0.5, 0.1, 0.02, 0.01, 2 / 39])
@pytest.mark.parametrize("size", [1.0, 0.3, 1.0 - 5e-10, 1.0 - 2e-9, 2.0 + 1e-9])
@pytest.mark.parametrize("kind", ["disk", "square"])
def test_sample_equals_meshgrid_layout(kind, size, h):
    dom = grid.Domain2D(kind, size)
    calls = []

    def field(p):
        calls.append(p.copy())
        return 3.0 * p[:, 0] - p[:, 1] ** 2

    gf = grid.sample(field, dom, h)
    want = meshgrid_layout(dom, h)
    assert gf.nodes.shape == want.shape and gf.nodes.dtype == want.dtype
    assert np.array_equal(gf.nodes.view(np.int64), want.view(np.int64))
    assert len(calls) == 1 and np.array_equal(calls[0].view(np.int64), want.view(np.int64))
    assert np.array_equal(gf.values.view(np.int64), field(want).view(np.int64))


def test_sample_slack_decides_boundary_nodes():
    # the layout test's sizes reach the slack: 1 - 5e-10 keeps the nodes at
    # distance 1, which 1 - 2e-9 drops
    for kind in ("disk", "square"):
        near = grid.sample(lambda p: np.zeros(len(p)), grid.Domain2D(kind, 1.0 - 5e-10), 0.1)
        past = grid.sample(lambda p: np.zeros(len(p)), grid.Domain2D(kind, 1.0 - 2e-9), 0.1)
        assert np.any(np.isclose(np.abs(near.nodes).max(axis=1), 1.0, rtol=0, atol=1e-12))
        assert len(past) < len(near)


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
    # a field is called once, on all nodes: its errors propagate, and a result
    # of any shape but (N,) is an error
    dom = grid.Domain2D.square(1.0)

    def scalar_only(p):
        return 0.5 * (float(p[0]) ** 2 + float(p[1]) ** 2)  # TypeError on an (N, 2) array

    with pytest.raises(TypeError):
        grid.sample(scalar_only, dom, 0.25)
    for wrong in (lambda p: 0.0, lambda p: np.zeros((len(p), 1)), lambda p: np.zeros(3)):
        with pytest.raises(ValueError, match=r"not \(81,\)"):
            grid.sample(wrong, dom, 0.25)

    def broken(p):
        if np.ndim(p) == 2:
            raise ZeroDivisionError("fault in the vectorised branch")
        return quadratic(p)[0]

    with pytest.raises(ZeroDivisionError):
        grid.sample(broken, dom, 0.25)


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
        # rows 5-9 hold x2 = -1 and x1 = -1, -0.5, ..., 1: a swapped pair, a
        # repeated node, and a row in order that the next row is not after
        ({8: "1.0 -1.0 1.0", 9: "0.5 -1.0 0.625"}, "line 9: node is not after"),
        ({7: "-0.5 -1.0 0.625"}, "line 7: node is not after"),
        ({7: "0.0 -0.5 2.0"}, "line 8: node is not after"),
        ({7: "0.25 -0.5 2.0"}, "line 7: node is not on the pitch-h lattice"),
        # a pitch that puts every node at lattice point 0, where the fast
        # conjugate read them and went wrong without an error; and one at
        # which x / h overflows
        ({3: "h inf"}, "line 3: spacing must be positive and finite"),
        ({3: "h 1e12"}, "line 6: node is not after"),
        ({3: "h 5e-324"}, "line 5: node is not on the pitch-h lattice"),
        # a domain is an origin-centred disk or square
        ({2: "domain polygon -1 -1 1 -1 0 1"}, "line 2: expected 'domain <kind> <size>'"),
        ({2: "domain polygon 1.0"}, "line 2: unknown domain kind 'polygon'"),
        ({2: "domain disk one"}, "line 2: domain size must be a number"),
        ({2: "domain square -1.0"}, "line 2: square/disk domains need a positive size"),
    ],
    ids=["number", "inf", "nan", "lattice", "count", "negative-n", "nan-then-number",
         "count-then-lattice", "value-before-lattice", "lattice-then-number",
         "nan-x1", "inf-x1", "nan-x2", "inf-x2", "value-before-coordinate",
         "coordinate-then-lattice", "swapped", "repeated", "order-then-row",
         "lattice-then-order", "infinite-pitch", "huge-pitch", "subnormal-pitch",
         "polygon", "polygon-size", "size-not-a-number", "negative-size"],
)
def test_load_names_first_bad_line(tmp_path, edits, message):
    path = _edited_gfn(tmp_path, edits)
    with pytest.raises(MalformedFile, match=message):
        grid.load(path)


@pytest.mark.parametrize(
    "edits, message",
    [
        ({11: "0.5 0.5", 14: "a b c"}, "line 11: expected 'x1 x2 value'"),
        ({11: "a b"}, "line 11: expected 'x1 x2 value'"),
        ({11: "x 0.5 1.0", 14: "0.5"}, "line 11: entries must be numbers"),
        ({5: ""}, "line 5: expected 'x1 x2 value'"),
        ({29: "1.0 1.0 x"}, "line 29: entries must be numbers"),
        ({29: "1.0 1.0"}, "line 29: expected 'x1 x2 value'"),
    ],
    ids=["count-then-number", "count-of-words", "number-then-count", "first-row-empty",
         "last-row-number", "last-row-count"],
)
def test_load_splits_rows_once_and_names_first_bad_line(tmp_path, edits, message):
    # the token count and the numbers come from one split of each row; the
    # parse stops at the first row without three tokens
    path = _edited_gfn(tmp_path, edits)
    with pytest.raises(MalformedFile, match=message):
        grid.load(path)


def test_load_rejects_rows_out_of_order(tmp_path):
    # the fast conjugate reads the rows as a lattice in (x2, x1) order, and
    # rows out of that order end it in a bare IndexError
    gf = grid.sample(quadratic, grid.Domain2D.disk(1.0), 0.25)
    path = tmp_path / "reversed.gfn"
    grid.save(gf, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:4] + lines[:3:-1]) + "\n")
    with pytest.raises(MalformedFile, match=r"line 6: node is not after the node before it"):
        grid.load(path)


@pytest.mark.parametrize(
    "h, rows, message",
    [
        # 3 valid rows whose lattice box is 1e7 + 1 by 1e7 + 1 points: its
        # index grid would take 8e14 bytes
        ("0.0001", ["0.0 0.0 0.0", "1000.0 0.0 0.0", "0.0 1000.0 0.0"],
         r"line 7: nodes span a lattice box of 1e\+14 nodes"),
        # a box of 4,097 by 4,096 points, one row past the 2^24 budget
        ("1.0", ["0.0 0.0 0.0", "4096.0 0.0 0.0", "0.0 4095.0 0.0"],
         r"line 7: nodes span a lattice box of 1.68e\+07 nodes"),
        ("1.0", ["0.0 0.0 0.0", "0.0 4096.0 0.0", "4096.0 4096.0 0.0"],
         r"line 7: nodes span a lattice box of 1.68e\+07 nodes"),
    ],
    ids=["far-nodes", "wide", "tall-then-wide"],
)
def test_load_rejects_a_lattice_box_over_budget(tmp_path, h, rows, message):
    path = tmp_path / "wide.gfn"
    path.write_text("\n".join(["GFN 1", "domain square 5000.0", f"h {h}", f"n {len(rows)}"]
                              + rows) + "\n")
    with pytest.raises(MalformedFile, match=message):
        grid.load(path)


def test_load_takes_a_lattice_box_at_the_budget(tmp_path):
    # 4,096 by 4,096 points is MAX_LATTICE_NODES exactly
    path = tmp_path / "budget.gfn"
    path.write_text("GFN 1\ndomain square 5000.0\nh 1.0\nn 3\n"
                    "0.0 0.0 0.0\n4095.0 0.0 0.0\n0.0 4095.0 0.0\n")
    assert len(grid.load(path)) == 3


def test_load_short_file_after_good_lines(tmp_path):
    path = _edited_gfn(tmp_path, {})
    path.write_text("\n".join(path.read_text().splitlines()[:20]) + "\n")
    with pytest.raises(MalformedFile, match="line 21: unexpected end of file"):
        grid.load(path)


domains = st.builds(grid.Domain2D, st.sampled_from(["square", "disk"]), st.floats(0.3, 1.5))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(dom=domains, h=st.floats(0.02, 0.2))
def test_sample_lays_nodes_out_in_order_property(dom, h):
    nodes = grid.sample(lambda p: np.zeros(len(p)), dom, h).nodes
    assert np.array_equal(np.lexsort((nodes[:, 0], nodes[:, 1])), np.arange(len(nodes)))


@st.composite
def gfn_cases(draw):
    dom = draw(domains)
    h = draw(st.floats(0.15, 0.6))
    n = len(grid.sample(lambda p: np.zeros(len(p)), dom, h))
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
    assert back.domain == gf.domain
    assert back.h == gf.h
    assert np.array_equal(back.nodes, gf.nodes)
    assert np.array_equal(back.values, gf.values)


def test_interior_mask_square():
    gf = grid.sample(lambda p: np.zeros(len(p)), grid.Domain2D.square(1.0), 0.5)
    assert gf.interior_mask.sum() == 9  # inner 3x3 of the 5x5 lattice
    inner = gf.nodes[gf.interior_mask]
    assert np.abs(inner).max() <= 0.5 + 1e-12


def test_domain_boundary_distance():
    d = grid.Domain2D.disk(2.0)
    assert np.isclose(d.boundary_distance(np.array([[1.0, 0.0]]))[0], 1.0)
    s = grid.Domain2D.square(1.0)
    assert np.isclose(s.boundary_distance(np.array([[0.25, -0.5]]))[0], 0.5)


_UNIT_OFFSETS = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)]
_LATTICES = {
    "disk": (grid.Domain2D.disk(1.0), 0.1),
    "square": (grid.Domain2D.square(1.0), 0.125),
    "polygon": ([[-1.0, -0.8], [1.0, -0.8], [0.3, 1.0]], 0.07),  # asymmetric nodes
}


def _lattice(case):
    where, h = _LATTICES[case]
    if case != "polygon":
        return grid.sample(quadratic, where, h)
    nodes = polygon_lattice(where, h)
    return grid.GridFunction(domain=grid.Domain2D.square(1.0), h=h, nodes=nodes,
                             values=quadratic(nodes))


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


@pytest.mark.parametrize("case", list(_LATTICES))
def test_grid_value_at_is_exact_at_nodes(case):
    # a node k h is stored rounded, and x / h can round below k: floor then
    # took k - 1 and blended the neighbours, at 92 of the 317 nodes of the
    # quadratic on disk(1) at h = 0.1
    from ma2d import sections

    gf = _lattice(case)
    assert case != "disk" or len(gf) == 317
    assert [sections._grid_value_at(gf, x) for x in gf.nodes] == gf.values.tolist()
    # a base point that is not a node has no value: a cell's middle, a point
    # 1e-9 off a node, lattice points in the lattice box's padding and far
    # beyond it, and NaN
    lo, hi = gf.nodes.min(axis=0), gf.nodes.max(axis=0)
    for x in [gf.nodes[0] + 0.5 * gf.h, gf.nodes[0] + [1e-9, 0.0], lo - gf.h, hi + gf.h,
              [-1e3, 1e3], [np.nan, 0.0]]:
        with pytest.raises(ValueError, match="is not a node"):
            sections._grid_value_at(gf, np.asarray(x, dtype=float))
    k = grid.lattice_coordinates(gf.nodes, gf.h)
    assert np.array_equal(k, gf.lattice_indices) and np.array_equal(k, np.rint(gf.nodes / gf.h))
    # away from the nodes the coordinates are x / h, and rint takes the same integers
    off = np.random.default_rng(4).uniform(-9.0, 9.0, size=(1000, 2))
    assert np.array_equal(grid.lattice_coordinates(off, gf.h), off / gf.h)
    assert np.array_equal(np.rint(grid.lattice_coordinates(gf.nodes + 1e-9, gf.h)),
                          np.rint((gf.nodes + 1e-9) / gf.h))
