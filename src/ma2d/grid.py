"""Origin-centred disk and square domains, lattice-sampled scalar fields, and
right-hand-side families.

The lattice is always anchored at the origin, so every node set is
symmetric under x -> -x and holds the origin.  Nodes are ordered
lexicographically by (x2, x1) so every downstream computation is
deterministic: ``sample`` lays them out in that order, and ``load`` rejects
a file whose rows are not in it.  A field is vectorised: one call on the
(N, 2) nodes gives N values.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AlphaOutOfRange, LatticeTooLarge, MalformedFile, NonfiniteValue

_SNAP = 1e-9  # relative slack when testing lattice membership at the boundary
# A lattice coordinate x / h within _SNAP_EPS |k| of an integer k, 4 to 8
# ulps of k, is k.
_SNAP_EPS = 4 * np.finfo(float).eps
# Most lattice nodes ``sample`` lays out in a domain's bounding box, about
# 1 GB of index and coordinate arrays; about 100x the 401 x 401 box of the
# largest lattice the acceptance criteria sample.
MAX_LATTICE_NODES = 2**24


@dataclass(frozen=True)
class Domain2D:
    """Origin-centred planar domain: the disk of radius ``size`` or the
    square of half-width ``size``."""

    kind: str
    size: float

    def __post_init__(self):
        if self.kind not in ("square", "disk"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if not np.isfinite(self.size) or self.size <= 0:
            raise ValueError("square/disk domains need a positive size")

    @staticmethod
    def square(halfwidth: float) -> "Domain2D":
        return Domain2D("square", size=float(halfwidth))

    @staticmethod
    def disk(radius: float) -> "Domain2D":
        return Domain2D("disk", size=float(radius))

    def contains(self, points, slack: float = 0.0) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "square":
            return np.abs(pts).max(axis=1) <= self.size + slack
        return np.hypot(pts[:, 0], pts[:, 1]) <= self.size + slack

    def boundary_distance(self, points) -> np.ndarray:
        """Distance from points to the domain boundary (negative outside)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "square":
            return self.size - np.abs(pts).max(axis=1)
        return self.size - np.hypot(pts[:, 0], pts[:, 1])

    def bbox(self):
        s = self.size
        return np.array([-s, -s]), np.array([s, s])

    @property
    def diameter(self) -> float:
        if self.kind == "disk":
            return 2.0 * self.size
        return 2.0 * np.sqrt(2.0) * self.size


@dataclass(frozen=True)
class RhsField:
    """Right-hand-side density f for det D2 v = f.

    Kinds:
      constant          f = 1
      dual_translator   f(x) = (eta + |x|^2) ** (1/(2 alpha) - 2), eta in [0, 1]
      degenerate        f(x) = |x1| ** (1/alpha - 4), zero on the x2-axis
    """

    kind: str
    alpha: float | None = None
    eta: float | None = None

    def __post_init__(self):
        if self.kind not in ("constant", "dual_translator", "degenerate"):
            raise ValueError(f"unknown rhs kind {self.kind!r}")
        if self.kind in ("dual_translator", "degenerate"):
            check_alpha(self.alpha)
        if self.kind == "dual_translator":
            eta = 1.0 if self.eta is None else float(self.eta)
            if not 0.0 <= eta <= 1.0:
                raise ValueError("eta must lie in [0, 1]")
            object.__setattr__(self, "eta", eta)

    def __call__(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "constant":
            return np.ones(len(pts))
        if self.kind == "dual_translator":
            r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
            return (self.eta + r2) ** (1.0 / (2.0 * self.alpha) - 2.0)
        return np.abs(pts[:, 0]) ** (1.0 / self.alpha - 4.0)


def check_alpha(alpha) -> float:
    """Validate the flow power; the admissible range is the open interval (0, 1/4)."""
    if alpha is None or not np.isfinite(alpha) or not 0.0 < float(alpha) < 0.25:
        raise AlphaOutOfRange(f"alpha must lie in (0, 1/4), got {alpha!r}")
    return float(alpha)


@dataclass(frozen=True)
class GridFunction:
    """Scalar samples on the intersection of the pitch-h lattice with a domain."""

    domain: Domain2D
    h: float
    nodes: np.ndarray   # (N, 2), lexicographic by (x2, x1)
    values: np.ndarray  # (N,)

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if len(self.nodes) != len(self.values):
            raise ValueError("nodes and values must have equal length")

    def __len__(self):
        return len(self.nodes)

    @cached_property
    def lattice_indices(self) -> np.ndarray:
        """Integer lattice coordinates (k1, k2) of each node."""
        return np.rint(lattice_coordinates(self.nodes, self.h)).astype(np.int64)

    @cached_property
    def _id_grid(self) -> tuple:
        """(grid, lo, at): the node index at each point of the lattice box
        padded by one point on every side, -1 where there is no node; the
        lattice coordinates of grid[0, 0]; and each node's position in the
        flattened grid."""
        k = self.lattice_indices
        lo, hi = lattice_box(k)
        lo = lo - 1
        shape = hi - lo + 2
        grid = np.full(shape, -1, dtype=np.int64)
        at = (k[:, 0] - lo[0]) * shape[1] + (k[:, 1] - lo[1])
        grid.ravel()[at] = np.arange(len(k))
        return grid, lo, at

    def neighbor_ids(self, offset) -> np.ndarray:
        """Node index of (node + h * offset) per node, or -1 when absent, for
        a unit offset: components in {-1, 0, 1}, not both 0.  The padding of
        ``_id_grid`` keeps every such neighbour inside the grid, so it is one
        gather with no bounds test; any other offset raises ValueError."""
        if len(offset) != 2 or not all(v in (-1, 0, 1) for v in offset) or not any(offset):
            raise ValueError(f"offset must be a unit lattice offset, got {offset!r}")
        grid, _, at = self._id_grid
        return grid.ravel()[at + (int(offset[0]) * grid.shape[1] + int(offset[1]))]

    @cached_property
    def lattice_edges(self) -> np.ndarray:
        """(E, 2) node index pairs of the lattice edges: (x, x + h e1) for
        every edge along x1, then (x, x + h e2) for every edge along x2, each
        block in node order."""
        pairs = []
        for off in ((1, 0), (0, 1)):
            nb = self.neighbor_ids(off)
            ok = np.flatnonzero(nb >= 0)
            pairs.append(np.stack([ok, nb[ok]], axis=1))
        return np.concatenate(pairs)

    @cached_property
    def interior_mask(self) -> np.ndarray:
        """True where all four axis neighbors exist on the lattice."""
        ok = np.ones(len(self), dtype=bool)
        for off in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ok &= self.neighbor_ids(off) >= 0
        return ok

    @property
    def boundary_mask(self) -> np.ndarray:
        return ~self.interior_mask

    def argmin_node(self) -> int:
        return int(np.argmin(self.values))


def lattice_box(k: np.ndarray) -> tuple:
    """The least and the greatest (k1, k2) of (N, 2) integer lattice
    coordinates, one column at a time: numpy's axis-0 reduction of a
    two-column array is some twenty times slower, with the same result."""
    return (np.array([k[:, 0].min(), k[:, 1].min()]),
            np.array([k[:, 0].max(), k[:, 1].max()]))


def lattice_coordinates(points, h: float) -> np.ndarray:
    """The lattice coordinates x / h of points x of the plane, each one that
    lies within _SNAP_EPS |k| of an integer k snapped to it.  A node k h is
    stored rounded, and its x / h can round off k by an ulp, to either side:
    snapped, it is k exactly, so floor takes k and rint does as before."""
    x = np.asarray(points, dtype=float) / h
    k = np.rint(x)
    np.copyto(x, k, where=np.abs(x - k) <= _SNAP_EPS * np.abs(k))
    return x


def sample(field, domain: Domain2D, h: float) -> GridFunction:
    """Sample a vectorised field on the origin-anchored pitch-h lattice inside
    domain.

    The rows of the (x1, x2) meshgrid run k2-major with k1 ascending, and k h
    is monotone in k, so the nodes come out in (x2, x1) order with no sort.
    ``field`` is called once, on the (N, 2) nodes (``_evaluate``).
    """
    if not np.isfinite(h) or h <= 0:
        raise ValueError("spacing h must be positive")
    check_lattice_budget(domain, h)
    slack, k_lo, k_hi = _lattice_box(domain, h)
    k1 = np.arange(int(k_lo[0]), int(k_hi[0]) + 1)
    k2 = np.arange(int(k_lo[1]), int(k_hi[1]) + 1)
    g1, g2 = np.meshgrid(k1, k2, indexing="xy")
    nodes = np.stack([g1.ravel() * h, g2.ravel() * h], axis=1)
    nodes = nodes[domain.contains(nodes, slack=slack)]
    values = _evaluate(field, nodes)
    if not np.all(np.isfinite(values)):
        bad = nodes[~np.isfinite(values)][0]
        raise NonfiniteValue(f"field is not finite at node ({bad[0]}, {bad[1]})")
    return GridFunction(domain=domain, h=float(h), nodes=nodes, values=values)


def _lattice_box(domain: Domain2D, h: float):
    """Membership slack and the float lattice index range (k_lo, k_hi) of the
    domain's bounding box."""
    lo, hi = domain.bbox()
    slack = _SNAP * max(1.0, float(np.abs([lo, hi]).max()))
    with np.errstate(over="ignore"):  # a subnormal h gives infinite indices
        return slack, np.ceil((lo - slack) / h), np.floor((hi + slack) / h)


def check_lattice_budget(domain: Domain2D, h: float) -> None:
    """Raise LatticeTooLarge when the pitch-h lattice box that ``sample`` lays
    out for the domain has more than ``MAX_LATTICE_NODES`` nodes."""
    _, k_lo, k_hi = _lattice_box(domain, h)
    n1, n2 = (max(float(n), 0.0) for n in k_hi - k_lo + 1.0)
    count = n1 * n2  # Python floats: inf, not an overflow warning, for tiny h
    if not count <= MAX_LATTICE_NODES:
        raise LatticeTooLarge(
            f"pitch {h!r} lays out {count:.3g} lattice nodes, "
            f"more than the budget of {MAX_LATTICE_NODES}"
        )


def _evaluate(field, nodes: np.ndarray) -> np.ndarray:
    """Float values of ``field`` at the (N, 2) nodes, from one call on all of
    them; raises ValueError when the call returns no (N,) array."""
    out = np.asarray(field(nodes), dtype=float)
    if out.shape != (len(nodes),):
        raise ValueError(f"field gave shape {out.shape} at {len(nodes)} nodes, not ({len(nodes)},)")
    return out


# ---------------------------------------------------------------------------
# .gfn persistence: a 4-line header followed by one "x1 x2 value" row per node.
# ---------------------------------------------------------------------------

def save(gf: GridFunction, path) -> None:
    lines = ["GFN 1", f"domain {gf.domain.kind} {float(gf.domain.size)!r}"]
    lines.append("h " + repr(float(gf.h)))
    lines.append("n " + str(len(gf)))
    # one repr per distinct coordinate, keyed on its bits so that -0.0 and 0.0
    # stay apart; Python floats: repr(x) == repr(float(x))
    bits, at = np.unique(gf.nodes.reshape(-1, 2).view(np.int64), return_inverse=True)
    coord = np.array([repr(c) + " " for c in bits.view(float).tolist()], dtype=object)
    x1, x2 = coord[at.reshape(-1, 2)].T
    lines.extend(x1 + x2 + np.array(list(map(repr, gf.values.tolist())), dtype=object))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load(path) -> GridFunction:
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read().splitlines()

    def fail(lineno, why):
        raise MalformedFile(f"{path}: line {lineno}: {why}")

    def tokens(lineno):
        if lineno - 1 >= len(raw):
            fail(lineno, "unexpected end of file")
        return raw[lineno - 1].split()

    t = tokens(1)
    if t != ["GFN", "1"]:
        fail(1, "expected header 'GFN 1'")
    t = tokens(2)
    if len(t) != 3 or t[0] != "domain":
        fail(2, "expected 'domain <kind> <size>'")
    try:
        size = float(t[2])
    except ValueError:
        fail(2, "domain size must be a number")
    try:
        domain = Domain2D(t[1], size)
    except ValueError as exc:
        fail(2, str(exc))
    t = tokens(3)
    if len(t) != 2 or t[0] != "h":
        fail(3, "expected 'h <spacing>'")
    try:
        h = float(t[1])
    except ValueError:
        fail(3, "spacing must be a number")
    if not 0 < h < np.inf:  # an infinite pitch puts every finite node at k = 0
        fail(3, "spacing must be positive and finite")
    t = tokens(4)
    if len(t) != 2 or t[0] != "n":
        fail(4, "expected 'n <node-count>'")
    try:
        n = int(t[1])
    except ValueError:
        fail(4, "node count must be an integer")
    if n < 0:
        fail(4, "node count must not be negative")
    # the first bad node line is reported, with the first check it fails:
    # token count, then numbers, then a finite value, then finite
    # coordinates, then the lattice, then the (x2, x1) order
    rows = raw[4 : 4 + n]
    # each row is split once: one branch of the tee counts its tokens, and
    # the other yields the rows before the first without three
    counted, split = itertools.tee(map(str.split, rows))
    try:
        data = _parse_numbers(itertools.compress(
            split, itertools.takewhile((3).__eq__, map(len, counted))))
    except ValueError:
        bad = next(i for i, line in enumerate(rows) if not _numbers(line))
        data = _parse_numbers(map(str.split, rows[:bad]))
    good = len(data)
    nodes, values = np.ascontiguousarray(data[:, :2]), data[:, 2].copy()
    with np.errstate(over="ignore", invalid="ignore"):
        x = nodes / h
        k = np.rint(x)
        off = ~np.all(np.abs(x - k) <= 1e-9, axis=1)  # x - k is NaN where x / h overflows
    finite_xy = np.isfinite(nodes).all(axis=1)
    # each row's lattice coordinates strictly after the row before's in
    # (k2, k1) order, which also rules out two rows at one lattice point
    k1, k2 = k.T
    after = np.ones(len(nodes), dtype=bool)
    after[1:] = (k2[1:] > k2[:-1]) | ((k2[1:] == k2[:-1]) & (k1[1:] > k1[:-1]))
    bad = ~np.isfinite(values) | ~finite_xy | off | ~after
    if bad.any():
        i = int(np.argmax(bad))
        if not np.isfinite(values[i]):
            fail(5 + i, "value is not finite")
        fail(5 + i, "coordinate is not finite" if not finite_xy[i]
             else "node is not on the pitch-h lattice" if off[i]
             else "node is not after the node before it in (x2, x1) order")
    if good < len(rows):
        fail(5 + good, "expected 'x1 x2 value'" if len(rows[good].split()) != 3
             else "entries must be numbers")
    if len(rows) < n:
        fail(5 + len(rows), "unexpected end of file")
    # the lattice box of the nodes, which GridFunction._id_grid lays out,
    # within the budget of ``sample``, else the first row that widens it
    # past; the rows run in (k2, k1) order, so k2 spans k2[0] to k2[-1]
    with np.errstate(over="ignore"):
        if len(k) and not ((k1.max() - k1.min() + 1.0) * (k2[-1] - k2[0] + 1.0)
                           <= MAX_LATTICE_NODES):
            box = ((np.maximum.accumulate(k1) - np.minimum.accumulate(k1) + 1.0)
                   * (k2 - k2[0] + 1.0))
            i = int(np.argmax(~(box <= MAX_LATTICE_NODES)))
            fail(5 + i, f"nodes span a lattice box of {box[i]:.3g} nodes, "
                 f"more than the budget of {MAX_LATTICE_NODES}")
    extra = 5 + n
    while extra - 1 < len(raw):
        if raw[extra - 1].strip():
            fail(extra, "trailing data after declared node count")
        extra += 1
    return GridFunction(domain=domain, h=h, nodes=nodes, values=values)


def _parse_numbers(rows) -> np.ndarray:
    """The (rows, 3) floats of split rows of three tokens, each parsed by
    ``float``; raises ValueError when a token is not a number."""
    flat = itertools.chain.from_iterable(rows)
    return np.fromiter(map(float, flat), dtype=float).reshape(-1, 3)


def _numbers(line) -> bool:
    try:
        for tok in line.split():
            float(tok)
    except ValueError:
        return False
    return True
