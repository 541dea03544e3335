import numpy as np
import pytest

# ``cli`` is imported for its literals: Hypothesis draws some values from the
# numeric literals of the local modules loaded when a test runs, and ``ma2d``
# itself loads every module but ``cli``.  So a derandomized test draws the same
# inputs whether its file runs alone or in the full suite.
from ma2d import cli, geometry, grid, oracle, solver  # noqa: F401

DATA = __file__.rsplit("/", 1)[0] + "/data"


@pytest.fixture(scope="session")
def dual_profile_8():
    return oracle.RadialProfile(alpha=1 / 8, kind="dual_translator")


@pytest.fixture(scope="session")
def primal_profile_8():
    return oracle.RadialProfile(alpha=1 / 8, kind="primal_translator")


@pytest.fixture(scope="session")
def solved_dual_disk8(dual_profile_8):
    """The big dual-equation solve shared by several acceptance criteria.

    Returns (problem, report, solve_seconds); the wall time is charged to
    the verify-dual acceptance budget.
    """
    import time

    dom = grid.Domain2D.disk(8.0)
    rhs = grid.RhsField("dual_translator", alpha=1 / 8, eta=1.0)
    t0 = time.perf_counter()
    problem = solver.build_problem(dom, 0.125, rhs, dual_profile_8)
    report = solver.solve(problem, tol=1e-6)
    return problem, report, time.perf_counter() - t0


def quadratic(p):
    p = np.atleast_2d(p)
    return 0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2)


def polygon_edges(vertices):
    """The directed edges ``(a_k, e_k)`` of a polygon: a_k is vertex k and
    e_k runs from it to the next vertex."""
    a = np.asarray(vertices, dtype=float)
    return a, np.roll(a, -1, axis=0) - a


def polygon_lattice(vertices, h):
    """The nodes k h of the origin-anchored pitch-h lattice in a ccw convex
    polygon, in (x2, x1) order: an asymmetric node set.  Nodes within 1e-9
    of the boundary, relative to the polygon's size, count as inside."""
    v = np.asarray(vertices, dtype=float)
    scale = max(1.0, float(np.abs(v).max()))
    slack = 1e-9 * scale
    k1, k2 = (np.arange(int(np.ceil((lo - slack) / h)), int(np.floor((hi + slack) / h)) + 1)
              for lo, hi in zip(v.min(axis=0), v.max(axis=0)))
    g1, g2 = np.meshgrid(k1, k2, indexing="xy")
    nodes = np.stack([g1.ravel() * h, g2.ravel() * h], axis=1)
    return nodes[geometry.min_edge_cross(nodes, *polygon_edges(v)) >= -slack * scale]
