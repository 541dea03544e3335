"""The exact discrete solution concept: envelopes, cells, masses.

A piecewise-linear convex function is the lower convex hull of lifted sites;
its Monge-Ampere measure is atomic, with the mass at a site equal to the
area of the polygonal subdifferential there.  Everything below is exact up
to floating point, no discretization parameter involved.
"""
import numpy as np

from ma2d import grid, ma_measure

# a square pyramid: the apex collects all the curvature
sites = np.array([[-1.0, -1], [1, -1], [1, 1], [-1, 1], [0, 0]])
heights = np.array([1.0, 1, 1, 1, 0])
pyramid = ma_measure.lower_envelope(sites, heights)
cells = pyramid.cells  # the hull-interior sites' cells, as arrays
print("pyramid max(|x1|, |x2|)-style lift:")
for i, area in zip(cells.sites.tolist(), cells.areas.tolist()):
    print(f"  site {i} at {pyramid.sites[i]}: cell area {area}")
print("  (the apex cell is the hull of the four face gradients, area 2)")

# a sampled cone: the apex mass approaches the area pi of the unit disk of slopes
gf = grid.sample(lambda p: np.hypot(p[:, 0], p[:, 1]), grid.Domain2D.disk(1.0), 0.04)
cone = ma_measure.lower_envelope(gf.nodes, gf.values)
cells = cone.cells
apex = np.flatnonzero(np.isclose(cone.sites[cells.sites], 0.0).all(axis=1))[0]
print(f"\ncone |x| sampled at h = 0.04: apex mass {cells.areas[apex]:.5f} vs pi = {np.pi:.5f}")

# the Gauss-map weight (1 + |y|^2)^(-3/2) turns cell areas into spherical areas
gauss = lambda y: (1.0 + y[:, 0] ** 2 + y[:, 1] ** 2) ** (-1.5)
gm = ma_measure.weighted_mass(cells, gauss)[apex]
closed = 2 * np.pi * (1 - 1 / np.sqrt(2))
print(f"gauss-map mass of the apex cell {gm:.5f} vs closed form {closed:.5f}")

# the graph-equation identity on the sampled rotationally symmetric solution
from ma2d import oracle

prof = oracle.RadialProfile(alpha=1 / 8, kind="primal_translator")
gf = grid.sample(prof, grid.Domain2D.disk(1.0), 0.03)
pl = ma_measure.lower_envelope(gf.nodes, gf.values)
radii = np.hypot(gf.nodes[:, 0], gf.nodes[:, 1])
subset = np.flatnonzero((radii >= 0.3) & (radii <= 0.7) & pl.hull_interior)
rep = ma_measure.check_translator_identity(pl, 1 / 8, subset)
print(
    f"\ngraph-equation balance on an annulus: measure side {rep.measure_side:.6f}, "
    f"integral side {rep.integral_side:.6f}, relative residual {rep.relative_residual:.2e}"
)
