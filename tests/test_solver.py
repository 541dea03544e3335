import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from ma2d import grid, oracle, solver
from ma2d.errors import InfeasibleBoundary, NoConvergence

from conftest import polygon_lattice, quadratic


def unit_problem(h, rhs=None, boundary=quadratic):
    dom = grid.Domain2D.square(1.0)
    return solver.build_problem(dom, h, rhs or grid.RhsField("constant"), boundary)


def test_target_masses_constant():
    prob = unit_problem(0.1)
    t = prob.targets[prob.interior]
    assert np.allclose(t, 0.1 * 0.1, rtol=1e-15)


def test_target_masses_dual_two_digit():
    rhs = grid.RhsField("dual_translator", alpha=1 / 8, eta=1.0)
    dom = grid.Domain2D.square(0.5)
    prob = solver.build_problem(dom, 0.1, rhs, quadratic)
    gf = prob.grid
    i = np.flatnonzero((gf.nodes[:, 0] == 0) & (gf.nodes[:, 1] == 0))[0]
    got = prob.targets[i]
    # independent degree-4 quadrature over the lattice cell
    from ma2d.geometry import polygon_quadrature

    cell = 0.05 * np.array([[-1.0, -1], [1, -1], [1, 1], [-1, 1]])
    ref = polygon_quadrature(cell, rhs)
    assert abs(got - ref) / ref < 2e-3  # composite-midpoint error scale
    assert abs(got - 0.01) / 0.01 < 5e-3  # agrees with 0.01 to two digits


def test_target_masses_degenerate_axis_positive():
    rhs = grid.RhsField("degenerate", alpha=1 / 8)
    prob = solver.build_problem(grid.Domain2D.square(0.5), 0.125, rhs, quadratic)
    gf = prob.grid
    on_axis = prob.interior & (gf.nodes[:, 0] == 0.0)
    assert on_axis.any()
    assert np.all(prob.targets[on_axis] > 0)


def test_solve_quadratic_reproduction():
    prob = unit_problem(0.1)
    rep = solver.solve(prob, tol=1e-8)
    err = np.abs(rep.grid.values - quadratic(prob.grid.nodes))
    assert err.max() < 0.01
    assert rep.max_residual <= 1e-8
    assert solver.residual(rep.function, prob) <= 1e-8


def test_residual_exact_quadratic():
    prob = unit_problem(0.1)
    pl = solver.lower_envelope(prob.grid.nodes, quadratic(prob.grid.nodes))
    assert solver.residual(pl, prob) <= 1e-12


def test_residual_affine_full_deficit():
    prob = unit_problem(0.25)
    pl = solver.lower_envelope(prob.grid.nodes, 0.3 * prob.grid.nodes[:, 0])
    assert solver.residual(pl, prob) == 1.0


def test_solve_tol_zero_rejected():
    prob = unit_problem(0.25)
    with pytest.raises(NoConvergence):
        solver.solve(prob, tol=0.0)


def test_solve_infeasible_boundary():
    with pytest.raises(InfeasibleBoundary):
        prob = unit_problem(0.25, boundary=lambda p: -quadratic(p))
        solver.solve(prob, tol=1e-6)


def test_newton_failure_raises_with_its_residual():
    # tol sits below what the degenerate problem's Newton iteration can reach,
    # so the solve must stop and report the residual of the heights it left
    rhs = grid.RhsField("degenerate", alpha=1 / 8)
    prob = unit_problem(0.1, rhs=rhs, boundary=oracle.SeparableSolution(alpha=1 / 8, a=1.0))
    with pytest.raises(NoConvergence) as info:
        solver.solve(prob, tol=1e-20)
    assert info.value.residual <= 1e-9
    assert "Newton" in str(info.value)
    # the work counters up to the failure; the last line search halved 24 times
    err, work = info.value, info.value.work
    assert "line search found no descent" in str(err)
    assert work.newton_steps > 0 and work.backtracks >= 24
    assert len(work.residuals) == work.newton_steps + 1 and work.residuals[-1] == err.residual
    assert len(work.step_lengths) == work.newton_steps and 0.0 < min(work.step_lengths) <= 1.0
    # the failed step solved its Newton system before its line search
    assert len(work.cg_iterations) == work.newton_steps + 1 and min(work.cg_iterations) > 0
    assert work.newton_steps + 1 <= work.mass_passes <= work.newton_steps + 1 + work.backtracks
    assert 1 <= work.hull_builds <= work.mass_passes


def test_budget_exhaustion_carries_the_work_counters():
    bump = lambda p: quadratic(p) + 0.05 * (1 + np.sin(3 * p[:, 0]) * np.cos(p[:, 1]))
    with pytest.raises(NoConvergence, match="update budget exhausted") as info:
        solver.solve(unit_problem(0.25, boundary=bump), tol=1e-12, max_iters=1)
    # the first step is charged, and its full step accepted
    err, work = info.value, info.value.work
    assert (work.newton_steps, work.mass_passes, work.backtracks) == (1, 2, 0)
    assert len(work.residuals) == 2 and work.residuals[-1] == err.residual
    assert work.step_lengths == [1.0]
    assert len(work.cg_iterations) == 1 and work.cg_iterations[0] > 0
    assert 1 <= work.hull_builds <= work.mass_passes
    assert err.residual > 1e-12


def test_build_problem_boundary_evaluation():
    # the boundary is called once, on all boundary nodes, and its errors propagate
    def scalar_only(p):
        return 0.5 * (float(p[0]) ** 2 + float(p[1]) ** 2)  # TypeError on an (N, 2) array

    with pytest.raises(TypeError):
        unit_problem(0.25, boundary=scalar_only)

    def broken(p):
        if np.ndim(p) == 2:
            raise ZeroDivisionError("fault in the vectorised branch")
        return quadratic(p)[0]

    with pytest.raises(ZeroDivisionError):
        unit_problem(0.25, boundary=broken)


def _spd_quadratic(eigen, angle, tilt=(0.0, 0.0, 0.0)):
    """x.Ax/2 plus the affine c + b.x, for A of the given eigenvalues rotated by angle."""
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    A = rot @ np.diag(eigen) @ rot.T
    return lambda p: 0.5 * np.einsum("ij,jk,ik->i", p, A, p) + tilt[0] + p @ np.array(tilt[1:])


def _problem(disk, h, dual, boundary):
    dom = grid.Domain2D.disk(1.0) if disk else grid.Domain2D.square(1.0)
    rhs = grid.RhsField("dual_translator", alpha=1 / 8, eta=1.0) if dual else None
    return solver.build_problem(dom, h, rhs or grid.RhsField("constant"), boundary)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    disk=st.booleans(),
    h=st.sampled_from([0.25, 0.2]),
    dual=st.booleans(),
    eigen=st.tuples(st.floats(0.5, 4.0), st.floats(0.5, 4.0)),
    angle=st.floats(0.0, math.pi),
    tilt=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    amp=st.floats(0.0, 0.05),
    freq=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    phase=st.floats(0.0, 2.0 * math.pi),
)
@example(disk=False, h=0.25, dual=False, eigen=(1.0, 1.0), angle=0.0, tilt=(0.0, 0.0, 0.0),
         amp=0.05, freq=(3.0, 1.0), phase=0.0)
def test_comparison_principle(disk, h, dual, eigen, angle, tilt, amp, freq, phase):
    # boundary data g <= g + b with b = amp (1 + sin(k1 x + phase) cos(k2 y)) >= 0
    # give solutions u1 <= u2; |D2 b| <= amp |k|^2 <= the least eigenvalue of
    # D2 g keeps g + b convex, so its boundary samples admit a convex extension
    assume(amp * (freq[0] ** 2 + freq[1] ** 2) <= min(eigen))
    g = _spd_quadratic(eigen, angle, tilt)
    b = lambda p: amp * (1.0 + np.sin(freq[0] * p[:, 0] + phase) * np.cos(freq[1] * p[:, 1]))
    bump = lambda p: g(p) + b(p)
    r1 = solver.solve(_problem(disk, h, dual, g), tol=1e-9)
    r2 = solver.solve(_problem(disk, h, dual, bump), tol=1e-9)
    assert np.all(r1.grid.values <= r2.grid.values + 1e-8)


def test_mass_conservation():
    prob = unit_problem(0.2)
    rep = solver.solve(prob, tol=1e-9)
    measured = solver.ma_measure(rep.function)[prob.interior]
    targets = prob.targets[prob.interior]
    assert abs(measured.sum() - targets.sum()) <= len(targets) * 1e-9 * targets.max()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    disk=st.booleans(),
    h=st.sampled_from([0.25, 0.2]),
    dual=st.booleans(),
    eigen=st.tuples(st.floats(0.25, 4.0), st.floats(0.25, 4.0)),
    angle=st.floats(0.0, math.pi),
    tilt=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
)
@example(disk=True, h=0.2, dual=True, eigen=(0.25, 4.0), angle=0.5, tilt=(1.0, -1.0, 1.0))
def test_random_convex_data_converges_and_conserves_mass(disk, h, dual, eigen, angle, tilt):
    # boundary data: an SPD quadratic x.Ax/2 plus an affine tilt
    prob = _problem(disk, h, dual, _spd_quadratic(eigen, angle, tilt))
    rep = solver.solve(prob, tol=1e-8)
    assert rep.max_residual <= 1e-8
    assert solver.residual(rep.function, prob) <= 1e-8
    measured = solver.ma_measure(rep.function)[prob.interior]
    targets = prob.targets[prob.interior]
    assert abs(measured.sum() - targets.sum()) <= 1e-8 * targets.sum()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    disk=st.booleans(),
    h=st.sampled_from([0.25, 0.2]),
    dual=st.booleans(),
    eigen=st.tuples(st.floats(0.25, 4.0), st.floats(0.25, 4.0)),
    angle=st.floats(0.0, math.pi),
    ell=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
)
@example(disk=False, h=0.25, dual=False, eigen=(1.0, 1.0), angle=0.0, ell=(0.0, 0.0, 0.0))
def test_affine_covariance(disk, h, dual, eigen, angle, ell):
    prob = _problem(disk, h, dual, _spd_quadratic(eigen, angle))
    rep = solver.solve(prob, tol=1e-10)
    # boundary data tilted by an affine l: the solution plus l
    tilted = solver.solve(_problem(disk, h, dual, _spd_quadratic(eigen, angle, ell)), tol=1e-10)
    nodes = prob.grid.nodes
    lift = ell[0] + nodes @ np.array(ell[1:])
    assert np.max(np.abs(tilted.grid.values - (rep.grid.values + lift))) < 1e-6
    # the start is covariant too, so the tilt costs no step and no hull
    assert tilted.work.newton_steps == rep.work.newton_steps
    assert tilted.work.hull_builds == rep.work.hull_builds
    # shear the sites by a unimodular matrix: same targets, mapped solution.
    # A linear map keeps each chord's centre at the midpoint of its ends; it
    # does not keep a lattice square's corners cocircular, so no squares; the
    # start takes the lattice's pitch, the sheared sites' spacing along e1
    A = np.array([[1.0, 0.6], [0.0, 1.0]])
    state = solver._solve_state(nodes @ A.T, prob.interior, prob.boundary_values, prob.targets,
                                1e-10, 10**6, solver._chords(prob.grid), np.empty((0, 4), int),
                                prob.grid.h, prob.grid.lattice_indices)
    assert state.residual() <= 1e-10
    assert np.max(np.abs(state.heights - rep.grid.values)) < 1e-6


def test_refinement_radial_oracle(dual_profile_8):
    """Empirical convergence order of the max nodal error against the radial
    oracle over three pitches: about 2 (1.85, then 1.94).  Compare the
    pointwise error bounds of Nochetto & Zhang, *Pointwise rates of
    convergence for the Oliker-Prussner method* (Numer. Math. 2019)."""
    dom = grid.Domain2D.disk(2.0)
    rhs = grid.RhsField("dual_translator", alpha=1 / 8, eta=1.0)
    errs = []
    for h in (0.25, 0.125, 0.0625):
        prob = solver.build_problem(dom, h, rhs, dual_profile_8)
        rep = solver.solve(prob, tol=1e-10)
        errs.append(np.max(np.abs(rep.grid.values - dual_profile_8(prob.grid.nodes))))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.7), (errs, orders)


@pytest.mark.parametrize("case", ["bump", "degenerate"])
def test_one_hull_per_trial(case, monkeypatch):
    # the Newton loop makes one mass pass for its start and one per
    # line-search trial; Qhull runs only for a pass whose latest
    # triangulation fails its certificate, and not for the envelope, which
    # is the last accepted pass; Jacobians reuse the accepted pass; a coarse
    # factor is made per coarse level built, at most one per step when no
    # guard fires
    calls = {"_lower_faces": 0, "splu": 0}

    def counted(name):
        fn = getattr(solver, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(solver, name, wrapped)

    counted("_lower_faces")
    counted("splu")
    chord = solver._SolveState.above_a_chord
    rejected = []

    def counted_chord(state):
        rejected.append(chord(state))
        return rejected[-1]

    monkeypatch.setattr(solver._SolveState, "above_a_chord", counted_chord)
    if case == "bump":
        bump = lambda p: quadratic(p) + 0.05 * (1 + np.sin(3 * p[:, 0]) * np.cos(p[:, 1]))
        prob, tol = unit_problem(0.1, boundary=bump), 1e-9
    else:
        rhs = grid.RhsField("degenerate", alpha=1 / 8)
        prob = unit_problem(0.1, rhs=rhs, boundary=oracle.SeparableSolution(alpha=1 / 8, a=1.0))
        tol = 1e-6
    rep = solver.solve(prob, tol=tol)

    assert calls["_lower_faces"] == rep.work.hull_builds >= 1
    assert calls["splu"] == rep.work.coarse_builds
    assert 1 <= rep.work.coarse_builds <= rep.work.newton_steps
    assert rep.iterations == rep.work.newton_steps * int(prob.interior.sum())
    # each halving was a chord-test rejection, with no pass, or a pass that failed
    assert sum(rejected) + rep.work.mass_passes == rep.work.newton_steps + 1 + rep.work.backtracks
    if case == "bump":  # every trial that ran a pass was accepted
        assert rep.work.mass_passes == rep.work.newton_steps + 1
    else:  # the chord bound cut steps short, and left no trial to halve: a
        # step below 1 that is not a power of 2 was not reached by halving
        assert any(s < 1.0 and math.frexp(s)[0] != 0.5 for s in rep.work.step_lengths)
        assert rep.work.backtracks == 0
    assert rep.work.hull_builds <= rep.work.mass_passes
    # the envelope is lower_envelope's as a function, at every site and
    # between them, though its faces and gradients are the solver's own
    ref = solver.lower_envelope(prob.grid.nodes, rep.grid.values)
    for name in ("sites", "heights"):
        assert np.array_equal(getattr(rep.function, name), getattr(ref, name)), name
    # and the same sites lie on it: those that are vertices of the triangulation
    assert np.array_equal(np.unique(rep.function.triangulation), np.unique(ref.triangulation))
    points = np.vstack([prob.grid.nodes,
                        np.random.default_rng(3).uniform(-1.0, 1.0, size=(1000, 2))])
    scale = 1.0 + np.abs(rep.grid.values).max()
    assert np.max(np.abs(rep.function(points) - ref(points))) <= 1e-12 * scale


def exactly_concave_edges(pl) -> int:
    """Interior edges of the envelope's triangulation across which the lift
    is not locally convex in exact arithmetic: with the upward normal n of
    the ccw face (a, b, c) and the vertex d opposite its side, n . (P[d] -
    P[a]) < 0.  Every float is a dyadic rational, so ``Fraction`` is exact."""
    lifted = [tuple(map(Fraction, p)) for p in np.column_stack([pl.sites, pl.heights]).tolist()]
    tris = pl.triangulation.tolist()
    opposite = {(tri[(k + 1) % 3], tri[(k + 2) % 3]): tri[k] for tri in tris for k in range(3)}
    concave = 0
    for a, b, c in tris:
        pa, pb, pc = lifted[a], lifted[b], lifted[c]
        u = [pb[i] - pa[i] for i in range(3)]
        v = [pc[i] - pa[i] for i in range(3)]
        n = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
        assert n[2] > 0  # strictly ccw in the plane
        for p, q in ((b, c), (c, a), (a, b)):
            d = opposite.get((q, p))
            if d is not None and p < q:  # an interior edge, once
                w = [lifted[d][i] - pa[i] for i in range(3)]
                concave += n[0] * w[0] + n[1] * w[1] + n[2] * w[2] < 0
    return concave


def test_solved_envelope_is_exactly_convex():
    # the untilted degenerate h = 0.05 solve: an envelope rebuilt by Qhull on
    # the solved heights had 7 interior edges near the x1 = 0 column that are
    # concave in exact arithmetic, and the verifier read 7.1e-5 on it; the
    # solver's own certified pass is convex on every edge, and the verifier
    # agrees with the solver's residual
    rhs = grid.RhsField("degenerate", alpha=1 / 8)
    prob = unit_problem(0.05, rhs=rhs, boundary=oracle.SeparableSolution(alpha=1 / 8, a=1.0))
    rep = solver.solve(prob, tol=1e-6)
    assert exactly_concave_edges(rep.function) == 0
    verified = solver.residual(rep.function, prob)
    assert verified <= 1e-6
    assert rep.max_residual / 2.0 <= verified <= 2.0 * rep.max_residual


# ---------------------------------------------------------------------------
# the local-convexity certificate of a carried triangulation
# ---------------------------------------------------------------------------

def certified(topo, sites, heights) -> bool:
    """Whether ``topo`` is the lower hull of the heights as it is: it covers
    every site and passes the local-convexity certificate with no flip."""
    if not topo.covers:
        return False
    return solver._flip_to_lower_hull(topo, sites, heights, rounds=0)[1] is not None


@pytest.fixture(scope="module")
def solved_disk2(dual_profile_8):
    rhs = grid.RhsField("dual_translator", alpha=1 / 8, eta=1.0)
    prob = solver.build_problem(grid.Domain2D.disk(2.0), 0.25, rhs, dual_profile_8)
    rep = solver.solve(prob, tol=1e-8)
    sites, interior = prob.grid.nodes, prob.interior
    return sites, interior, rep, solver._mass_pass(sites, rep.grid.values, interior)


def test_certified_passes_skip_qhull(solved_disk2):
    sites, _, rep, hull = solved_disk2
    assert hull.hulls == (len(sites),) and hull.topo.covers
    assert rep.work.hull_builds < rep.work.mass_passes


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    center=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
    amp=st.floats(0.0, 0.1),
    power=st.floats(0.5, 2.0),
    tilt=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
)
@example(center=(0.0, 0.0), amp=0.0, power=1.0, tilt=(0.5, -1.0, 0.25))
@example(center=(0.3, -0.2), amp=0.1, power=0.5, tilt=(0.0, 0.0, 0.0))
def test_certified_pass_equals_qhull_pass(solved_disk2, center, amp, power, tilt):
    # a small convex perturbation amp |x - center|^(2 power) + affine of the
    # solved heights; when the solved triangulation certifies itself on
    # them, its masses are Qhull's
    sites, interior, rep, hull = solved_disk2
    r2 = np.sum((sites - np.array(center)) ** 2, axis=1)
    heights = rep.grid.values + amp * r2**power + tilt[0] + sites @ np.array(tilt[1:])
    carried = solver._mass_pass(sites, heights, interior, hull.topo)
    fresh = solver._mass_pass(sites, heights, interior)
    assert fresh.hulls == (len(sites),)
    if amp == 0.0:  # an affine change keeps the triangulation
        assert carried.hulls == ()
    if carried.hulls == ():  # certified as carried, or flipped: no hull
        if carried.flips == 0:
            assert carried.topo is hull.topo
        rel = np.abs(carried.areas[interior] - fresh.areas[interior]) / fresh.areas[interior]
        assert rel.max() <= 1e-12
    else:  # the repair gave up and Qhull built the pass
        assert np.array_equal(carried.areas, fresh.areas)


def test_certificate_rejects_a_dropped_vertex(solved_disk2):
    sites, interior, rep, hull = solved_disk2
    i = int(np.flatnonzero(interior)[len(np.flatnonzero(interior)) // 2])
    heights = rep.grid.values.copy()
    heights[i] += 1.0  # far above its neighbours: no longer a hull vertex
    assert not certified(hull.topo, sites, heights)
    lifted = solver._mass_pass(sites, heights, interior, hull.topo)
    assert lifted.hulls == (len(sites),) and not lifted.topo.covers
    assert lifted.areas[i] == 0.0
    # and a triangulation that misses a site certifies nothing
    assert not certified(lifted.topo, sites, rep.grid.values)


def test_certificate_rejects_a_concave_edge(solved_disk2):
    sites, interior, rep, hull = solved_disk2
    heights = rep.grid.values
    tris, twin = hull.topo.tris, hull.topo.twin.ravel()
    half = np.flatnonzero(twin > np.arange(len(twin)))  # each interior edge once
    face, opp = half // 3, tris.ravel()[twin[half]]
    lifted = np.column_stack([sites, heights])
    a, b, c = (lifted[tris[:, k]] for k in range(3))
    normal = np.cross(b - a, c - a)
    # height of each opposite vertex above the plane of its edge's face
    above = np.einsum("ij,ij->i", normal[face], lifted[opp] - a[face]) / normal[face, 2]
    inner = interior[opp]
    e = int(np.flatnonzero(inner)[np.argmin(above[inner])])
    dented = heights.copy()
    dented[opp[e]] -= 2.0 * above[e] + 1e-9  # a local dent below the face's plane
    assert not certified(hull.topo, sites, dented)
    # the pass flips the dent away, with no hull
    repaired = solver._mass_pass(sites, dented, interior, hull.topo)
    assert repaired.hulls == () and repaired.flips >= 1
    assert repaired.topo.covers
    assert certified(repaired.topo, sites, dented)
    fresh = solver._mass_pass(sites, dented, interior)
    rel = np.abs(repaired.areas[interior] - fresh.areas[interior]) / fresh.areas[interior]
    assert rel.max() <= 1e-12


def test_flips_give_up_on_a_dropped_vertex(solved_disk2):
    # a 2-2 flip keeps every vertex, so the edges about a site lifted off the
    # hull end blocked: the repair gives up with rounds to spare
    sites, interior, rep, hull = solved_disk2
    i = int(np.flatnonzero(interior)[len(np.flatnonzero(interior)) // 2])
    heights = rep.grid.values.copy()
    heights[i] += 1.0
    found, grads, flips = solver._flip_to_lower_hull(hull.topo, sites, heights,
                                                     rounds=len(hull.topo.tris))
    assert found is None and grads is None and flips < len(hull.topo.tris)


def test_certificate_rejects_a_nonfinite_height(solved_disk2):
    sites, interior, rep, hull = solved_disk2
    heights = rep.grid.values.copy()
    assert certified(hull.topo, sites, heights)
    heights[int(np.flatnonzero(interior)[0])] = np.nan
    assert not certified(hull.topo, sites, heights)


def test_flips_replace_the_trial_hulls():
    # the degenerate solve, whose every step once paid a hull: only the start
    # pass builds one, and the solved envelope is the last pass
    rhs = grid.RhsField("degenerate", alpha=1 / 8)
    prob = unit_problem(0.1, rhs=rhs, boundary=oracle.SeparableSolution(alpha=1 / 8, a=1.0))
    rep = solver.solve(prob, tol=1e-6)
    assert rep.work.hull_builds == 1 and rep.work.edge_flips > 0
    # the solve takes more steps than the 10-step budget below charges for
    assert rep.work.mass_passes > rep.work.newton_steps > 10
    with pytest.raises(NoConvergence, match="update budget exhausted") as info:
        solver.solve(prob, tol=1e-6, max_iters=10 * int(prob.interior.sum()))
    assert info.value.work.hull_builds == 1 and info.value.work.edge_flips > 0
    # the start lifted the sites near x1 = +-1 to the boundary data's envelope
    assert info.value.work.start_boundary_sites == rep.work.start_boundary_sites > 0
    # the start pass's hull is the band's
    n = len(prob.grid.nodes)
    assert 0 < info.value.work.hull_sites < n
    assert rep.work.hull_sites == info.value.work.hull_sites


def test_flips_give_up_at_the_round_cap(solved_disk2, monkeypatch):
    # with every edge failing, each round flips some and none ends the repair
    sites, interior, rep, hull = solved_disk2
    monkeypatch.setattr(solver, "_edge_lifts", lambda *args: -np.ones(len(args[3])))
    capped = solver._mass_pass(sites, rep.grid.values, interior, hull.topo)
    assert capped.hulls == (len(sites),) and capped.topo.covers
    assert capped.flips >= math.isqrt(len(hull.topo.tris))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    disk=st.booleans(),
    h=st.sampled_from([0.25, 0.125]),
    curvature=st.sampled_from([0.5, 1.0, 3.0]),
    tilt=st.tuples(st.sampled_from([0.0, 0.25, -1.5]), st.sampled_from([0.0, 0.5, -0.125])),
    noise=st.sampled_from([0.0, 0.01, 0.1]),
    share=st.sampled_from([0.1, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(disk=False, h=0.125, curvature=1.0, tilt=(0.0, 0.0), noise=0.0, share=1.0, seed=0)
@example(disk=True, h=0.25, curvature=3.0, tilt=(0.25, 0.5), noise=0.1, share=0.5, seed=1)
def test_flipped_triangulation_is_the_lower_hull(disk, h, curvature, tilt, noise, share, seed):
    # from Qhull's triangulation of an anisotropic quadratic, flip to a convex
    # quadratic with noise on a share of the sites; at dyadic pitches and
    # heights the lattice squares without noise are exactly cocircular, so
    # their two diagonals tie exactly
    gf = _lattice(disk, h)
    sites, interior = gf.nodes, gf.interior_mask
    start = solver._mass_pass(sites, sites[:, 0] ** 2 + 0.25 * sites[:, 1] ** 2, interior)
    assert start.topo.covers
    rng = np.random.default_rng(seed)
    heights = 0.5 * curvature * np.sum(sites**2, axis=1) + sites @ np.array(tilt)
    noisy = rng.random(len(sites)) < share
    heights[noisy] += noise * curvature * h * h * rng.standard_normal(int(noisy.sum()))
    repaired = solver._mass_pass(sites, heights, interior, start.topo)
    assume(repaired.hulls == ())  # a repair returned a triangulation
    assert repaired.topo.covers
    assert certified(repaired.topo, sites, heights)
    fresh = solver._mass_pass(sites, heights, interior)
    if certified(fresh.topo, sites, heights):
        rel = np.abs(repaired.areas[interior] - fresh.areas[interior]) / fresh.areas[interior]
        assert rel.max() <= 1e-12


def test_jacobian_is_the_coo_assembly(solved_disk2):
    # one CSC build from the links and the diagonal is the matrix that COO,
    # then CSR plus the diagonal, then CSC gave, and factors to the same bits
    sites, interior, rep, hull = solved_disk2
    m = int(interior.sum())
    J = solver._jacobian(hull, m)
    _, face, nxt, _ = hull.topo.fans
    rows, cols, dist = hull.topo.links
    g, gn = hull.grads[face], hull.grads[nxt]
    w = np.hypot(gn[:, 0] - g[:, 0], gn[:, 1] - g[:, 1]) / dist
    keep = w > 0
    off = keep & (cols >= 0)
    diag = np.zeros(m)
    np.add.at(diag, rows[keep], -w[keep])
    ref = (sp.coo_matrix((w[off], (rows[off], cols[off])), shape=(m, m)).tocsr()
           + sp.diags(diag)).tocsc()
    assert J.format == "csc"
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(J, name), getattr(ref, name)), name
    b = hull.areas[interior] - solver.target_masses_on(rep.grid, grid.RhsField("constant"))[interior]
    options = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    assert np.array_equal(splu(J, **options).solve(b), splu(ref, **options).solve(b))


def test_factorisation_failure_raises_no_convergence(monkeypatch):
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(solver, "splu", singular)
    with pytest.raises(NoConvergence, match="step 0: sparse solve failed") as info:
        solver.solve(unit_problem(0.25, rhs=grid.RhsField("degenerate", alpha=1 / 8)), tol=1e-8)
    assert info.value.residual > 1e-8


def test_newton_rhs_is_one_sided():
    # m - t for a cell that is not too big, 2 sqrt(m) (sqrt(m) - sqrt(t)) for one that is
    t = np.array([4.0, 4.0, 4.0, 1.0, 1e-10])
    m = np.array([0.0, 1.0, 4.0, 9.0, 4e-10])
    assert np.array_equal(solver._newton_rhs(m, t)[:3], m[:3] - t[:3])
    assert solver._newton_rhs(m, t)[3] == 2.0 * 3.0 * (3.0 - 1.0)
    assert solver._newton_rhs(m, t)[4] == pytest.approx(2.0 * 2e-5 * 1e-5, rel=1e-12)
    # continuous at m = t, with slope 1 on both sides
    t = np.array([1e-10, 1.0, 3.0])
    for eps in (1e-6, -1e-6):
        r = solver._newton_rhs(t * (1.0 + eps), t)
        assert np.allclose(r / (t * eps), 1.0, rtol=0.0, atol=1e-6)
    assert np.array_equal(solver._newton_rhs(t, t), np.zeros(3))


def test_dual_disk8_newton_steps(dual_profile_8):
    # the cells of the paraboloid start are up to 1,000 times too big; Newton
    # on m - t throughout took 9 steps, shrinking them about 4 times per step
    rhs = grid.RhsField("dual_translator", alpha=1 / 8, eta=1.0)
    prob = solver.build_problem(grid.Domain2D.disk(8.0), 0.25, rhs, dual_profile_8)
    rep = solver.solve(prob, tol=1e-8)
    assert rep.work.newton_steps == 5
    assert rep.work.residuals[0] > 100.0
    assert rep.max_residual <= 1e-8 and solver.residual(rep.function, prob) <= 1e-8


# ---------------------------------------------------------------------------
# the start pass from the lattice squares
# ---------------------------------------------------------------------------

NO_SQUARES = np.empty((0, 4), dtype=np.int64)
POLYGON = np.array([(-1.0, -0.8), (0.9, -1.0), (1.1, 0.3), (0.2, 1.0), (-0.9, 0.6)])


def _paraboloid_start(gf, boundary_values, targets, squares):
    """The solve's state after its start: its heights and their pass."""
    interior = gf.interior_mask
    heights = np.zeros(len(gf))
    heights[~interior] = boundary_values
    state = solver._SolveState(gf.nodes, interior, targets, heights, 0, solver._chords(gf))
    envelope = solver._boundary_envelope(gf.nodes[~interior], boundary_values)
    solver._paraboloid_init(state, boundary_values, envelope, squares, gf.h)
    return state


def _start_branches(gf, boundary_values, targets):
    """The two branches of the start on every site, the paraboloid
    q = a |x - x0|^2 / 2 + l + c and E + a (|x - x0|^2 - R^2) / 2 for the
    boundary data's envelope E, and E - l.  l is the least-squares affine fit
    of the gap g - a |x - x0|^2 / 2 over the boundary sites."""
    sites, interior = gf.nodes, gf.interior_mask
    a = math.sqrt(float(np.median(targets[interior]))) / gf.h
    d = sites - sites.mean(axis=0)
    r2 = np.sum(d**2, axis=1)
    gap = boundary_values - 0.5 * a * r2[~interior]
    fit = np.linalg.lstsq(np.column_stack([np.ones(len(gap)), d[~interior]]), gap, rcond=None)[0]
    ell = fit[0] + d[:, 0] * fit[1] + d[:, 1] * fit[2]
    c = float(np.min(gap - ell[~interior]))
    e = solver._boundary_envelope(sites[~interior], boundary_values)(sites)
    return 0.5 * a * r2 + ell + c, e + 0.5 * a * (r2 - r2[~interior].max()), e - ell


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    shape=st.sampled_from(["square", "disk", "polygon"]),
    scale=st.sampled_from([1.0, 0.3]),
    h=st.sampled_from([0.25, 0.125, 0.1]),
    dual=st.booleans(),
    eigen=st.tuples(st.floats(0.25, 4.0), st.floats(0.25, 4.0)),
    angle=st.floats(0.0, math.pi),
    tilt=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    data=st.sampled_from(["quadratic", "paraboloid", "separable"]),
)
@example(shape="disk", scale=1.0, h=0.1, dual=False, eigen=(1.0, 1.0), angle=0.0,
         tilt=(0.0, 0.0, 0.0), data="paraboloid")
@example(shape="polygon", scale=0.3, h=0.25, dual=True, eigen=(0.5, 2.0), angle=1.0,
         tilt=(0.5, -1.0, 0.25), data="quadratic")
@example(shape="square", scale=1.0, h=0.1, dual=False, eigen=(1.0, 1.0), angle=0.0,
         tilt=(0.0, 0.0, 0.0), data="separable")
def test_square_start_is_the_qhull_start(shape, scale, h, dual, eigen, angle, tilt, data):
    # the start pass from the lattice squares against the one Qhull builds
    # on every site; boundary data on the start paraboloid itself ties the
    # band's boundary cells as the squares are tied
    if shape == "polygon":  # an asymmetric node set
        nodes = polygon_lattice(scale * POLYGON, h)
        gf = grid.GridFunction(domain=grid.Domain2D.square(1.1 * scale), h=h, nodes=nodes,
                               values=np.zeros(len(nodes)))
    else:
        gf = grid.sample(lambda p: np.zeros(len(p)), grid.Domain2D(shape, scale), h)
    sites, interior = gf.nodes, gf.interior_mask
    rhs = grid.RhsField("dual_translator", alpha=1 / 8, eta=1.0) if dual else None
    targets = solver.target_masses_on(gf, rhs or grid.RhsField("constant"))
    if data == "paraboloid":  # the paraboloid of _paraboloid_init, so its offset is 0
        a = math.sqrt(float(np.median(targets[interior]))) / h
        r2 = np.sum((sites - sites.mean(axis=0)) ** 2, axis=1)
        bv = 0.5 * a * r2[~interior]
    elif data == "quadratic":  # an SPD quadratic x.Ax/2 plus an affine tilt
        bv = _spd_quadratic(eigen, angle, tilt)(sites[~interior])
    else:  # |x1|^6 + x2^2 / 60, flat across x1 = 0, plus an affine tilt
        b = sites[~interior]
        bv = oracle.SeparableSolution(alpha=1 / 8, a=1.0)(b) + tilt[0] + b @ np.array(tilt[1:])
    squares = solver._squares(gf)
    k = gf.lattice_indices
    assert np.array_equal(k[squares] - k[squares[:, :1]],
                          np.broadcast_to([(0, 0), (1, 0), (1, 1), (0, 1)], (len(squares), 4, 2)))
    assert interior[squares].all()
    lattice = _paraboloid_start(gf, bv, targets, squares)
    qhull = _paraboloid_start(gf, bv, targets, NO_SQUARES)
    assert np.array_equal(lattice.heights, qhull.heights)
    start, ref = lattice.last, qhull.last
    assert ref.hulls == (len(sites),)
    # the start is max(q, E + a (|x - x0|^2 - R^2) / 2), a valid start: every
    # interior site a vertex, no site on a chord, every mass positive.  A
    # boundary site inside the hull of the others, as on a disk lattice, may
    # lie above the envelope, so the passes need not cover every site
    q, from_e, e_less_l = _start_branches(gf, bv, targets)
    scale_z = 1.0 + np.abs(lattice.heights).max()
    assert np.all(lattice.heights[interior] >= q[interior])
    assert np.allclose(lattice.heights[interior], np.maximum(q, from_e)[interior],
                       rtol=0.0, atol=1e-12 * scale_z)
    took_e = lattice.heights[interior] != q[interior]
    assert lattice.work.start_boundary_sites == int(took_e.sum())
    assert start.topo.covers == ref.topo.covers
    for hull in (start, ref):
        assert np.all(np.bincount(hull.topo.tris.ravel(), minlength=len(sites))[interior])
    assert not lattice.above_a_chord()
    assert np.all(start.areas[interior] > 0.0)
    # E - l is convex and every site off the rim is the midpoint of two
    # interior axis neighbours, so its greatest interior value is taken on the rim
    axis = ((1, 0), (-1, 0), (0, 1), (0, -1))
    rim = interior & ~np.all([interior[gf.neighbor_ids(d)] for d in axis], axis=0)
    assert e_less_l[interior].max() == e_less_l[rim].max()
    # the start is affine-covariant: data tilted by l0 move it by l0
    l0 = lambda p: tilt[0] + p @ np.array(tilt[1:])
    shifted = _paraboloid_start(gf, bv + l0(sites[~interior]), targets, squares)
    assert np.allclose(shifted.heights - lattice.heights, l0(sites),
                       rtol=0.0, atol=1e-12 * scale_z)
    if (shape, scale, h, data, tilt) == ("square", 1.0, 0.1, "separable", (0.0, 0.0, 0.0)):
        assert lattice.work.start_boundary_sites > 0  # the data rise above q near x1 = +-1
    # the squares whose corners all take q's branch stay faces
    on_q = np.ones(len(sites), dtype=bool)
    on_q[np.flatnonzero(interior)[took_e]] = False
    squares = squares[np.all(on_q[squares], axis=1)]
    if len(squares) == 0:  # the Qhull start, bit for bit
        assert start.hulls == ref.hulls
        for name in ("grads", "areas"):
            assert np.array_equal(getattr(start, name), getattr(ref, name)), name
        assert np.array_equal(start.topo.tris, ref.topo.tris)
        assert np.array_equal(start.topo.twin, ref.topo.twin)
        return
    # the merge held: one hull, on the band
    band = int(np.sum(np.bincount(squares.ravel(), minlength=len(sites)) < 4))
    assert start.hulls == (band,)
    m, t = start.areas[interior], ref.areas[interior]
    assert np.all(np.abs(m - t) <= 1e-12 * t)
    # a valid pairing: each paired half-edge's twin is paired back and joins
    # the same two sites the other way, and every face is strictly ccw
    tris, twin = start.topo.tris, start.topo.twin.ravel()
    half = np.flatnonzero(twin >= 0)
    assert np.array_equal(twin[twin[half]], half)
    tail, head = tris[:, [1, 2, 0]].ravel(), tris[:, [2, 0, 1]].ravel()
    assert np.array_equal(tail[twin[half]], head[half])
    assert np.array_equal(head[twin[half]], tail[half])
    u, v = sites[tris[:, 1]] - sites[tris[:, 0]], sites[tris[:, 2]] - sites[tris[:, 0]]
    assert np.all(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0] > 0.0)


def test_verify_dual_start_is_the_paraboloid(dual_profile_8):
    # configs/verify_dual.json: E - l stays below c + a R^2 / 2 on the rim, so
    # no site takes E's branch and the start is the paraboloid q bit for bit
    rhs = grid.RhsField("dual_translator", alpha=1 / 8, eta=1.0)
    prob = solver.build_problem(grid.Domain2D.disk(8.0), 0.125, rhs, dual_profile_8)
    gf, interior = prob.grid, prob.interior
    bv = prob.boundary_values
    state = _paraboloid_start(gf, bv, prob.targets, solver._squares(gf))
    q, from_e, _ = _start_branches(gf, bv, prob.targets)
    assert state.work.start_boundary_sites == 0
    assert np.array_equal(state.heights[interior], q[interior])
    assert np.all(from_e[interior] < q[interior])


def test_a_square_missing_from_the_list_falls_back_to_qhull(monkeypatch):
    # one square short, the merge leaves a hole where that square was: the
    # check rejects it, and the start is the one Qhull builds on every site
    gf = _lattice(False, 0.125)
    sites, interior = gf.nodes, gf.interior_mask
    targets = solver.target_masses_on(gf, grid.RhsField("constant"))
    bv = quadratic(sites[~interior])
    squares = solver._squares(gf)
    corners = np.bincount(squares.ravel(), minlength=len(gf))
    deep = np.flatnonzero(np.all(corners[squares] == 4, axis=1))
    short = np.delete(squares, deep[len(deep) // 2], axis=0)

    tiles = solver._tiles_a_disk
    checked = []

    def recorded(topo):
        checked.append((topo, tiles(topo)))
        return checked[-1][1]

    monkeypatch.setattr(solver, "_tiles_a_disk", recorded)
    assert _paraboloid_start(gf, bv, targets, squares).work.hull_builds == 1
    assert checked[-1][1]
    fallback = _paraboloid_start(gf, bv, targets, short)
    topo, verdict = checked[-1]
    assert not verdict
    undirected = np.sort(np.stack([topo.tris, np.roll(topo.tris, 1, axis=1)], axis=2), axis=2)
    edges = len(np.unique(undirected.reshape(-1, 2), axis=0))
    assert len(np.unique(topo.tris)) - edges + len(topo.tris) == 0  # an annulus
    band = int(np.sum(np.bincount(short.ravel(), minlength=len(gf)) < 4))
    assert (fallback.work.hull_builds, fallback.work.hull_sites) == (2, band + len(gf))
    ref = _paraboloid_start(gf, bv, targets, NO_SQUARES).last
    start = fallback.last
    for name in ("grads", "areas"):
        assert np.array_equal(getattr(start, name), getattr(ref, name)), name
    assert np.array_equal(start.topo.tris, ref.topo.tris)
    assert np.array_equal(start.topo.twin, ref.topo.twin)


# ---------------------------------------------------------------------------
# the chord test, which rejects a trial before its mass pass
# ---------------------------------------------------------------------------

def _lattice(disk, h):
    dom = grid.Domain2D.disk(1.0) if disk else grid.Domain2D.square(1.0)
    return grid.sample(lambda p: np.zeros(len(p)), dom, h)


@pytest.mark.parametrize("disk", [False, True])
def test_chords_are_opposite_lattice_neighbours(disk):
    gf = _lattice(disk, 0.25)
    centre, a, b = solver._chords(gf)
    k = gf.lattice_indices
    assert gf.interior_mask[centre].all()
    assert np.array_equal(k[a] - k[centre], k[centre] - k[b])
    steps = {tuple(d) for d in k[a] - k[centre]}
    assert steps == {(1, 0), (0, 1), (1, 1), (1, -1)}
    # every interior node and direction whose two neighbours exist, once
    expected = sum(
        int(np.sum(gf.interior_mask & (gf.neighbor_ids(d) >= 0)
                   & (gf.neighbor_ids((-d[0], -d[1])) >= 0)))
        for d in steps
    )
    assert len(centre) == len(set(zip(centre.tolist(), a.tolist()))) == expected
    if not disk:  # every interior node of the square has all 8 neighbours
        assert expected == 4 * int(gf.interior_mask.sum())


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    disk=st.booleans(),
    h=st.sampled_from([0.25, 0.2, 0.125, 0.1]),
    curvature=st.floats(0.1, 3.0),
    tilt=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    noise=st.sampled_from([0.0, 0.01, 0.1, 0.5]),
    ties=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
@example(disk=False, h=0.1, curvature=1.0, tilt=(0.0, 0.0, 0.0), noise=0.0, ties=1, seed=0)
@example(disk=True, h=0.2, curvature=0.5, tilt=(0.3, -1.0, 0.5), noise=0.0, ties=0, seed=1)
def test_chord_test_fires_only_on_a_cell_without_area(disk, h, curvature, tilt, noise, ties,
                                                      seed):
    # a convex quadratic plus noise at the scale of its second differences,
    # with exact ties 2 h_i == h_a + h_b on some chords; whenever the test
    # fires, a fresh Qhull pass finds an interior cell without area
    gf = _lattice(disk, h)
    sites, interior = gf.nodes, gf.interior_mask
    chords = solver._chords(gf)
    centre, a, b = chords
    rng = np.random.default_rng(seed)
    heights = 0.5 * curvature * np.sum(sites**2, axis=1) + tilt[0] + sites @ np.array(tilt[1:])
    heights += noise * curvature * h * h * rng.standard_normal(len(sites))
    for j in rng.choice(len(centre), size=ties, replace=False):
        heights[centre[j]] = 0.5 * (heights[a[j]] + heights[b[j]])
    state = solver._SolveState(sites, interior, np.zeros(len(sites)), heights, 0, chords)
    fired = state.above_a_chord()
    if ties:  # the last tie set still holds
        assert fired
    elif noise == 0.0:  # strictly convex: every site lies below every chord
        assert not fired
    if fired:
        areas = solver._mass_pass(sites, heights, interior).areas
        assert np.any(areas[interior] <= 0.0)


def test_chord_test_spares_only_rejected_passes(monkeypatch):
    # degenerate solves, once with a shadow pass on every trial the chord
    # test rejects, and once with the test off: same steps, same heights.
    # Each line search starts below the chord test's step bound, so the test
    # is a guard against rounding that should never change the solve
    rhs = grid.RhsField("degenerate", alpha=1 / 8)
    sep = oracle.SeparableSolution(alpha=1 / 8, a=1.0)
    tilted = lambda p: sep(p) + 0.3 - 0.05 * p[:, 0] + 0.04 * p[:, 1]
    above_a_chord = solver._SolveState.above_a_chord
    for boundary in (sep, tilted):
        prob = unit_problem(0.1, rhs=rhs, boundary=boundary)
        least = []

        def shadowed(state):
            fired = above_a_chord(state)
            if fired:
                areas = solver._mass_pass(state.sites, state.heights, state.interior).areas
                least.append(areas[state.int_ids].min())
            return fired

        monkeypatch.setattr(solver._SolveState, "above_a_chord", shadowed)
        rep = solver.solve(prob, tol=1e-6)
        work = rep.work
        assert all(m <= 0.0 for m in least)
        # each halving was a chord rejection or a pass that ran and failed
        assert len(least) + work.mass_passes == work.newton_steps + 1 + work.backtracks

        monkeypatch.setattr(solver._SolveState, "above_a_chord", lambda state: False)
        ref = solver.solve(prob, tol=1e-6)
        assert np.array_equal(rep.grid.values, ref.grid.values)
        ref_work = ref.work
        assert (work.newton_steps, work.backtracks) == (ref_work.newton_steps, ref_work.backtracks)
        assert work.step_lengths == ref_work.step_lengths
        assert ref_work.mass_passes == ref_work.newton_steps + 1 + ref_work.backtracks
        assert ref_work.mass_passes >= work.mass_passes


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    disk=st.booleans(),
    h=st.sampled_from([0.25, 0.2, 0.125]),
    eigen=st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 3.0)),
    angle=st.floats(0.0, math.pi),
    tilt=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    noise=st.sampled_from([0.0, 0.01, 0.1]),
    reach=st.floats(0.1, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(disk=False, h=0.125, eigen=(1.0, 1.0), angle=0.0, tilt=(0.0, 0.0, 0.0), noise=0.0,
         reach=2.0, seed=0)
@example(disk=True, h=0.2, eigen=(0.1, 3.0), angle=0.7, tilt=(0.5, -1.0, 0.25), noise=0.1,
         reach=0.1, seed=1)
def test_step_bound_is_the_chord_tests_bound(disk, h, eigen, angle, tilt, noise, reach, seed):
    # convex heights (an SPD quadratic, a tilt and noise at the scale of its
    # second differences) and a random interior direction: the line search's
    # first trial passes the chord test, and just past the bound it fails
    gf = _lattice(disk, h)
    sites, interior = gf.nodes, gf.interior_mask
    rng = np.random.default_rng(seed)
    heights = _spd_quadratic(eigen, angle, tilt)(sites)
    heights += noise * min(eigen) * h * h * rng.standard_normal(len(sites))
    state = solver._SolveState(sites, interior, np.zeros(len(sites)), heights.copy(), 0,
                               solver._chords(gf))
    assume(not state.above_a_chord())
    delta = reach * max(eigen) * h * h * rng.standard_normal(len(state.int_ids))
    bound = state.step_bound(delta)
    assert bound > 0.0

    def fires(t):
        state.heights = heights.copy()
        state.heights[state.int_ids] += t * delta
        return state.above_a_chord()

    assert not fires(min(1.0, solver._BOUND_FRACTION * bound))
    if bound < 1.0:
        assert fires(bound * (1.0 + 1e-6))


def _small_solve_members(dual_profile_8):
    """Solve the five members of the small-solves benchmark mix at its tol
    1e-6, untilted and tilted by one affine function; returns the reports
    and problems per tilt, after checking that each converged."""
    square = grid.Domain2D.square(1.0)
    dual = grid.RhsField("dual_translator", alpha=1 / 8, eta=1.0)
    degenerate = grid.RhsField("degenerate", alpha=1 / 8)
    sep = oracle.SeparableSolution(alpha=1 / 8, a=1.0)
    members = [
        (square, 0.05, grid.RhsField("constant"), quadratic),
        (grid.Domain2D.disk(2.0), 0.1, dual, dual_profile_8),
        (grid.Domain2D.disk(8.0), 0.25, dual, dual_profile_8),
        (square, 0.1, degenerate, sep),
        (square, 0.0625, degenerate, sep),
    ]
    solved = []
    for tilt in ((0.0, 0.0, 0.0), (0.3, -0.4, 0.25)):
        reports = []
        for dom, h, rhs, boundary in members:
            tilted = lambda p: boundary(p) + tilt[0] + p @ np.array(tilt[1:])
            prob = solver.build_problem(dom, h, rhs, tilted)
            rep = solver.solve(prob, tol=1e-6)
            assert rep.max_residual <= 1e-6 and solver.residual(rep.function, prob) <= 1e-6
            work = rep.work
            assert len(work.step_lengths) == len(work.cg_iterations) == work.newton_steps
            reports.append((rep, prob))
        solved.append(reports)
    return solved


def test_small_solve_members_newton_steps(dual_profile_8):
    # a step count shows a regression of the step rule that a noisy timer
    # misses.  Halving into the chord bound took 0, 4, 5, 25 and 46, and the
    # paraboloid start without the boundary envelope 0, 4, 5, 20 and 36.
    # The start is affine-covariant, so the tilted members take the same
    # steps.  Every Newton system goes through the two-level CG, and the
    # steps are those of the direct solves that it replaced.
    for reports in _small_solve_members(dual_profile_8):
        assert [rep.work.newton_steps for rep, _ in reports] == [0, 4, 5, 12, 18]
        for rep, _ in reports:
            assert all(0 < cg <= 20 for cg in rep.work.cg_iterations), rep.work.cg_iterations


# ---------------------------------------------------------------------------
# the Newton system: CG with a two-level aggregation preconditioner
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def degenerate_jacobian():
    """(J, interior lattice coordinates) of the untilted degenerate h = 0.1
    solve's last pass, whose cells near x1 = 0 hold little mass."""
    rhs = grid.RhsField("degenerate", alpha=1 / 8)
    prob = unit_problem(0.1, rhs=rhs, boundary=oracle.SeparableSolution(alpha=1 / 8, a=1.0))
    gf = prob.grid
    state = solver._solve_state(gf.nodes, prob.interior, prob.boundary_values, prob.targets, 1e-6,
                                10**6, solver._chords(gf), solver._squares(gf), gf.h,
                                gf.lattice_indices)
    return solver._jacobian(state.last, len(state.int_ids)), gf.lattice_indices[prob.interior]


def test_aggregates_split_blocks_along_the_strong_axis(degenerate_jacobian):
    J, lattice = degenerate_jacobian
    agg = solver._aggregates(-J, lattice)
    # a partition into aggregates numbered 0 .. n - 1, each in one 2 x 2 block
    n = int(agg.max()) + 1
    assert np.array_equal(np.unique(agg), np.arange(n))
    block = lattice // 2
    for k in range(n):
        assert len(np.unique(block[agg == k], axis=0)) == 1
    # axis link strengths per block, from the matrix entries
    coo = J.tocoo()
    strength = {}
    for i, j, w in zip(coo.row, coo.col, coo.data):
        d = lattice[j] - lattice[i]
        if tuple(block[i]) == tuple(block[j]) and np.abs(d).sum() == 1:
            key = (tuple(block[i]), int(d[1] != 0))
            strength[key] = strength.get(key, 0.0) + w
    splits = 0
    for b in np.unique(block, axis=0):
        members = np.flatnonzero(np.all(block == b, axis=1))
        s = [strength.get((tuple(b), axis), 0.0) for axis in (0, 1)]
        strong = [axis for axis in (0, 1) if s[axis] > solver._SPLIT_RATIO * s[1 - axis]]
        if not strong:  # the whole block
            assert len(np.unique(agg[members])) == 1
            continue
        # the pairs linked along the strong axis, same coordinate across it,
        # each one aggregate and no two the same
        across = lattice[members, 1 - strong[0]]
        pairs = [np.unique(agg[members[across == c]]) for c in np.unique(across)]
        assert all(len(pair) == 1 for pair in pairs)
        assert len({int(pair[0]) for pair in pairs}) == len(pairs)
        splits += len(pairs) == 2
    assert splits > 0


def test_preconditioner_is_symmetric_positive(degenerate_jacobian):
    J, lattice = degenerate_jacobian
    apply = solver._preconditioner(-J, solver._coarse_level(-J, lattice))
    rng = np.random.default_rng(5)
    for _ in range(5):
        u, v = rng.standard_normal((2, J.shape[0]))
        uv, vu = np.sum(u * apply(v)), np.sum(v * apply(u))
        assert abs(uv - vu) <= 1e-12 * math.sqrt(np.sum(u * apply(u)) * np.sum(v * apply(v)))
        assert np.sum(v * apply(v)) > 0.0


def test_cg_failure_raises_no_convergence(monkeypatch):
    monkeypatch.setattr(solver, "_CG_MAXITER", 1)
    rhs = grid.RhsField("degenerate", alpha=1 / 8)
    prob = unit_problem(0.1, rhs=rhs, boundary=oracle.SeparableSolution(alpha=1 / 8, a=1.0))
    with pytest.raises(NoConvergence,
                       match="step 0: CG did not reach its tolerance in 1 iterations") as info:
        solver.solve(prob, tol=1e-6)
    err = info.value
    assert err.work.newton_steps == 0 and err.work.cg_iterations == [1]
    assert err.residual == err.work.residuals[-1] > 1e-6


def test_coarse_level_is_kept_across_steps(dual_profile_8):
    # steps 0 and 1 build their coarse level and the later steps keep the
    # last one while CG holds its iterations; the Newton path is that of a
    # level rebuilt every step (test_small_solve_members_newton_steps)
    rhs = grid.RhsField("dual_translator", alpha=1 / 8, eta=1.0)
    prob = solver.build_problem(grid.Domain2D.disk(8.0), 0.25, rhs, dual_profile_8)
    work = solver.solve(prob, tol=1e-6).work
    assert work.newton_steps >= 5 and work.backtracks == 0
    assert 2 <= work.coarse_builds < work.newton_steps


def test_stale_coarse_level_is_rebuilt(degenerate_jacobian, monkeypatch):
    J, lattice = degenerate_jacobian
    A = -J
    rhs = np.random.default_rng(3).standard_normal(J.shape[0])
    fresh, runs, reached, level = solver._newton_solve(J, rhs, lattice)
    assert reached and len(runs) == 1 and runs[0] <= 20
    # M^-1 is positive definite for any positive definite coarse matrix: a
    # level of 1e-6 A is a poor one, but CG still converges on it
    scaled = solver._coarse_level(1e-6 * A, lattice)
    apply = solver._preconditioner(A, scaled)
    for v in np.random.default_rng(5).standard_normal((5, J.shape[0])):
        assert np.sum(v * apply(v)) > 0.0
    delta, runs, reached, kept = solver._newton_solve(J, rhs, lattice, scaled)
    assert reached and kept is scaled and len(runs) == 1 and runs[0] > 20
    # the guard: a kept level that reaches _CG_MAXITER, or the level of the
    # negative definite J, on which CG breaks down, is built again from A,
    # and CG runs again from scratch, as on a level built at once
    monkeypatch.setattr(solver, "_CG_MAXITER", 30)
    for stale, capped in ((scaled, True), (solver._coarse_level(J, lattice), False)):
        delta, runs, reached, level = solver._newton_solve(J, rhs, lattice, stale)
        assert reached and level is not stale and len(runs) == 2
        assert (runs[0] == 30) == capped
        assert np.array_equal(delta, fresh)


def test_cg_stops_at_a_breakdown():
    # p . A p <= 0 (A = -I) and r . z <= 0 (M^-1 = -I) each end CG unreached
    # at its first iteration, where CG would otherwise go on
    b = np.arange(1.0, 5.0)
    identity = sp.identity(4, format="csr")
    assert solver._cg(-identity, b, lambda r: r, 1e-12)[1:] == (1, False)
    assert solver._cg(identity, b, lambda r: -r, 1e-12)[1:] == (1, False)


def test_guard_rebuild_keeps_the_newton_path(monkeypatch):
    # every kept level is swapped for the level of J, on which CG breaks
    # down, so every step after step 1 takes the guard's rebuild; the solve
    # takes the same steps, builds one level per step, and counts both runs
    rhs = grid.RhsField("degenerate", alpha=1 / 8)
    prob = unit_problem(0.1, rhs=rhs, boundary=oracle.SeparableSolution(alpha=1 / 8, a=1.0))
    plain = solver.solve(prob, tol=1e-6).work
    newton_solve, runs = solver._newton_solve, []

    def stale_solve(J, rhs, lattice, coarse=None):
        if coarse is not None:
            coarse = solver._coarse_level(J, lattice)
        out = newton_solve(J, rhs, lattice, coarse)
        runs.append(out[1])
        return out

    monkeypatch.setattr(solver, "_newton_solve", stale_solve)
    rep = solver.solve(prob, tol=1e-6)
    work = rep.work
    assert rep.max_residual <= 1e-6 and solver.residual(rep.function, prob) <= 1e-6
    assert (work.newton_steps, work.backtracks) == (plain.newton_steps, plain.backtracks) == (12, 0)
    assert work.coarse_builds == work.newton_steps > plain.coarse_builds
    assert [len(r) for r in runs] == [1, 1] + [2] * (work.newton_steps - 2)
    assert work.cg_iterations == [sum(r) for r in runs]


def test_pass_kernels_equal_row_gathers():
    # the per-pass kernels gather coordinate columns; each must equal the
    # same arithmetic on gathered rows bit for bit, on a hull whose lifts,
    # normals and gradients carry no structure that would hide a reordering
    gf = grid.sample(quadratic, grid.Domain2D.disk(1.0), 0.1)
    sites, interior = gf.nodes, gf.interior_mask
    heights = gf.values + 0.01 * np.random.default_rng(4).standard_normal(len(gf))
    hp = solver._mass_pass(sites, heights, interior)
    topo = hp.topo
    lifted = np.column_stack([sites, heights])
    a = lifted[topo.tris[:, 0]]
    u, v = lifted[topo.tris[:, 1]] - a, lifted[topo.tris[:, 2]] - a
    normal = np.column_stack([u[:, 1] * v[:, 2] - u[:, 2] * v[:, 1],
                              u[:, 2] * v[:, 0] - u[:, 0] * v[:, 2],
                              u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]])
    assert np.array_equal(solver._normals(lifted, topo.tris), normal)
    twin = topo.twin.ravel()
    half = solver._interior_half_edges(twin)
    d = lifted[topo.tris.ravel()[twin[half]]] - lifted[topo.tris[half // 3, 0]]
    n = normal[half // 3]
    lift = n[:, 0] * d[:, 0] + n[:, 1] * d[:, 1] + n[:, 2] * d[:, 2]
    assert np.array_equal(solver._edge_lifts(lifted, topo.tris, normal, half, twin), lift)
    site, face, nxt, nbr = topo.fans
    e = sites[nbr] - sites[site]
    dist = np.hypot(e[:, 0], e[:, 1])
    assert np.array_equal(topo.links[2], dist)
    g, gn = hp.grads[face], hp.grads[nxt]
    cross = g[:, 0] * gn[:, 1] - g[:, 1] * gn[:, 0]
    areas = 0.5 * np.abs(np.bincount(site, weights=cross, minlength=len(sites)))
    assert np.array_equal(hp.areas, areas)
    w = np.hypot(gn[:, 0] - g[:, 0], gn[:, 1] - g[:, 1]) / dist
    J = solver._jacobian(hp, int(interior.sum()))
    rows, cols = topo.links[:2]
    off = (w > 0) & (cols >= 0)
    assert np.array_equal(np.asarray(J[rows[off], cols[off]]).ravel(), w[off])
