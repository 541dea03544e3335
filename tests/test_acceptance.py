"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.  The heavy dual-equation solve is shared through the
session-scoped ``solved_dual_disk8`` fixture.
"""
import time

import numpy as np
import pytest

from ma2d import analysis, grid, legendre, ma_measure, oracle, sections, solver

from conftest import quadratic

ALPHAS = (1 / 8, 1 / 6, 1 / 5)


def report(num, name, passed, detail):
    print(f"ACCEPTANCE {num:02d} [{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    return passed


def test_criterion_01_dual_growth_exponent():
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in ALPHAS:
        prof = oracle.RadialProfile(alpha=alpha, kind="dual_translator")
        theory = 1.0 / (2.0 * alpha)
        fit = analysis.growth_exponent(prof, 16.0, 256.0, 5, slope_theory=theory)
        worst = max(worst, abs(fit.slope - theory) / theory)
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.02 and elapsed < 5.0
    assert report(1, "dual growth exponent", ok,
                  f"worst rel dev {worst:.4%} (tol 2%), runtime {elapsed:.2f}s (< 5s)")


def test_criterion_02_primal_growth_exponent():
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in ALPHAS:
        prof = oracle.RadialProfile(alpha=alpha, kind="primal_translator")
        theory = 1.0 / (1.0 - 2.0 * alpha)
        fit = analysis.growth_exponent(prof, 16.0, 256.0, 5, slope_theory=theory)
        worst = max(worst, abs(fit.slope - theory) / theory)
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.02 and elapsed < 5.0
    assert report(2, "primal growth exponent", ok,
                  f"worst rel dev {worst:.4%} (tol 2%), runtime {elapsed:.2f}s (< 5s)")


def _solve_quadratic(h):
    dom = grid.Domain2D.square(1.0)
    prob = solver.build_problem(dom, h, grid.RhsField("constant"), quadratic)
    rep = solver.solve(prob, tol=1e-8)
    err = float(np.max(np.abs(rep.grid.values - quadratic(prob.grid.nodes))))
    return prob, rep, err


def test_criterion_03_solver_correctness():
    t0 = time.perf_counter()
    prob, rep, err = _solve_quadratic(0.1)
    elapsed = time.perf_counter() - t0
    resid = solver.residual(rep.function, prob)
    ok = err < 0.01 and resid <= 1e-8 and elapsed < 60.0
    assert report(3, "solver reproduces the quadratic", ok,
                  f"max nodal err {err:.3e} (< 0.01), mass residual {resid:.3e} "
                  f"(<= 1e-8), runtime {elapsed:.2f}s (< 60s)")


def test_criterion_03_refinement_clause():
    _, _, err_coarse = _solve_quadratic(0.1)
    _, _, err_fine = _solve_quadratic(0.05)
    ok = err_fine <= 0.6 * err_coarse
    report(3, "refinement clause on the quadratic problem", ok,
           f"err(h=0.05) {err_fine:.3e} vs 0.6 * err(h=0.1) {0.6 * err_coarse:.3e}")
    assert ok, (
        f"err(0.05)={err_fine:.3e} > 0.6*err(0.1)={0.6 * err_coarse:.3e}: the "
        "discrete scheme reproduces quadratics exactly (interior cells are "
        "exact lattice squares for quadratic heights, and the midpoint targets "
        "are exact for f = 1), so both errors sit at the floating-point floor "
        "and their ratio measures rounding noise, not convergence order; the "
        "measurable refinement property is exercised on the radial oracle in "
        "tests/test_solver.py::test_refinement_radial_oracle"
    )


def test_criterion_04_verify_dual(solved_dual_disk8, dual_profile_8):
    t0 = time.perf_counter()
    problem, rep, solve_seconds = solved_dual_disk8
    exact = dual_profile_8(problem.grid.nodes)
    sup_err = float(np.max(np.abs(rep.grid.values - exact)) / np.abs(exact).max())

    rows = ma_measure.dual_identity(rep.function, 1 / 8, 8.0, problem.grid.h)
    worst = max(row[-1] for row in rows)
    elapsed = time.perf_counter() - t0 + solve_seconds
    ok = sup_err < 0.02 and worst < 0.05 and elapsed < 600.0
    assert report(4, "dual-equation solve vs radial oracle", ok,
                  f"nodal rel err {sup_err:.3e} (< 2%), identity dev {worst:.3e} "
                  f"(< 5%), runtime incl. solve {elapsed:.1f}s (< 600s)")


def test_criterion_05_translator_identity(primal_profile_8):
    gf = grid.sample(primal_profile_8, grid.Domain2D.disk(1.0), 0.02)
    pl = ma_measure.lower_envelope(gf.nodes, gf.values)
    radii = np.hypot(gf.nodes[:, 0], gf.nodes[:, 1])
    subset = np.flatnonzero((radii >= 0.3) & (radii <= 0.7) & pl.hull_interior)
    rep = ma_measure.check_translator_identity(pl, 1 / 8, subset)
    total = ma_measure.gauss_map_mass(pl.cells)
    ok = rep.relative_residual < 0.03 and total <= 2 * np.pi
    assert report(5, "geometric-Alexandrov identity", ok,
                  f"relative residual {rep.relative_residual:.3e} (< 3%), "
                  f"gauss mass {total:.4f} (<= 2 pi)")


def test_criterion_06_caffarelli_balance(solved_dual_disk8):
    ones = lambda p: np.ones(len(np.atleast_2d(p)))
    worst = 0.0
    for t in 2.0 ** np.arange(0, 8):
        _, fit = sections.section_balance(quadratic, ones, np.zeros(2), np.zeros(2), float(t))
        worst = max(worst, abs(fit.k0 - np.sqrt(4 * np.pi)))
    problem, rep, _ = solved_dual_disk8
    rhs = grid.RhsField("dual_translator", alpha=1 / 8, eta=1.0)
    x0 = rep.grid.nodes[rep.grid.argmin_node()]
    k0s = []
    for t in 2.0 ** np.arange(0, 8):
        _, fit = sections.section_balance(rep.grid, rhs, x0, np.zeros(2), float(t))
        k0s.append(fit.k0)
    spread = max(k0s) / min(k0s)
    ok = worst <= 1e-3 and spread < 3.0
    assert report(6, "balance constants", ok,
                  f"quadratic |k0 - sqrt(4 pi)| max {worst:.2e} (<= 1e-3), "
                  f"solved-dual k0 spread {spread:.3f}x (< 3x)")


def test_criterion_07_eccentricity_scaling(dual_profile_8):
    sep = oracle.SeparableSolution(alpha=1 / 8, a=1.0)
    series = analysis.eccentricity_cascade(sep, np.zeros(2), np.zeros(2), 2.0 ** np.arange(8))
    theory = sep.eccentricity_slope()
    rel = abs(series.slope - theory) / theory
    flat = analysis.eccentricity_cascade(
        dual_profile_8, np.zeros(2), np.zeros(2), 2.0 ** np.arange(8)
    )
    ok = rel <= 0.05 and abs(flat.slope) <= 0.02
    assert report(7, "eccentricity scaling", ok,
                  f"separable slope {series.slope:.5f} vs {theory:.5f} "
                  f"(rel {rel:.3%}, tol 5%), radial slope {flat.slope:.2e} (|.| <= 0.02)")


def test_criterion_08_stability_property(solved_dual_disk8):
    problem, rep, _ = solved_dual_disk8
    x0 = rep.grid.nodes[rep.grid.argmin_node()]
    series = analysis.eccentricity_cascade(rep.grid, x0, np.zeros(2), 2.0 ** np.arange(8))
    ok = analysis.stability_check(series, M=3.0, C1=4.0)
    c1 = analysis.minimal_stability_constant(series, 3.0)
    assert report(8, "eccentricity stays controlled at higher levels", ok,
                  f"|A| in [{series.norms.min():.3f}, {series.norms.max():.3f}], "
                  f"minimal C1 {c1:.3f} (<= 4 required)")


def test_criterion_09_doubling():
    ones = lambda p: np.ones(len(np.atleast_2d(p)))
    est1 = sections.doubling_constant(ones, grid.Domain2D.disk(10.0), 1000, rng_seed=42)
    f = grid.RhsField("dual_translator", alpha=1 / 8, eta=1.0)
    dom = grid.Domain2D.disk(1000.0)
    e3 = sections.doubling_constant(f, dom, 1000, rng_seed=42)
    e3_again = sections.doubling_constant(f, dom, 1000, rng_seed=42)
    e4 = sections.doubling_constant(f, dom, 10000, rng_seed=42)
    stable = abs(e4 - e3) / e3 <= 0.10
    ok = abs(est1 - 4.0) <= 1e-6 and np.isfinite(e4) and stable and e3 == e3_again
    assert report(9, "doubling estimator", ok,
                  f"constant density {est1} (= 4 +- 1e-6), dual estimate "
                  f"{e3:.3f} -> {e4:.3f} (drift {abs(e4 - e3) / e3:.2%} <= 10%), "
                  f"deterministic {e3 == e3_again}")


def test_criterion_10_legendre_duality(primal_profile_8, dual_profile_8):
    h = 0.05
    u = grid.sample(primal_profile_8, grid.Domain2D.disk(2.0), h)
    max_slope = float(primal_profile_8.slope(2.0))
    res = legendre.legendre_transform(u, grid.Domain2D.disk(0.8 * max_slope), h)
    gap = float(np.max(np.abs(res.dual.values - dual_profile_8(res.dual.nodes))))
    tol = 3 * h * max_slope

    rng = np.random.default_rng(0)
    exact = True
    for field in (lambda p: rng.standard_normal(len(p)), quadratic,
                  lambda p: np.zeros(len(p))):
        g = grid.sample(field, grid.Domain2D.square(1.0), 2.0 / 39.0)  # 39 x 39
        assert len(g) <= 1600
        fast = legendre.legendre_transform(g, grid.Domain2D.square(1.2), 0.15, method="fast")
        brute = legendre.legendre_transform(g, grid.Domain2D.square(1.2), 0.15, method="brute")
        exact = exact and np.array_equal(fast.dual.values, brute.dual.values)
    ok = gap <= tol and exact
    assert report(10, "discrete Legendre duality", ok,
                  f"primal-dual gap {gap:.4f} (<= 3 h max-slope = {tol:.4f}), "
                  f"fast == brute bitwise: {exact}")


def test_criterion_11_sublevel_compactness(dual_profile_8):
    gf = grid.sample(dual_profile_8, grid.Domain2D.disk(8.0), 0.25)
    boundary_min = float(gf.values[gf.boundary_mask].min())
    low_levels = [float(dual_profile_8.value(r)[0]) for r in (1.0, 2.0, 4.0, 6.0, 7.0)]
    high_levels = [boundary_min * 1.05, boundary_min * 2.0]
    verdicts = sections.sublevel_compactness(gf, low_levels + high_levels)
    expected = [True] * len(low_levels) + [False] * len(high_levels)
    ok = verdicts == expected
    assert report(11, "sub-level compactness verdicts", ok,
                  f"below-boundary levels {verdicts[:len(low_levels)]}, "
                  f"above-boundary levels {verdicts[len(low_levels):]}")
