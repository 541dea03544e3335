import numpy as np
import pytest

from ma2d import analysis, oracle
from ma2d.errors import DomainTooSmall

from conftest import quadratic


def test_quadratic_slope_exact():
    fit = analysis.growth_exponent(quadratic, 16.0, 256.0, 8, slope_theory=2.0)
    assert abs(fit.slope - 2.0) < 1e-6


def test_growth_requires_window():
    with pytest.raises(DomainTooSmall):
        analysis.growth_exponent(quadratic, 16.0, 16.0, 8, slope_theory=2.0)
    with pytest.raises(DomainTooSmall):
        analysis.growth_exponent(quadratic, 16.0, 256.0, 3, slope_theory=2.0)


def test_growth_lambda_rescaling_matched_windows(dual_profile_8):
    lam = 2.0
    alpha = 1 / 8
    v = dual_profile_8
    v_lam = lambda pts: lam ** (-1.0 / (2 * alpha)) * np.asarray(v(lam * np.atleast_2d(pts)))
    a = analysis.growth_exponent(v_lam, 8.0, 64.0, 6, slope_theory=1 / (2 * alpha))
    b = analysis.growth_exponent(v, 8.0 * lam, 64.0 * lam, 6, slope_theory=1 / (2 * alpha))
    assert abs(a.slope - b.slope) < 1e-6


def test_separable_cascade_slope():
    sep = oracle.SeparableSolution(alpha=1 / 8, a=1.0)
    series = analysis.eccentricity_cascade(
        sep, np.zeros(2), np.zeros(2), 2.0 ** np.arange(8)
    )
    theory = sep.eccentricity_slope()
    assert abs(series.slope - theory) / theory < 0.05


def test_radial_cascade_flat(dual_profile_8):
    series = analysis.eccentricity_cascade(
        dual_profile_8, np.zeros(2), np.zeros(2), 2.0 ** np.arange(8)
    )
    assert np.all(series.norms >= 1.0 - 1e-9)
    assert np.all(series.norms <= 1.2)
    assert abs(series.slope) <= 0.02


def test_cascade_scaling_identity(dual_profile_8):
    # matched-height sections of the lambda-rescaled function have the same |A|
    lam = 4.0
    alpha = 1 / 8
    v = dual_profile_8
    v_lam = lambda pts: lam ** (-1.0 / (2 * alpha)) * np.asarray(v(lam * np.atleast_2d(pts)))
    levels = np.array([1.0, 2.0, 4.0])
    a = analysis.eccentricity_cascade(v_lam, np.zeros(2), np.zeros(2), levels)
    b = analysis.eccentricity_cascade(
        v, np.zeros(2), np.zeros(2), levels * lam ** (1.0 / (2 * alpha))
    )
    assert np.allclose(a.norms, b.norms, atol=1e-6)


def test_stability_check_and_minimal_constant(dual_profile_8):
    series = analysis.eccentricity_cascade(
        dual_profile_8, np.zeros(2), np.zeros(2), 2.0 ** np.arange(6)
    )
    assert analysis.stability_check(series, 2.0, 2.0)
    sep = oracle.SeparableSolution(alpha=1 / 8, a=1.0)
    cas = analysis.eccentricity_cascade(
        sep, np.zeros(2), np.zeros(2), 2.0 ** np.arange(8)
    )
    c1 = analysis.minimal_stability_constant(cas, 3.0)
    assert np.isfinite(c1) and c1 > 1.0
    assert analysis.stability_check(cas, 3.0, c1 + 1e-9)
    assert not analysis.stability_check(cas, 3.0, c1 * 0.9)
