"""Theorem-level experiments: growth-exponent fits, the eccentricity cascade
and its anisotropic scaling law, and the high-level stability property."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainTooSmall, NonfiniteValue
from .grid import check_alpha
from .sections import eccentricity, extract_section, john_ellipsoid


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares fit of log value against log radius on growing circles."""

    radii: np.ndarray
    min_values: np.ndarray
    max_values: np.ndarray
    slope: float
    intercept: float
    slope_theory: float | None
    ratio_proxy: float  # spread of value * r^(-slope_theory) on the top three circles


def growth_exponent(v, r_min: float, r_max: float, n_circles: int,
                    slope_theory: float | None = None, recenter: bool = False) -> GrowthFit:
    """Fit the polynomial growth rate of an evaluable convex function.

    Values are sampled on geometric circles with 256 points each; beyond four
    circles the smallest is dropped from the fit (additive-constant
    contamination is largest there).  ``recenter`` shifts to the argmin and
    subtracts the minimum first, making the fit exactly invariant under added
    affine terms.
    """
    if not (np.isfinite(r_min) and np.isfinite(r_max)) or r_min <= 0 or r_max <= r_min:
        raise DomainTooSmall("need 0 < r_min < r_max")
    if n_circles < 4:
        raise DomainTooSmall("need at least 4 circles")
    fn = v
    if recenter:
        from scipy import optimize

        res = optimize.minimize(
            lambda x: float(np.asarray(v(x[None, :]))[0]),
            np.zeros(2),
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000},
        )
        x_star = res.x
        v_star = float(np.asarray(v(x_star[None, :]))[0])
        fn = lambda pts: np.asarray(v(pts + x_star)) - v_star

    radii = np.geomspace(r_min, r_max, n_circles)
    theta = 2 * np.pi * np.arange(256) / 256
    unit = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    mins = np.empty(n_circles)
    maxs = np.empty(n_circles)
    logs = []
    for i, r in enumerate(radii):
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            vals = np.asarray(fn(r * unit), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise NonfiniteValue(f"non-finite values on circle r={r}")
        if np.any(vals <= 0):
            raise DomainTooSmall(f"nonpositive values on circle r={r}")
        mins[i], maxs[i] = vals.min(), vals.max()
        logs.append(np.log(vals))
    use = slice(1, None) if n_circles > 4 else slice(None)
    x = np.repeat(np.log(radii[use]), len(theta))
    y = np.concatenate(logs[use])
    slope, intercept = np.polyfit(x, y, 1)

    theory = slope_theory if slope_theory is not None else float(slope)
    scaled = []
    for r, lo, hi in zip(radii[-3:], mins[-3:], maxs[-3:]):
        scaled.extend([lo * r ** (-theory), hi * r ** (-theory)])
    ratio = float(np.max(scaled) / np.min(scaled))
    return GrowthFit(
        radii=radii,
        min_values=mins,
        max_values=maxs,
        slope=float(slope),
        intercept=float(intercept),
        slope_theory=slope_theory,
        ratio_proxy=ratio,
    )


def dt_matrix(t: float, alpha: float) -> np.ndarray:
    """Anisotropic section scaling diag(t^(alpha/(1-2 alpha)), t^(1/2))."""
    check_alpha(alpha)
    if not t > 0:
        raise ValueError("t must be positive")
    return np.diag([t ** (alpha / (1.0 - 2.0 * alpha)), t**0.5])


def gamma_membership(x, alpha: float, theta: float) -> str:
    """Classify a point against the dilations of the anisotropic unit region
    {|x1|^(1/alpha - 2) + x2^2 < 1}: returns "inside", "band", or "outside"."""
    check_alpha(alpha)
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    x = np.asarray(x, dtype=float)

    def gauge(pt):
        return abs(pt[0]) ** (1.0 / alpha - 2.0) + pt[1] ** 2

    if gauge(x / (1.0 - theta)) < 1.0:
        return "inside"
    if gauge(x / (1.0 + theta)) > 1.0:
        return "outside"
    return "band"


@dataclass(frozen=True)
class CascadeSeries:
    """Eccentricities of sections at a ladder of heights, with the log-log slope."""

    levels: np.ndarray
    fits: tuple
    norms: np.ndarray  # |A_t| per level
    slope: float


def eccentricity_cascade(v, x0, p, levels) -> CascadeSeries:
    """Per-level section -> John fit -> |A|, plus the slope of log|A| vs log t."""
    levels = np.asarray(levels, dtype=float)
    if np.any(levels <= 0) or np.any(np.diff(levels) <= 0):
        raise ValueError("levels must be positive and increasing")
    fits = []
    norms = np.empty(len(levels))
    for i, t in enumerate(levels):
        sec = extract_section(v, x0, p, float(t))
        fit = john_ellipsoid(sec.polygon)
        fits.append(fit)
        norms[i] = eccentricity(fit)
    slope = float(np.polyfit(np.log(levels), np.log(norms), 1)[0])
    return CascadeSeries(levels=levels, fits=tuple(fits), norms=norms, slope=slope)


def singular_ratio_slope(series: CascadeSeries) -> float:
    """Slope of log(largest/smallest singular value of A_t) against log t."""
    ratios = []
    for fit in series.fits:
        ev = np.linalg.eigvalsh(fit.normalized)
        ratios.append(ev[-1] / ev[0])
    return float(np.polyfit(np.log(series.levels), np.log(ratios), 1)[0])


def stability_check(series: CascadeSeries, M: float, C1: float) -> bool:
    """Once some level has |A| <= M, do all higher levels stay below C1 * M?

    Vacuously true when no level qualifies.
    """
    qual = np.flatnonzero(series.norms <= M)
    if len(qual) == 0:
        return True
    start = qual[0]
    return bool(np.all(series.norms[start:] <= C1 * M))


def minimal_stability_constant(series: CascadeSeries, M: float) -> float:
    """Smallest C1 making stability_check pass (nan when no level qualifies)."""
    qual = np.flatnonzero(series.norms <= M)
    if len(qual) == 0:
        return float("nan")
    return float(series.norms[qual[0]:].max() / M)
