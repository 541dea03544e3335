"""Theorem-level experiments: growth-exponent fits, the eccentricity cascade
and the high-level stability property."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainTooSmall, NonfiniteValue
from .sections import eccentricity, extract_sections, john_ellipses


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares fit of log value against log radius on growing circles."""

    radii: np.ndarray
    min_values: np.ndarray
    max_values: np.ndarray
    slope: float
    ratio_proxy: float  # spread of value * r^(-slope_theory) on the top three circles


def growth_exponent(v, r_min: float, r_max: float, n_circles: int,
                    slope_theory: float) -> GrowthFit:
    """Fit the polynomial growth rate of an evaluable convex function.

    Values are sampled on geometric circles with 256 points each; beyond four
    circles the smallest is dropped from the fit (additive-constant
    contamination is largest there).
    """
    if not (np.isfinite(r_min) and np.isfinite(r_max)) or r_min <= 0 or r_max <= r_min:
        raise DomainTooSmall("need 0 < r_min < r_max")
    if n_circles < 4:
        raise DomainTooSmall("need at least 4 circles")
    radii = np.geomspace(r_min, r_max, n_circles)
    theta = 2 * np.pi * np.arange(256) / 256
    unit = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    mins = np.empty(n_circles)
    maxs = np.empty(n_circles)
    logs = []
    for i, r in enumerate(radii):
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            vals = np.asarray(v(r * unit), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise NonfiniteValue(f"non-finite values on circle r={r}")
        if np.any(vals <= 0):
            raise DomainTooSmall(f"nonpositive values on circle r={r}")
        mins[i], maxs[i] = vals.min(), vals.max()
        logs.append(np.log(vals))
    use = slice(1, None) if n_circles > 4 else slice(None)
    x = np.repeat(np.log(radii[use]), len(theta))
    y = np.concatenate(logs[use])
    slope = np.polyfit(x, y, 1)[0]

    scaled = []
    for r, lo, hi in zip(radii[-3:], mins[-3:], maxs[-3:]):
        scaled.extend([lo * r ** (-slope_theory), hi * r ** (-slope_theory)])
    ratio = float(np.max(scaled) / np.min(scaled))
    return GrowthFit(
        radii=radii,
        min_values=mins,
        max_values=maxs,
        slope=float(slope),
        ratio_proxy=ratio,
    )


@dataclass(frozen=True)
class CascadeSeries:
    """Eccentricities of sections at a ladder of heights, with the log-log slope."""

    levels: np.ndarray
    norms: np.ndarray  # |A_t| per level
    slope: float


def eccentricity_cascade(v, x0, p, levels) -> CascadeSeries:
    """Per-level section -> John fit -> |A|, plus the slope of log|A| vs log t.

    Every level's section is traced, and every section fitted, in one call
    (``extract_sections``, ``john_ellipses``).
    """
    levels = np.asarray(levels, dtype=float)
    if np.any(levels <= 0) or np.any(np.diff(levels) <= 0):
        raise ValueError("levels must be positive and increasing")
    secs = extract_sections(v, x0, p, levels)
    fits = john_ellipses([sec.polygon for sec in secs])
    norms = np.array([eccentricity(fit) for fit in fits])
    slope = float(np.polyfit(np.log(levels), np.log(norms), 1)[0])
    return CascadeSeries(levels=levels, norms=norms, slope=slope)


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
