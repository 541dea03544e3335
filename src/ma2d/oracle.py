"""Closed-form reference solutions used as ground truth everywhere.

Radial reduction: for u(x) = v(|x|) with slope p(r) = v'(r), the determinant
of the Hessian is det D2 u = v''(r) v'(r) / r, so any radial right-hand side
f(r) gives the first integral

    d/dr [ P(p(r)) ] = r f(r),     P(p) = integral of q dq / ...

Concretely:

* graph equation  det D2 u = (1 + |Du|^2)^(2 - 1/(2 alpha)):
      (1 + p^2)^(1/(2 alpha) - 1) = 1 + (1/alpha - 2) r^2 / 2,
  hence p(r) = sqrt((1 + c r^2)^(2 alpha / (1 - 2 alpha)) - 1) with
  c = (1/alpha - 2)/2.

* dual equation  det D2 v = (eta + r^2)^(1/(2 alpha) - 2):
      q(r) = sqrt(((eta + r^2)^k - eta^k) / k),  k = 1/(2 alpha) - 1
  (for eta = 0 the profile is the pure power sqrt(2/(1/alpha - 2)) r^(k)).

Values are slope integrals, tabulated once on a dense geometric grid and
corrected locally with Gauss-Legendre panels (absolute error well below 1e-10).

The 15-point rule is pinned as float64 literals and each panel sum runs in a
fixed node order, so values do not depend on the LAPACK eigen-solve behind
``leggauss`` or on the BLAS kernel's summation order; the shipped ``.gfn``
fixture regenerates bit for bit on any BLAS/LAPACK build.  The literals are
numpy's ``leggauss(15)`` before its symmetrisation step (companion-matrix
eigenvalues, one Newton step, weights scaled to sum to 2): the end weights sit
about 700 ulp from the exact Gauss-Legendre values, yet every monomial of
degree <= 29 integrates to within 5e-15 on [-1, 1].  What remains machine
dependent is numpy's float64 ``power`` (``np.geomspace`` for the table knots,
``**`` in the slopes), which numpy dispatches by CPU feature, e.g. to an
AVX-512 SVML kernel.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainTooSmall
from .grid import check_alpha

_TABLE_RMIN = 1e-6
_TABLE_RMAX = 4e3
_TABLE_N = 1024
_GL_X = np.array([float.fromhex(v) for v in (
    "-0x1.f9da27c32e6d0p-1", "-0x1.dfe24c4f8b447p-1", "-0x1.b248221fffd63p-1",
    "-0x1.72e6e181ab3c4p-1", "-0x1.245676f08f3a4p-1", "-0x1.939c69257d6b6p-2",
    "-0x1.9c0ba62ef04b5p-3", "0x1.0000000000000p-105", "0x1.9c0ba62ef04b5p-3",
    "0x1.939c69257d6b6p-2", "0x1.245676f08f3a4p-1", "0x1.72e6e181ab3c4p-1",
    "0x1.b248221fffd63p-1", "0x1.dfe24c4f8b447p-1", "0x1.f9da27c32e6d1p-1",
)])
_GL_W = np.array([float.fromhex(v) for v in (
    "0x1.f7dc7227a2bcep-6", "0x1.2038260b5d043p-4", "0x1.b6ec9635f111cp-4",
    "0x1.1dd73b4963161p-3", "0x1.5484f30a86ed2p-3", "0x1.7d41fa76dc264p-3",
    "0x1.96633f1fd02ccp-3", "0x1.9ee1575f9c97fp-3", "0x1.96633f1fd02cep-3",
    "0x1.7d41fa76dc268p-3", "0x1.5484f30a86ed2p-3", "0x1.1dd73b4963168p-3",
    "0x1.b6ec9635f1121p-4", "0x1.2038260b5d02fp-4", "0x1.f7dc7227a263dp-6",
)])


def radial_primal_slope(alpha: float, r) -> np.ndarray:
    """Slope p(r) of the rotationally symmetric graph-equation solution."""
    alpha = check_alpha(alpha)
    r = np.asarray(r, dtype=float)
    c = (1.0 / alpha - 2.0) / 2.0
    expo = 2.0 * alpha / (1.0 - 2.0 * alpha)
    inner = np.maximum((1.0 + c * r**2) ** expo - 1.0, 0.0)
    return np.sqrt(inner)


def radial_dual_slope(alpha: float, r, eta: float = 1.0) -> np.ndarray:
    """Slope q(r) of the rotationally symmetric dual-equation solution."""
    alpha = check_alpha(alpha)
    r = np.asarray(r, dtype=float)
    k = 1.0 / (2.0 * alpha) - 1.0
    if eta == 0.0:
        return np.sqrt(2.0 / (1.0 / alpha - 2.0)) * r**k
    inner = np.maximum(((eta + r**2) ** k - eta**k) / k, 0.0)
    return np.sqrt(inner)


@dataclass(frozen=True)
class RadialProfile:
    """Radial slope/value pair for one of the two rotationally symmetric solutions.

    kind is "primal_translator" or "dual_translator"; values come from the
    cached cumulative slope integral.
    """

    alpha: float
    kind: str
    eta: float = 1.0

    def __post_init__(self):
        check_alpha(self.alpha)
        if self.kind not in ("primal_translator", "dual_translator"):
            raise ValueError(f"unknown profile kind {self.kind!r}")

    def slope(self, r) -> np.ndarray:
        if self.kind == "primal_translator":
            return radial_primal_slope(self.alpha, r)
        return radial_dual_slope(self.alpha, r, eta=self.eta)

    @cached_property
    def _table(self):
        knots = np.concatenate(
            [[0.0], np.geomspace(_TABLE_RMIN, _TABLE_RMAX, _TABLE_N)]
        )
        segs = self._panel_integrals(knots[:-1], knots[1:])
        cum = np.concatenate([[0.0], np.cumsum(segs)])
        return knots, cum

    def _panel_integrals(self, a, b) -> np.ndarray:
        """15-point Gauss-Legendre slope integrals over the panels [a, b].

        The weighted sum is a running sum over the nodes in order (an
        accumulate adds one term at a time), not a BLAS product, whose
        summation order depends on the CPU kernel.
        """
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        nodes = mid[None, :] + half[None, :] * _GL_X[:, None]
        vals = self.slope(nodes.ravel()).reshape(nodes.shape)
        vals *= _GL_W[:, None]
        return half * np.add.accumulate(vals, axis=0, out=vals)[-1]

    def value(self, r) -> np.ndarray:
        """v(r) = integral of the slope from 0, vectorized over radii; raises
        DomainTooSmall beyond r = 4000, where the table ends."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        if np.any(r < 0):
            raise ValueError("radius must be nonnegative")
        if np.any(r > _TABLE_RMAX):
            raise DomainTooSmall(
                f"radius {r.max():.6g} beyond the oracle's table range {_TABLE_RMAX:g}"
            )
        knots, cum = self._table
        idx = np.searchsorted(knots, r, side="right") - 1
        return cum[idx] + self._panel_integrals(knots[idx], r)

    def __call__(self, points) -> np.ndarray:
        """Evaluate as a function of the plane (vectorized over (N, 2))."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self.value(np.hypot(pts[:, 0], pts[:, 1]))

    def rhs(self, points) -> np.ndarray:
        """The radial right-hand side this profile solves."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
        if self.kind == "primal_translator":
            p2 = self.slope(np.sqrt(r2)) ** 2
            return (1.0 + p2) ** (2.0 - 1.0 / (2.0 * self.alpha))
        return (self.eta + r2) ** (1.0 / (2.0 * self.alpha) - 2.0)


@dataclass(frozen=True)
class SeparableSolution:
    """Separable solution a |x1|^p + b x2^2 of det D2 u = |x1|^(1/alpha - 4).

    With p = 1/alpha - 2 the power balance requires 2 a b p (p - 1) = 1;
    b is derived from a.  The level-t sub-level set has semi-axes
    (t/a)^(1/p) and (t/b)^(1/2).
    """

    alpha: float
    a: float = 1.0

    def __post_init__(self):
        check_alpha(self.alpha)
        if not self.a > 0:
            raise ValueError("coefficient a must be positive")

    @property
    def p(self) -> float:
        return 1.0 / self.alpha - 2.0

    @property
    def b(self) -> float:
        return 1.0 / (2.0 * self.a * self.p * (self.p - 1.0))

    def __call__(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self.a * np.abs(pts[:, 0]) ** self.p + self.b * pts[:, 1] ** 2

    def eccentricity_slope(self) -> float:
        """Exact log-log slope of the normalized section matrix norm in t.

        Semi-axes scale like t^(1/p) and t^(1/2), p = 1/alpha - 2, so
        |A_t| = (s2/s1)^(1/2) has slope (1/2 - 1/p)/2 = (1/2 - alpha/(1-2*alpha))/2.
        """
        return 0.5 * (0.5 - self.alpha / (1.0 - 2.0 * self.alpha))

