"""2D Monge-Ampere toolkit: exact discrete Alexandrov solutions, Legendre
duality, section geometry, and growth-rate experiments."""

from . import analysis, errors, geometry, grid, legendre, ma_measure, oracle, sections, solver

__all__ = [
    "analysis",
    "cli",
    "errors",
    "geometry",
    "grid",
    "legendre",
    "ma_measure",
    "oracle",
    "sections",
    "solver",
]
