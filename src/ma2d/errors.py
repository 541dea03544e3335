"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all ma2d errors."""


class NonfiniteValue(ToolkitError):
    """A sampled or computed value is NaN or infinite."""


class LatticeTooLarge(ToolkitError):
    """A sampling lattice would exceed the node budget of ``grid.sample``."""


class MalformedFile(ToolkitError):
    """A persisted file violates its format; message carries the line number."""


class DegenerateInput(ToolkitError):
    """Input points are collinear or otherwise do not span the plane."""


class AlphaOutOfRange(ToolkitError):
    """The flow power alpha lies outside the admissible open interval (0, 1/4)."""


class NoConvergence(ToolkitError):
    """The iterative solver did not meet its tolerance.

    Besides the residual of the heights it reached, it carries the solve's
    ``work``, the ``solver.SolveWork`` record of its counters, per-step
    residuals, step lengths and CG iterations up to the failure (None when
    the solve failed before it started).
    """

    def __init__(self, message, residual=None, work=None):
        super().__init__(message)
        self.residual = residual
        self.work = work


class InfeasibleBoundary(ToolkitError):
    """Boundary data admits no convex extension meeting the prescribed masses."""


class SectionNotCompact(ToolkitError):
    """A sub-level set reaches the computational boundary."""


class DegeneratePolygon(ToolkitError):
    """Polygon area is below the degeneracy threshold."""


class DivideByZeroMass(ToolkitError):
    """A balance radius was requested for a section of zero mass."""


class DomainTooSmall(ToolkitError):
    """The evaluable domain cannot host the requested circles."""


class ConfigInvalid(ToolkitError):
    """An experiment configuration violates the schema."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)
