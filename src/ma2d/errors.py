"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all ma2d errors."""


class NonfiniteValue(ToolkitError):
    """A sampled or computed value is NaN or infinite."""


class EmptyDomain(ToolkitError):
    """No lattice node falls inside the requested domain."""


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
    work counters, per-step residuals and step lengths up to the failure, as
    ``SolveReport`` names them.
    """

    def __init__(self, message, residual=None, newton_steps=0, mass_passes=0,
                 hull_builds=0, hull_sites=0, backtracks=0, edge_flips=0,
                 start_boundary_sites=0, residuals=(), step_lengths=(), cg_iterations=()):
        super().__init__(message)
        self.residual = residual
        self.newton_steps = newton_steps
        self.mass_passes = mass_passes
        self.hull_builds = hull_builds
        self.hull_sites = hull_sites
        self.backtracks = backtracks
        self.edge_flips = edge_flips
        self.start_boundary_sites = start_boundary_sites
        self.residuals = residuals
        self.step_lengths = step_lengths
        self.cg_iterations = cg_iterations


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
