"""Error hierarchy shared by every module.

Two broad families: ConfigError for bad inputs and violated preconditions
(CLI exit code 2), NumericalError for solver and property failures at
runtime (CLI exit code 3). Specific subclasses exist so callers can react
to one failure mode without string-matching messages.
"""


class SpikeCrownError(Exception):
    """Base class for everything raised deliberately by this package."""


class ConfigError(SpikeCrownError):
    """Invalid parameters, domains, or violated preconditions."""


class NumericalError(SpikeCrownError):
    """A numerical procedure failed to meet its contract."""


class NoGroundStateError(NumericalError):
    """Shooting could not bracket a decaying radial profile."""


class IterationError(NumericalError):
    """An iterative procedure hit its iteration cap before converging."""


class DecayFitError(NumericalError):
    """The far-field plateau fit has too much spread; profile suspect."""


class IntegrationError(NumericalError):
    """Adaptive quadrature or an ODE shot failed to reach the requested
    accuracy."""


class NonUniqueProjectionError(NumericalError):
    """Nearest-point projection is ambiguous (medial-axis point) or the
    query sits beyond the curve's reach."""


class ParallelCurveDegeneracyError(ConfigError):
    """Requested offset distance reaches 1/kappa_max; the inner parallel
    curve is no longer regular."""


class PropertyViolationError(NumericalError):
    """A sampled geometric property that should hold was violated.

    Carries the offending samples in ``report`` when available.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NoCriticalDeltaError(NumericalError):
    """No offset distance balances chord and distance for this spike
    count on this domain."""


class PackingConsistencyError(NumericalError):
    """The computed crown violates its own defining distances."""


class ProjectionAccuracyError(NumericalError):
    """Boundary-correction solve lost positivity; grid too coarse for
    the requested eps."""


class LinearSolveError(NumericalError):
    """Sparse linear solve missed the residual tolerance."""


class NewtonStallError(NumericalError):
    """Damped Newton exhausted backtracking without residual decrease."""


class DivergenceError(NumericalError):
    """Newton residuals diverged; initial guess outside the basin."""


class PeakCountError(NumericalError):
    """Extracted peak count differs from the expected spike count."""


class BoundaryTrappedError(NumericalError):
    """Energy descent could not take any admissible step inside the
    configuration set."""
