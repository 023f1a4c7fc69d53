"""Exception taxonomy shared across the package.

Configuration and domain errors derive from ValueError so callers can catch
them coarsely; numerical failures (divergence, near-collision) derive from
ArithmeticError and carry diagnostic context where available.
"""


class KeplerLabError(Exception):
    """Common base so callers can catch everything from this package."""


class ConfigurationError(KeplerLabError, ValueError):
    """Bad inputs: invalid method names, nonpositive steps, malformed config."""


class UnboundOrbit(KeplerLabError, ValueError):
    """Initial state has nonnegative energy; the analysis needs a bound orbit."""


class DegenerateOrbit(KeplerLabError, ValueError):
    """Zero angular momentum: radial collision orbit, no well-defined ellipse."""


class TooFewRevolutions(KeplerLabError, ValueError):
    """Trajectory too short or too coarse for a meaningful secular fit."""


class SignChange(KeplerLabError, ValueError):
    """Log-log slope fit given values of mixed sign (or exact zeros)."""


class NumericalFailure(KeplerLabError, ArithmeticError):
    """Base for runtime numerical breakdowns during integration."""


class SolverFailure(NumericalFailure):
    """Newton iteration did not converge within its budget."""


class NearSingularity(NumericalFailure):
    """Position fell inside the collision guard radius."""


class SingularMassMatrix(NumericalFailure):
    """Velocity Hessian of a modified Lagrangian is not safely invertible."""
