"""Numerical laboratory for integrator-induced precession in the planar
Kepler problem: six discrete schemes, their step-size perturbation theory,
and the measurement tools that compare the two.  The namespace re-exports
what the scripts, the benchmark and the acceptance criteria import, and the
exception classes; every other name is imported from its module."""

from .errors import (
    ConfigurationError,
    DegenerateOrbit,
    KeplerLabError,
    NearSingularity,
    NumericalFailure,
    SignChange,
    SingularMassMatrix,
    SolverFailure,
    TooFewRevolutions,
    UnboundOrbit,
)
from .kepler import (
    ExactOrbit,
    OrbitElements,
    PlanarVector,
    State,
    observable_series,
)
from .integrators import (
    MethodId,
    Trajectory,
    integrate,
)
from .theory import (
    ModifiedModel,
    integrate_modified,
    orbit_average,
    orbit_average_closed_form,
    precession_closed_form,
    precession_quadrature,
)
from .analysis import (
    convergence_slope,
    discrete_angular_momentum,
    energy_drift,
    measure_precession,
)

__version__ = "0.1.0"
