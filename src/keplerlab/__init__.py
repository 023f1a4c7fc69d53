"""Numerical laboratory for integrator-induced precession in the planar
Kepler problem: six discrete schemes, their step-size perturbation theory,
and the measurement tools that compare the two."""

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
    CIRCULAR_ECCENTRICITY,
    KEPLER_TOLERANCE,
    SINGULARITY_FLOOR,
    ExactOrbit,
    OrbitElements,
    PlanarVector,
    State,
    elements_from_state,
    observable_series,
    solve_kepler,
)
from .integrators import (
    FR_THETA,
    IntegrationStats,
    MethodId,
    STENCILS,
    Trajectory,
    init_second_point,
    integrate,
    reconstruct_velocities,
)
from .theory import (
    DEFAULT_AVERAGE_NODES,
    REFERENCE_STEP,
    ModifiedModel,
    PrecessionPrediction,
    integrate_modified,
    lrl_symmetry_field,
    orbit_average,
    orbit_average_closed_form,
    perturbation_field,
    precession_closed_form,
    precession_quadrature,
)
from .analysis import (
    PrecessionEstimate,
    convergence_slope,
    discrete_angular_momentum,
    energy_drift,
    error_curve,
    measure_precession,
    trajectory_arrays,
)

__version__ = "0.1.0"
