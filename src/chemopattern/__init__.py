"""Pattern-formation laboratory for a diffusion-chemotaxis model with a
proliferation source.

The package covers the full chain from model parameters to patterns:

* linear stability of the uniform state in the cosine (Neumann) eigenbasis,
  including the critical chemotactic coupling and the set of critical modes
  (:mod:`chemopattern.core`);
* the two-mode amplitude reduction near criticality, its coefficients,
  equilibria and their stability (:mod:`chemopattern.reduction`);
* phase-portrait analysis of the planar amplitude system: basins of
  attraction and the ring attractor built from equilibria and their
  connecting orbits (:mod:`chemopattern.planar`);
* a dealiased cosine-pseudospectral simulator of the full nonlocal equation,
  used as the independent oracle for every reduction claim
  (:mod:`chemopattern.transforms`, :mod:`chemopattern.simulator`,
  :mod:`chemopattern.fitting`);
* a reproducible experiment harness with a small config language and
  plain-text outputs (:mod:`chemopattern.config`, :mod:`chemopattern.verify`,
  :mod:`chemopattern.cli`).
"""

from .core import (
    CriticalData,
    DomainGeometry,
    ModelParams,
    PhysicalParams,
    SearchBoundaryError,
    helmholtz_gain,
    lambda_critical,
    make_critical_geometry,
    nondimensionalize,
    pes_classification,
    rho,
    sigma,
)
from .reduction import (
    EquilibriumPoint,
    RectangleRootError,
    ReducedCoefficients,
    ResonanceError,
    b_coefficients,
    classify_equilibrium,
    cubic_coefficients,
    equilibria,
    kappa_coefficients,
    quadratic_coefficient,
    reduced_vector_field,
    slaved_modes,
    transition_type,
)
from .planar import AttractorDescriptor, Trajectory, attractor_graph, basin_survey, integrate
from .transforms import GridField, SpectralField, helmholtz_inverse, transform_inverse
from .simulator import Diagnostics, SimConfig, nonlinear_rhs, simulate, simulate_full_system, step
from .fitting import fit_saturation, fit_slaving, pattern_fingerprint

__all__ = [
    "AttractorDescriptor",
    "CriticalData",
    "Diagnostics",
    "DomainGeometry",
    "EquilibriumPoint",
    "GridField",
    "ModelParams",
    "PhysicalParams",
    "RectangleRootError",
    "ReducedCoefficients",
    "ResonanceError",
    "SearchBoundaryError",
    "SimConfig",
    "SpectralField",
    "Trajectory",
    "attractor_graph",
    "b_coefficients",
    "basin_survey",
    "classify_equilibrium",
    "cubic_coefficients",
    "equilibria",
    "fit_saturation",
    "fit_slaving",
    "helmholtz_gain",
    "helmholtz_inverse",
    "integrate",
    "kappa_coefficients",
    "lambda_critical",
    "make_critical_geometry",
    "nondimensionalize",
    "nonlinear_rhs",
    "pattern_fingerprint",
    "pes_classification",
    "quadratic_coefficient",
    "reduced_vector_field",
    "rho",
    "sigma",
    "simulate",
    "simulate_full_system",
    "slaved_modes",
    "step",
    "transform_inverse",
    "transition_type",
]
