"""schroflow: spectral simulation of scaling-invariant electromagnetic
Schrodinger and heat flows, with cross-validated propagation routes and
frequency-dependent decay-exponent experiments."""

from .angular import (AngularEigensystem, AngularProblem, assemble_circle,
                      circle_eigensystem, constant_a_spectrum, eigensolve)
from .flow import (KernelSpec, SeparatedState, compare_routes, decay_fit,
                   evolve_mode_closed_form, heat_residual, heat_self_similar,
                   kernel_eval, propagate_representation, pseudoconformal,
                   weighted_sup_norm)
from .oscillator import (ModeIndex, NormalizedMode, SpectralTable, build_table,
                         gamma_of, make_mode, project)
from .quadrature import RadialQuadrature
from .radialfd import RadialSchema, evolve_heat, evolve_schrodinger
from .specfun import PolySpec, bessel_j, j_scaled, legendre_p

__version__ = "0.1.0"

__all__ = [
    "AngularEigensystem", "AngularProblem", "KernelSpec",
    "ModeIndex", "NormalizedMode", "PolySpec", "RadialQuadrature",
    "RadialSchema", "SeparatedState", "SpectralTable", "assemble_circle",
    "bessel_j", "build_table", "circle_eigensystem", "compare_routes",
    "constant_a_spectrum", "decay_fit", "eigensolve",
    "evolve_heat", "evolve_mode_closed_form", "evolve_schrodinger",
    "gamma_of", "heat_residual", "heat_self_similar", "j_scaled",
    "kernel_eval", "legendre_p", "make_mode", "project",
    "propagate_representation", "pseudoconformal",
    "weighted_sup_norm", "__version__",
]
