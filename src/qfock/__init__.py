"""Finite-cutoff numerics for deformed boson ladders and correlated pair vacua.

The package builds truncated matrix representations of a one-parameter
deformed oscillator algebra, squeezed and thermal vacua over a doubled
number basis, and the closed-form expressions for their mean occupation,
quadrature fluctuations and entanglement entropy, each paired with a
brute-force truncated-sum oracle.

The namespace holds what the command line and the acceptance criteria
read; result types, scheme kinds, ``eval_d`` and ``weighted_series`` are
imported from their own modules.
"""

from .deformation import DeformationScheme
from .expressions import (
    EvaluationError,
    ExpressionError,
    evaluate_tree,
    parse_deformation,
    render,
)
from .fock_matrix import (
    annihilation_matrix,
    creation_matrix,
    identity_matrix,
    number_matrix,
    verify_algebra,
)
from .geometric import DivergenceError, GeometricLaw, geometric_state
from .paired_state import (
    from_probabilities,
    moments,
    quadrature_variances,
    reduced_entropy_bits,
    shannon_entropy_bits,
)
from .squeezed import (
    SqueezedSpec,
    entanglement_entropy_closed,
    nbar_closed_bm,
    nbar_series,
    squeezed_probabilities,
    squeezed_variances_closed,
)
from .thermal import (
    ThermalSpec,
    thermal_entropy_bits,
    thermal_nbar_closed_bm,
    thermal_nbar_series,
    thermal_probabilities,
    thermal_variances_closed,
)

__version__ = "0.1.0"

__all__ = [
    "DeformationScheme",
    "DivergenceError",
    "EvaluationError",
    "ExpressionError",
    "GeometricLaw",
    "SqueezedSpec",
    "ThermalSpec",
    "annihilation_matrix",
    "creation_matrix",
    "entanglement_entropy_closed",
    "evaluate_tree",
    "from_probabilities",
    "geometric_state",
    "identity_matrix",
    "moments",
    "nbar_closed_bm",
    "nbar_series",
    "number_matrix",
    "parse_deformation",
    "quadrature_variances",
    "reduced_entropy_bits",
    "render",
    "shannon_entropy_bits",
    "squeezed_probabilities",
    "squeezed_variances_closed",
    "thermal_entropy_bits",
    "thermal_nbar_closed_bm",
    "thermal_nbar_series",
    "thermal_probabilities",
    "thermal_variances_closed",
    "verify_algebra",
]
