"""Finite-cutoff numerics for deformed boson ladders and correlated pair vacua.

The package builds truncated matrix representations of a one-parameter
deformed oscillator algebra, squeezed and thermal vacua over a doubled
number basis, and the closed-form expressions for their mean occupation,
quadrature fluctuations and entanglement entropy, each paired with a
brute-force truncated-sum oracle.
"""

from .deformation import (
    BIEDENHARN_MACFARLANE,
    CUSTOM,
    UNDEFORMED,
    DeformationScheme,
    eval_d,
)
from .expressions import (
    EvaluationError,
    ExpressionError,
    ExpressionTree,
    evaluate_tree,
    parse_deformation,
    render,
)
from .fock_matrix import (
    AlgebraReport,
    TruncatedOperator,
    annihilation_matrix,
    creation_matrix,
    identity_matrix,
    number_matrix,
    verify_algebra,
)
from .geometric import (
    DivergenceError,
    GeometricLaw,
    geometric_state,
    weighted_series,
)
from .paired_state import (
    MomentSet,
    PairedDiagonalState,
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
    "BIEDENHARN_MACFARLANE",
    "CUSTOM",
    "UNDEFORMED",
    "AlgebraReport",
    "DeformationScheme",
    "DivergenceError",
    "EvaluationError",
    "ExpressionError",
    "ExpressionTree",
    "GeometricLaw",
    "MomentSet",
    "PairedDiagonalState",
    "SqueezedSpec",
    "ThermalSpec",
    "TruncatedOperator",
    "annihilation_matrix",
    "creation_matrix",
    "entanglement_entropy_closed",
    "eval_d",
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
    "weighted_series",
]
