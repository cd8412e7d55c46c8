"""The package's public surface, pinned: any growth or loss shows as a diff."""

import qfock

PUBLIC_NAMES = [
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


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 31
    assert sorted(qfock.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    assert [name for name in qfock.__all__ if not hasattr(qfock, name)] == []
