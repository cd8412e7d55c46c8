"""Truncated operator matrices and ladder-algebra checks."""

import math
import re

import numpy as np
import pytest

from qfock import (
    DeformationScheme,
    annihilation_matrix,
    creation_matrix,
    identity_matrix,
    number_matrix,
    verify_algebra,
)
from qfock.cli import main
from qfock.deformation import eval_d
from qfock.expressions import EvaluationError
from qfock.fock_matrix import TruncatedOperator

from helpers import (
    commutator,
    deformation_diagonal,
    dense,
    dense_algebra_residuals,
    projector,
    tensor_pair,
)

UNDEFORMED = DeformationScheme.undeformed()
BM_HALF = DeformationScheme.biedenharn_macfarlane(0.5)
BM_TWO = DeformationScheme.biedenharn_macfarlane(2.0)


def test_projector_entries():
    p = projector(0, 1, 3)
    expected = np.zeros((3, 3))
    expected[0, 1] = 1.0
    assert (p == expected).all()

    diag = projector(2, 2, 3)
    assert diag[2, 2] == 1.0
    assert diag.sum() == 1.0


@pytest.mark.parametrize("m,n", [(3, 0), (0, 3), (-1, 0), (0, -1)])
def test_projector_out_of_range(m, n):
    with pytest.raises(IndexError):
        projector(m, n, 3)


def test_annihilation_undeformed_dim4():
    a = annihilation_matrix(UNDEFORMED, 4)
    assert (a.offset, a.band) == (1, (1.0, math.sqrt(2.0), math.sqrt(3.0)))
    expected = np.diag([1.0, math.sqrt(2.0), math.sqrt(3.0)], 1)
    assert (dense(a) == expected).all()


def test_annihilation_bm_dim3():
    a = annihilation_matrix(BM_TWO, 3)
    expected = np.diag([1.0, math.sqrt(2.5)], 1)
    assert (dense(a) == expected).all()


def test_annihilation_vacuum_only_space():
    a = annihilation_matrix(BM_TWO, 1)
    assert a.band == ()
    assert a.entries == ((0.0,),)


@pytest.mark.parametrize("ladder", [annihilation_matrix, creation_matrix])
@pytest.mark.parametrize("dim", [0, -1])
def test_ladder_needs_a_positive_dimension(ladder, dim):
    with pytest.raises(ValueError, match=re.escape(f"dimension must be positive, got {dim}")):
        ladder(UNDEFORMED, dim)


@pytest.mark.parametrize("scheme", [UNDEFORMED, BM_HALF, BM_TWO], ids=lambda s: s.label)
@pytest.mark.parametrize("dim", [1, 2, 5, 16])
def test_creation_is_transpose(scheme, dim):
    a = annihilation_matrix(scheme, dim)
    adag = creation_matrix(scheme, dim)
    assert (adag.offset, adag.band) == (-1, a.band)
    assert (dense(adag) == dense(a).T).all()


def test_creation_bm_half_subdiagonal():
    # q <-> 1/q symmetry puts the same sqrt(2.5) below the diagonal
    adag = creation_matrix(BM_HALF, 3)
    assert adag.entries[1][0] == 1.0
    assert adag.entries[2][1] == pytest.approx(math.sqrt(2.5), abs=1e-15)


def test_number_and_identity():
    assert number_matrix(3).entries == ((0.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 2.0))
    assert identity_matrix(2).entries == ((1.0, 0.0), (0.0, 1.0))
    for op in (number_matrix(4), identity_matrix(4)):
        assert {type(v) for row in op.entries for v in row} == {float}
    num = dense(number_matrix(6))
    for n in range(6):
        e = np.zeros(6)
        e[n] = 1.0
        assert (num @ e == n * e).all()


def test_deformation_diagonal_eigenvalues():
    for scheme in (UNDEFORMED, BM_TWO):
        diag = deformation_diagonal(scheme, 8)
        for n in range(8):
            e = np.zeros(8)
            e[n] = 1.0
            assert np.abs(diag @ e - eval_d(scheme, n) * e).max() <= 1e-12


def test_ladder_product_diagonal_on_full_space():
    # a+ a = diag d(n) survives truncation everywhere, boundary included
    for scheme in (UNDEFORMED, BM_HALF, BM_TWO):
        for dim in (2, 16, 64):
            a = dense(annihilation_matrix(scheme, dim))
            adag = dense(creation_matrix(scheme, dim))
            want = deformation_diagonal(scheme, dim)
            got = adag @ a
            scale = max(1.0, np.abs(want).max())
            assert np.abs(got - want).max() / scale <= 1e-12


@pytest.mark.parametrize("scheme", [UNDEFORMED, BM_TWO], ids=lambda s: s.label)
def test_number_commutators_on_interior(scheme):
    dim = 8
    a = dense(annihilation_matrix(scheme, dim))
    adag = dense(creation_matrix(scheme, dim))
    num = dense(number_matrix(dim))
    raises = commutator(num, adag) - adag
    lowers = commutator(num, a) + a
    assert np.abs(raises[: dim - 1, : dim - 1]).max() <= 1e-12
    assert np.abs(lowers[: dim - 1, : dim - 1]).max() <= 1e-12


def test_identity_commutes_exactly():
    ident = dense(identity_matrix(5))
    a = dense(annihilation_matrix(BM_TWO, 5))
    assert (commutator(ident, a) == 0.0).all()


def test_commutator_dimension_mismatch():
    with pytest.raises(ValueError):
        commutator(dense(number_matrix(3)), dense(number_matrix(4)))


def test_verify_algebra_undeformed():
    report = verify_algebra(UNDEFORMED, 16, 1e-12)
    assert set(report.residuals) == {
        "ladder_product",
        "shifted_ladder_product",
        "ladder_commutator",
        "number_raises",
        "number_lowers",
    }
    assert report.max_residual < 1e-12
    assert report.passed


def test_verify_algebra_bm_includes_q_commutation():
    report = verify_algebra(BM_TWO, 16, 1e-10)
    assert report.residuals["q_commutation"] < 1e-10
    assert report.passed


def test_verify_algebra_bm_q1_reduces_to_plain_commutator():
    # q^-N becomes the identity, so the relation collapses to [a, a+] = 1
    report = verify_algebra(DeformationScheme.biedenharn_macfarlane(1.0), 16, 1e-12)
    assert report.residuals["q_commutation"] < 1e-12


def test_verify_algebra_is_report_only():
    report = verify_algebra(UNDEFORMED, 16, 1e-30)
    assert not report.passed  # impossible tolerance, but no exception


def test_verify_algebra_needs_interior():
    with pytest.raises(ValueError):
        verify_algebra(UNDEFORMED, 1, 1e-10)


QUADRATIC = "n + (q - 1)*n*(n - 1)/2"
BM_TEXT = "(q^n - q^(-n))/(q - q^(-1))"
REFERENCE_SCHEMES = (
    [pytest.param(UNDEFORMED, id="undeformed")]
    + [
        pytest.param(DeformationScheme.biedenharn_macfarlane(q), id=f"bm-{q!r}")
        for q in (0.5, 0.51, 0.7, 0.999, 1.0, 1.0 + 1e-9, 1.3, 1.9, 2.0)
    ]
    + [
        pytest.param(DeformationScheme.custom(QUADRATIC, q), id=f"quadratic-{q!r}")
        for q in (1.0, 1.25, 1.5, 2.0)
    ]
    + [
        pytest.param(DeformationScheme.custom("n^2", 1.0), id="square"),
        pytest.param(DeformationScheme.custom(BM_TEXT, 1.5), id="bm_text-1.5"),
    ]
)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 16, 64, 257])
@pytest.mark.parametrize("scheme", REFERENCE_SCHEMES)
def test_verify_algebra_equals_dense_products(scheme, dim):
    # the band route rounds each product entry exactly as the dense one does
    assert verify_algebra(scheme, dim, 1e-10).residuals == dense_algebra_residuals(
        scheme, dim
    )


@pytest.mark.parametrize(
    "scheme,dim,error",
    [
        pytest.param(
            DeformationScheme.custom("n*(3-n)/2", 1.0), 6, ValueError, id="negative-d4"
        ),
        pytest.param(BM_TWO, 1030, OverflowError, id="overflow-in-ladder"),
        pytest.param(BM_TWO, 1025, OverflowError, id="overflow-at-d-dim"),
    ],
)
def test_verify_algebra_raises_like_dense_products(scheme, dim, error):
    with pytest.raises(error):
        dense_algebra_residuals(scheme, dim)
    with pytest.raises(error):
        verify_algebra(scheme, dim, 1e-10)


def test_negative_deformation_value_rejected():
    # 2n - n^2 passes the probes but turns negative at n = 3
    scheme = DeformationScheme.custom("2*n - n^2", 2.0)
    ok = annihilation_matrix(scheme, 3)  # needs d(1), d(2) = 0 only
    assert ok.band[1] == 0.0
    with pytest.raises(ValueError, match=r"d\(3\)"):
        annihilation_matrix(scheme, 4)


# Both laws fail at n = 6 (ln 0); the first also turns negative at n = 4.
LADDER_ERROR_ORDER = [
    pytest.param(
        "n*(3-n)/2 + 0*ln(6 - n)",
        ValueError,
        "deformation value d(4) = -2.0 is negative; ladder entries need d >= 0",
        id="negative-before-failing",
    ),
    pytest.param(
        "n + 0*ln(6 - n)",
        EvaluationError,
        "math domain error at q=1.0, n=6.0",
        id="failing",
    ),
]


@pytest.mark.parametrize("law,error,message", LADDER_ERROR_ORDER)
def test_ladder_reports_a_negative_d_before_a_later_failure(law, error, message, capsys):
    for build in (
        lambda scheme: annihilation_matrix(scheme, 8),
        lambda scheme: verify_algebra(scheme, 8, 1e-10),
    ):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build(DeformationScheme.custom(law, 1.0))
    for argv in (["ops", "annihilation", "--dim", "8"], ["verify", "--dims", "8"]):
        assert main(argv + ["--scheme", f"expr:{law}"]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_tensor_pair_matches_kron():
    a = dense(annihilation_matrix(UNDEFORMED, 3))
    ident = dense(identity_matrix(2))
    combined = tensor_pair(a, ident)
    assert combined.shape == (6, 6)
    assert (combined == np.kron(a, ident)).all()


def test_entries_are_frozen():
    values = [1.0, 2.0]
    op = TruncatedOperator(3, 1, values)
    values[0] = 5.0  # the operator keeps its own copy
    assert op.band == (1.0, 2.0)
    with pytest.raises(TypeError):
        op.band[0] = 5.0
    with pytest.raises(TypeError):
        op.entries[0][1] = 5.0
    with pytest.raises(AttributeError):
        op.band = (5.0, 5.0)


# Each case gives the operator as (offset, band).
@pytest.mark.parametrize(
    "dim,entries,message",
    [
        (0, (0, ()), "dimension must be positive, got 0"),
        (2, (1, (1.0, 2.0)), "band at offset 1 of a 2 x 2 matrix needs 1 values, got 2"),
        (3, (0, (1.0,)), "band at offset 0 of a 3 x 3 matrix needs 3 values, got 1"),
        (2, (1, (math.inf,)), "entries must all be finite"),
        (1, (0, (math.nan,)), "entries must all be finite"),
        (2, (-3, ()), "band at offset -3 of a 2 x 2 matrix needs -1 values, got 0"),
    ],
)
def test_operator_rejects_bad_entries(dim, entries, message):
    offset, band = entries
    with pytest.raises(ValueError, match=re.escape(message)):
        TruncatedOperator(dim, offset, band)


@pytest.mark.parametrize("offset", [-2, -1, 0, 1, 2])
def test_entries_place_the_band(offset):
    op = TruncatedOperator(3, offset, [float(k + 1) for k in range(3 - abs(offset))])
    assert (dense(op) == np.diag(op.band, offset)).all()
