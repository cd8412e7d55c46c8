"""Truncated ladder matrices over the number basis |0> .. |N_max>, and
the ladder-algebra verifier.

The ladder matrices carry sqrt(d(n+1)) on the off-diagonals, so a+ a is
diagonal with entries d(n) on the whole truncated space, while relations
involving a a+ only hold away from the cutoff.  Algebra checks are
therefore restricted to the interior block (row/column index < dim - 1),
where the truncation cannot be felt.

Every product entering a relation (a+ a, a a+, N a+, a+ N, N a, a N) is
diagonal or has a single off-diagonal band, so the verifier forms each
relation on its band from the superdiagonal of the annihilation matrix and
the values d(0..dim), in O(dim).  Each entry of such a product has exactly
one non-zero term, so the band values are the entries the dense matrix
products give, bit for bit.

Residuals are reported in a floating-point-sane normalized form: the
max-abs entry of (lhs - rhs) divided by max(1, largest magnitude among
the operand products entering the relation).  Deformation values reach
~1e19 at dim 64 for q = 2, where a bare entrywise difference is dominated
by double-precision rounding of the large entries; the normalized form
keeps one tolerance meaningful at every dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .deformation import BIEDENHARN_MACFARLANE, DeformationScheme

__all__ = [
    "TruncatedOperator",
    "AlgebraReport",
    "annihilation_matrix",
    "creation_matrix",
    "number_matrix",
    "identity_matrix",
    "verify_algebra",
]


@dataclass(frozen=True)
class TruncatedOperator:
    """A dim x dim real matrix indexed by occupation number 0..dim-1."""

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be positive, got {self.dim}")
        entries = np.asarray(self.entries, dtype=float)
        if entries.shape != (self.dim, self.dim):
            raise ValueError(
                f"entries have shape {entries.shape}, expected {(self.dim, self.dim)}"
            )
        if not np.all(np.isfinite(entries)):
            raise ValueError("entries must all be finite")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)


def _ladder_values(scheme: DeformationScheme, dim: int) -> np.ndarray:
    """sqrt(d(n)) for n = 1..dim-1, from the scheme's column, grown in one
    call.  If some d(n) fails, the values before it are sign-checked
    first, so a negative d(n) is reported before any later d fails."""
    try:
        column, failed = scheme.d_values(dim), False
    except ArithmeticError:
        column, failed = scheme.d_values(0), True
    values = np.array(column[1:dim])
    negative = np.flatnonzero(values < 0.0)
    if negative.size:
        n = int(negative[0]) + 1
        raise ValueError(
            f"deformation value d({n}) = {column[n]!r} is negative; "
            "ladder entries need d >= 0"
        )
    if failed:
        scheme.d_values(dim)  # raises the evaluation error again
    return np.sqrt(values)


def annihilation_matrix(scheme: DeformationScheme, dim: int) -> TruncatedOperator:
    """Annihilation: sqrt(d(n+1)) on the superdiagonal, n = 0..dim-2."""
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    return TruncatedOperator(dim, np.diag(_ladder_values(scheme, dim), 1))


def creation_matrix(scheme: DeformationScheme, dim: int) -> TruncatedOperator:
    """Creation: transpose of the annihilation matrix."""
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    return TruncatedOperator(dim, np.diag(_ladder_values(scheme, dim), -1))


def number_matrix(dim: int) -> TruncatedOperator:
    """Number operator: diag(0, 1, ..., dim-1)."""
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    return TruncatedOperator(dim, np.diag(np.arange(dim, dtype=float)))


def identity_matrix(dim: int) -> TruncatedOperator:
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    return TruncatedOperator(dim, np.eye(dim))


@dataclass(frozen=True)
class AlgebraReport:
    """Normalized max-abs residuals of the ladder algebra on the interior.

    ``residuals`` maps each relation name to its normalized residual over
    rows/columns with index < dim - 1:

    - ``ladder_product``: a+ a = diag d(n)
    - ``shifted_ladder_product``: a a+ = diag d(n+1)
    - ``ladder_commutator``: [a, a+] = diag d(n+1) - d(n)
    - ``number_raises``: [N, a+] = a+
    - ``number_lowers``: [N, a] = -a
    - ``q_commutation``: a a+ - q a+ a = diag q^-n, present only for the
      symmetric built-in scheme.
    """

    dim: int
    tol: float
    residuals: dict[str, float]

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())

    @property
    def passed(self) -> bool:
        return all(r < self.tol for r in self.residuals.values())


def _residual(band: np.ndarray, *operands: np.ndarray) -> float:
    """max|band| / max(1, max|operand|); an empty band has residual 0."""
    scale = max([1.0] + [float(np.abs(op).max()) for op in operands])
    return float(np.abs(band).max(initial=0.0) / scale)


def verify_algebra(scheme: DeformationScheme, dim: int, tol: float) -> AlgebraReport:
    """Machine-check the deformed ladder relations at a finite cutoff.

    Report-only: residuals are recorded against ``tol`` but nothing is
    raised.  All relations are evaluated on the interior block only, since
    the cut superdiagonal makes a a+ wrong in the last row/column.  The
    relation names are listed on ``AlgebraReport``.

    The residuals are computed on the bands of the products, in O(dim),
    from the superdiagonal s of the matrix ``annihilation_matrix`` returns,
    and equal those of the dense dim x dim products bit for bit.
    """
    if dim < 2:
        raise ValueError(f"need dim >= 2 to form an interior block, got {dim}")
    s = annihilation_matrix(scheme, dim).entries.diagonal(1)
    d = np.array(scheme.d_values(dim + 1)[: dim + 1])
    d_n, d_n1 = d[:-1], d[1:]

    # Diagonals of a+ a and a a+, and the bands N a+ = a N = (k+1) s and
    # a+ N = N a = k s, where k = 0..dim-2 indexes the superdiagonal.
    squares = s * s
    adag_a = np.concatenate(([0.0], squares))
    a_adag = np.concatenate((squares, [0.0]))
    k = np.arange(dim - 1, dtype=float)
    k_s, k1_s = k * s, (k + 1.0) * s

    # Diagonal bands keep n < dim - 1, off-diagonal bands k < dim - 2.
    residuals = {
        "ladder_product": _residual((adag_a - d_n)[:-1], adag_a, d_n),
        "shifted_ladder_product": _residual((a_adag - d_n1)[:-1], a_adag, d_n1),
        "ladder_commutator": _residual(
            ((a_adag - adag_a) - (d_n1 - d_n))[:-1], a_adag, adag_a, d_n1 - d_n
        ),
        "number_raises": _residual(((k1_s - k_s) - s)[:-1], k1_s, k_s, s),
        "number_lowers": _residual(((k_s - k1_s) + s)[:-1], k_s, k1_s, s),
    }
    if scheme.kind == BIEDENHARN_MACFARLANE:
        q_pow = scheme.q ** -np.arange(dim, dtype=float)
        q_scaled = scheme.q * adag_a
        residuals["q_commutation"] = _residual(
            (a_adag - q_scaled - q_pow)[:-1], a_adag, q_scaled, q_pow
        )
    return AlgebraReport(dim=dim, tol=tol, residuals=residuals)
