"""Truncated ladder operators over the number basis |0> .. |N_max>, and
the ladder-algebra verifier.

Each operator built here (a, a+, N and 1) is zero off one band, and
``TruncatedOperator`` stores only that band.  The ladder operators carry
sqrt(d(n+1)) off the diagonal, so a+ a is diagonal with entries d(n) on the
whole truncated space, while relations involving a a+ only hold away from
the cutoff.  Algebra checks are therefore restricted to the interior block
(row/column index < dim - 1), where the truncation cannot be felt.  Every
product entering a relation has one band too, so the verifier is O(dim).

Residuals are reported in a floating-point-sane normalized form: the
max-abs entry of (lhs - rhs) divided by max(1, largest magnitude among
the operand products entering the relation).  Deformation values reach
~1e19 at dim 64 for q = 2, where a bare entrywise difference is dominated
by double-precision rounding of the large entries; the normalized form
keeps one tolerance meaningful at every dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """A dim x dim real matrix, indexed by occupation number 0..dim-1, that
    is zero off one band: ``band[k]`` sits at row k, column k + offset for
    offset >= 0, and at row k - offset, column k below the diagonal."""

    dim: int
    offset: int
    band: tuple[float, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be positive, got {self.dim}")
        band, size = tuple(self.band), self.dim - abs(self.offset)
        if len(band) != size:
            raise ValueError(
                f"band at offset {self.offset} of a {self.dim} x {self.dim} matrix "
                f"needs {size} values, got {len(band)}"
            )
        if not all(map(math.isfinite, band)):
            raise ValueError("entries must all be finite")
        object.__setattr__(self, "band", band)

    @property
    def entries(self) -> tuple[tuple[float, ...], ...]:
        """The dense matrix, as a tuple of row tuples."""
        rows = [[0.0] * self.dim for _ in range(self.dim)]
        for row, value in enumerate(self.band, max(0, -self.offset)):
            rows[row][row + self.offset] = value
        return tuple(map(tuple, rows))


def _ladder_values(scheme: DeformationScheme, dim: int) -> list[float]:
    """sqrt(d(n)) for n = 1..dim-1, from the scheme's column, grown in one
    call.  If some d(n) fails, the values before it are sign-checked
    first, so a negative d(n) is reported before any later d fails."""
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    try:
        column, error = scheme.d_values(dim), None
    except ArithmeticError as exc:
        column, error = scheme.d_values(0), exc
    values = column[1:dim]
    if min(values, default=0.0) < 0.0:
        n, value = next((n, v) for n, v in enumerate(values, 1) if v < 0.0)
        raise ValueError(
            f"deformation value d({n}) = {value!r} is negative; "
            "ladder entries need d >= 0"
        )
    if error is not None:
        raise error
    return list(map(math.sqrt, values))


def annihilation_matrix(scheme: DeformationScheme, dim: int) -> TruncatedOperator:
    """Annihilation: sqrt(d(n+1)) on the superdiagonal, n = 0..dim-2."""
    return TruncatedOperator(dim, 1, _ladder_values(scheme, dim))


def creation_matrix(scheme: DeformationScheme, dim: int) -> TruncatedOperator:
    """Creation: transpose of the annihilation matrix."""
    return TruncatedOperator(dim, -1, _ladder_values(scheme, dim))


def number_matrix(dim: int) -> TruncatedOperator:
    """Number operator: diag(0, 1, ..., dim-1)."""
    return TruncatedOperator(dim, 0, map(float, range(dim)))


def identity_matrix(dim: int) -> TruncatedOperator:
    return TruncatedOperator(dim, 0, (1.0,) * dim)


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
    def passed(self) -> bool:
        return all(r < self.tol for r in self.residuals.values())


def verify_algebra(scheme: DeformationScheme, dim: int, tol: float) -> AlgebraReport:
    """Machine-check the deformed ladder relations at a finite cutoff.

    Report-only: residuals are recorded against ``tol`` but nothing is
    raised.  All relations are evaluated on the interior block only, since
    the cut superdiagonal makes a a+ wrong in the last row/column.  The
    relation names are listed on ``AlgebraReport``.

    One pass over n forms each band entry from the band s of
    ``annihilation_matrix`` and d(0..dim), and keeps running maxima, so the
    residuals are those of the dense dim x dim products bit for bit.  As
    x -> fl(c x) is monotone for c > 0, max q a+ a = fl(q max a+ a) and
    (k + 1) s_k bounds k s_k and s_k; and as rounding commutes with sign, the
    ``number_lowers`` band is the ``number_raises`` band negated.
    """
    if dim < 2:
        raise ValueError(f"need dim >= 2 to form an interior block, got {dim}")
    s = annihilation_matrix(scheme, dim).band
    d = scheme.d_values(dim + 1)
    q = scheme.q
    bm = scheme.kind == BIEDENHARN_MACFARLANE

    # Diagonal n holds a+ a = s[n-1]^2 (0 at n = 0) and a a+ = s[n]^2, so the
    # a+ a - d band at n + 1 is the a a+ - d(n+1) band at n.  lp and nr, whose
    # bands end a step early, keep the maxima from before the last step.
    slp = lc = nr_all = qc = 0.0  # band maxima
    dd_max = k1s_max = qp_max = 0.0  # operand maxima
    adag_a = 0.0
    for n, (sn, d0, d1) in enumerate(zip(s, d, d[1:dim])):
        lp, nr = slp, nr_all
        a_adag = sn * sn
        dd = d1 - d0
        x = abs(a_adag - d1)
        if x > slp:
            slp = x
        x = abs((a_adag - adag_a) - dd)
        if x > lc:
            lc = x
        x = abs(dd)
        if x > dd_max:
            dd_max = x
        k1s = (n + 1.0) * sn  # N a+ band: ((k + 1) s[k] - k s[k]) - s[k]
        if k1s > k1s_max:
            k1s_max = k1s
        x = abs((k1s - n * sn) - sn)
        if x > nr_all:
            nr_all = x
        if bm:
            q_pow = q**-n
            x = abs((a_adag - q * adag_a) - q_pow)
            if x > qc:
                qc = x
            if q_pow > qp_max:
                qp_max = q_pow
        adag_a = a_adag

    # Operands at n = dim - 1 join here; d(1..dim-1) >= 0, as s needs.
    s_max = max(s)
    sq_max = s_max * s_max
    d_max = max(d[1:dim])
    residuals = {
        "ladder_product": max(lp, abs(d[0])) / max(1.0, sq_max, d_max, abs(d[0])),
        "shifted_ladder_product": slp / max(1.0, sq_max, d_max, abs(d[dim])),
        "ladder_commutator": lc / max(1.0, sq_max, dd_max, abs(d[dim] - d[dim - 1])),
        "number_raises": nr / max(1.0, k1s_max),
    }
    residuals["number_lowers"] = residuals["number_raises"]
    if bm:
        q_pow = q ** -(dim - 1)
        residuals["q_commutation"] = qc / max(1.0, sq_max, q * sq_max, qp_max, q_pow)
    return AlgebraReport(dim=dim, tol=tol, residuals=residuals)
