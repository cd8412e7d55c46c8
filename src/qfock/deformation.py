"""Deformation schemes: the spectrum function d(n) of a deformed boson mode.

A scheme assigns to each occupation number n the eigenvalue d(n) of the
ladder product a+ a, normalized so that d(0) = 0 and d(1) = 1.  The
undeformed oscillator has d(n) = n.  The built-in symmetric one-parameter
generalization

    d(n) = (q^n - q^-n) / (q - q^-1) = sinh(n lam) / sinh(lam),  lam = ln q

is invariant under q <-> 1/q and reduces to n as q -> 1.  It is evaluated
in the sinh form, with lam = |ln q|, which keeps full relative precision
however close q is to 1; only q = 1 itself (the undeformed scheme) returns
n directly.  Where sinh(n lam) overflows, d(n) may still be finite (for at
most one more n, when sinh(lam) > 1), so it is formed there as
e^((n-1) lam) (1 - e^(-2 n lam)) / (1 - e^(-2 lam)).
Arbitrary user-supplied laws in q and n are accepted as expression text;
they are probed at n = 0 and n = 1 during construction, through
``eval_d``, since everything downstream assumes d(0) = 0 and d(1) = 1.
Schemes of one law text share one tree.

Each scheme instance carries its own column d(0), d(1), ..., filled on
demand and shared by everything that reads the scheme, so a sweep that
resolves one scheme per q evaluates each d(n) of that column once.  A
request grows the column to its count and no further, by one ``_block``
band: for a built-in law the one-pass sinh band, its only evaluator, and
for a custom law one walk of its tree (``expressions.evaluate_band``).
A band fails only where a value fails or is not finite, so a failed band
is read again in halves down to the first n that fails, where ``eval_d``
(a built-in band of one, or ``expressions.evaluate_tree``) raises, naming
n.  A reader that wants values ahead, as the adaptive scan does, asks.
A custom scheme also keeps its law's exponential-polynomial parts at its
q (``parts``), found on the first series call; they are coefficients,
not values of d(n).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

from .expressions import (
    EvaluationError,
    ExpressionTree,
    evaluate_band,
    evaluate_tree,
    exponential_parts,
    parse_deformation,
    render,
)

__all__ = [
    "UNDEFORMED",
    "BIEDENHARN_MACFARLANE",
    "CUSTOM",
    "DeformationScheme",
    "eval_d",
]

UNDEFORMED = "undeformed"
BIEDENHARN_MACFARLANE = "biedenharn-macfarlane"
CUSTOM = "custom"
_KINDS = (UNDEFORMED, BIEDENHARN_MACFARLANE, CUSTOM)

_PROBE_TOL = 1e-12
_SINH_ARG_MAX = math.asinh(sys.float_info.max)  # 710.4758600739439


@dataclass(frozen=True)
class DeformationScheme:
    """An immutable deformation law d(n) together with its parameter q.

    Use the classmethod constructors; q must be a positive finite real for
    every kind.  Instances are safe to share between threads: the column
    behind ``d_values`` only ever grows, and index n always holds d(n).
    """

    kind: str
    q: float = 1.0
    expr: ExpressionTree | None = None
    source: str | None = None
    _column: list[float] = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown deformation kind {self.kind!r}")
        q = self._checked_q(self.q)
        object.__setattr__(self, "q", q)
        if self.kind == CUSTOM:
            if self.expr is None:
                raise ValueError("custom scheme requires a parsed expression")
            self._probe()
        elif self.expr is not None:
            raise ValueError(f"{self.kind} scheme takes no expression")
        if self.kind == UNDEFORMED and q != 1.0:
            raise ValueError(f"undeformed scheme has q = 1, got {self.q!r}")

    @staticmethod
    def _checked_q(q) -> float:
        """q as a float; ValueError unless it is finite and positive.

        The one check of q in the package: schemes, ``cli.resolve_scheme``
        (for every descriptor, ``undeformed`` included), ``qfock parse`` and
        the closed forms through ``GeometricLaw.symmetric_nbar`` all call it.
        """
        value = float(q)
        if not 0.0 < value < math.inf:
            raise ValueError(f"q must be finite and positive, got {q!r}")
        return value

    @staticmethod
    def _checked_n(n) -> int:
        """n as an int; ValueError unless it is a nonnegative integer (the
        check of ``eval_d`` and ``qfock parse``)."""
        if not 0 <= n < math.inf or n != int(n):
            raise ValueError(f"occupation number must be a nonnegative integer, got {n!r}")
        return int(n)

    def _probe(self):
        for n, want in ((0, 0.0), (1, 1.0)):
            try:
                got = eval_d(self, n)
            except EvaluationError as exc:
                raise ValueError(f"custom deformation rejected: {exc}") from exc
            if abs(got - want) > _PROBE_TOL:
                raise ValueError(
                    f"custom deformation must satisfy d({n}) = {want:g}, "
                    f"got {got!r} at q={self.q!r}"
                )

    @classmethod
    def undeformed(cls) -> "DeformationScheme":
        return cls(UNDEFORMED)

    @classmethod
    def biedenharn_macfarlane(cls, q: float) -> "DeformationScheme":
        return cls(BIEDENHARN_MACFARLANE, q)

    @classmethod
    def custom(cls, source: str, q: float) -> "DeformationScheme":
        return cls(CUSTOM, q, parse_deformation(source), source)

    @cached_property
    def lam(self) -> float:
        """lam = ln q, the parameter of the sinh form of the symmetric law."""
        return math.log(self.q)

    @cached_property
    def parts(self) -> tuple[tuple[float, int, float], ...] | None:
        """A custom law at this q as (c, k, b) parts of d(n) = sum c n^k b^n
        (``expressions.exponential_parts``), found on first use; None for a
        law outside that class and for a built-in law, which the closed-tail
        engine reads as one symmetric pair."""
        return exponential_parts(self.expr, self.q) if self.kind == CUSTOM else None

    def d_values(self, count: int) -> list[float]:
        """The column d(0), d(1), ..., grown to at least ``count`` values,
        in order, and returned itself (read-only; it may already be longer).
        The values are added as one band of ``_block`` that ends at count,
        so no d(n) at n >= count is evaluated.  A band that fails is read
        again in halves for its longest prefix that passes (about log2(band)
        reads), which is kept, and ``eval_d`` raises at the n past it; the
        next call that needs d(n) raises it again.
        """
        column = self._column
        start = n = len(column)
        if n < count:
            # Slices, not appends: another thread's longer growth is kept (the values agree).
            new = self._block(n, count)
            if not new:
                bad = count  # d(n..bad-1) fails as one band
                while bad > n + 1:
                    half = (n + bad + 1) // 2
                    if band := self._block(n, half):
                        new += band
                        n = half
                    else:
                        bad = half
                column[start:n] = new
                eval_d(self, n)  # raises: d(n) is the first value that fails
            column[start:count] = new
        return column

    def _block(self, start: int, stop: int) -> list[float]:
        """d(start..stop-1) as one band, or [] if any of them fails or is not
        finite, as ``eval_d`` then does at that n.  A custom law's band is one
        walk of its tree (``expressions.evaluate_band``).  A built-in law's is
        its only evaluator: with lam = |ln q|, sinh(m lam) / sinh(lam) while
        m lam is in sinh's range, the exponential form past it, and m itself
        at lam = 0."""
        if self.kind == CUSTOM:
            return evaluate_band(self.expr, self.q, map(float, range(start, stop))) or []
        lam = abs(self.lam)
        if lam == 0.0:
            return [float(m) for m in range(start, stop)]
        # A subnormal q has lam past sinh's range too; d(0) is still 0.
        s = math.sinh(lam) if lam <= _SINH_ARG_MAX else math.inf
        c = -math.expm1(-2.0 * lam)
        try:
            block = [
                math.sinh(m * lam) / s
                if m * lam <= _SINH_ARG_MAX
                else math.exp((m - 1) * lam) * -math.expm1(-2.0 * m * lam) / c
                for m in range(start, stop)
            ]
        except OverflowError:
            return []
        # A finite sum is the fast test; a sum that overflows is checked value by value.
        return block if math.isfinite(sum(block)) or all(map(math.isfinite, block)) else []

    @property
    def label(self) -> str:
        """Short human-readable descriptor (expression text for custom laws)."""
        if self.kind == CUSTOM:
            return self.source or render(self.expr)
        return self.kind


def eval_d(scheme: DeformationScheme, n: int) -> float:
    """Deformation value d(n) for occupation number n >= 0: a custom law's
    tree, or a built-in law's band of one value, with OverflowError naming
    n and q when that band is not finite."""
    m = DeformationScheme._checked_n(n)
    if scheme.kind == CUSTOM:
        return evaluate_tree(scheme.expr, scheme.q, float(m))
    band = scheme._block(m, m + 1)
    if not band:
        raise OverflowError(f"deformation value overflowed at n={m} (q={scheme.q!r})")
    return band[0]
