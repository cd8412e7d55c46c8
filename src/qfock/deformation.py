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
they are probed at n = 0 and n = 1 during construction, since everything
downstream assumes d(0) = 0 and d(1) = 1.  Every value of such a law,
probes included, comes from ``expressions.evaluate_tree``, which compiles
the scheme's tree on the first call and keeps its law while the tree lives;
schemes of one law text share one tree.

Each scheme instance carries its own column d(0), d(1), ..., filled on
demand and shared by everything that reads the scheme, so a sweep that
resolves one scheme per q evaluates each d(n) of that column once.  A
built-in law has one evaluator, the one-pass sinh band of ``_block``: the
column asks it for every value it adds, one or many, and ``eval_d`` asks
it for one.  A band that is not finite, and every value of a custom law,
goes to ``eval_d`` one value at a time, so every failure is raised there.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

from .expressions import (
    EvaluationError,
    ExpressionTree,
    evaluate_tree,
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
        (for every descriptor, ``undeformed`` included) and the closed forms
        through ``GeometricLaw.symmetric_nbar`` all call it.
        """
        value = float(q)
        if not 0.0 < value < math.inf:
            raise ValueError(f"q must be finite and positive, got {q!r}")
        return value

    def _probe(self):
        for n, want in ((0, 0.0), (1, 1.0)):
            try:
                got = evaluate_tree(self.expr, self.q, float(n))
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

    def d_values(self, count: int) -> list[float]:
        """The column d(0), d(1), ..., grown to at least ``count`` values,
        in order, and returned itself (read-only; it may already be longer).
        A built-in law adds its values as one band; a custom law, and a band
        that is not finite, adds each value by ``eval_d``.  If d(n) fails,
        d(0..n-1) are kept and the error propagates; the next call that
        needs d(n) raises it again.
        """
        column = self._column
        start = n = len(column)
        if n < count:
            new = [] if self.kind == CUSTOM else self._block(n, count)
            n += len(new)
            try:
                while n < count:  # cheaper than a range for the scan's one value per call
                    new.append(eval_d(self, n))
                    n += 1
            finally:
                # Another thread may have grown the column meanwhile; the
                # values agree, so the slice only ever lengthens it.
                column[start:n] = new
        return column

    def _block(self, start: int, stop: int) -> list[float]:
        """d(start..stop-1) of a built-in law, or [] if any of them is not
        finite, so that ``eval_d`` raises.  The only evaluator of a built-in
        d(n): with lam = |ln q|, sinh(m lam) / sinh(lam) while m lam is in
        sinh's range, the exponential form past it, and m itself at lam = 0."""
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
        # inf or nan makes the sum non-finite; a finite block whose sum
        # overflows only falls back to one ``eval_d`` call per value.
        return block if math.isfinite(sum(block)) else []

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
    try:
        m = int(n)
    except (OverflowError, ValueError):  # an infinite or NaN n
        m = -1  # rejected below, as a negative n is
    if m != n or m < 0:
        raise ValueError(f"occupation number must be a nonnegative integer, got {n!r}")
    if scheme.kind == CUSTOM:
        return evaluate_tree(scheme.expr, scheme.q, float(m))
    band = scheme._block(m, m + 1)
    if not band:
        raise OverflowError(f"deformation value overflowed at n={m} (q={scheme.q!r})")
    return band[0]
