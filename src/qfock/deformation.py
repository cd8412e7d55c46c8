"""Deformation schemes: the spectrum function d(n) of a deformed boson mode.

A scheme assigns to each occupation number n the eigenvalue d(n) of the
ladder product a+ a, normalized so that d(0) = 0 and d(1) = 1.  The
undeformed oscillator has d(n) = n.  The built-in symmetric one-parameter
generalization

    d(n) = (q^n - q^-n) / (q - q^-1) = sinh(n lam) / sinh(lam),  lam = ln q

is invariant under q <-> 1/q and reduces to n as q -> 1.  It is evaluated
in the sinh form, which keeps full relative precision however close q is
to 1; only q = 1 itself (the undeformed scheme) returns n directly.
Arbitrary user-supplied laws in q and n are accepted as expression text;
they are probed at n = 0 and n = 1 during construction, since everything
downstream assumes d(0) = 0 and d(1) = 1.  Every value of such a law,
probes included, comes from ``expressions.evaluate_tree``, which compiles
the scheme's tree on the first call and keeps its law while the tree lives.

Each scheme instance carries its own column d(0), d(1), ..., filled by
``eval_d`` on demand and shared by everything that reads the scheme, so a
sweep that resolves one scheme per q evaluates each d(n) of that column
once.  ``eval_d`` is the only code that computes a value, so the column
holds exactly the bits a direct call returns.
"""

from __future__ import annotations

import math
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
        q = float(self.q)
        if not math.isfinite(q) or q <= 0.0:
            raise ValueError(f"deformation parameter q must be positive, got {self.q!r}")
        object.__setattr__(self, "q", q)
        if self.kind == CUSTOM:
            if self.expr is None:
                raise ValueError("custom scheme requires a parsed expression")
            self._probe()
        elif self.expr is not None:
            raise ValueError(f"{self.kind} scheme takes no expression")
        if self.kind == UNDEFORMED and q != 1.0:
            raise ValueError(f"undeformed scheme has q = 1, got {self.q!r}")

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
        """The column d(0), d(1), ..., grown by ``eval_d`` to at least
        ``count`` values, in order, and returned itself (read-only; it may
        already be longer).  If d(n) fails, d(0..n-1) are kept and the
        error propagates; the next call that needs d(n) raises it again.
        """
        column = self._column
        start = n = len(column)
        if n < count:
            new = []
            try:
                while n < count:  # cheaper than a range for the scan's one value per call
                    new.append(eval_d(self, n))
                    n += 1
            finally:
                # Another thread may have grown the column meanwhile; the
                # values agree, so the slice only ever lengthens it.
                column[start:n] = new
        return column

    @property
    def label(self) -> str:
        """Short human-readable descriptor (expression text for custom laws)."""
        if self.kind == CUSTOM:
            return self.source or render(self.expr)
        return self.kind


def eval_d(scheme: DeformationScheme, n: int) -> float:
    """Deformation value d(n) for occupation number n >= 0."""
    m = int(n)
    if m != n or m < 0:
        raise ValueError(f"occupation number must be a nonnegative integer, got {n!r}")
    if scheme.kind == CUSTOM:
        return evaluate_tree(scheme.expr, scheme.q, float(m))
    lam = scheme.lam
    if lam == 0.0:
        return float(m)
    try:
        value = math.sinh(m * lam) / math.sinh(lam)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise OverflowError(f"deformation value overflowed at n={m} (q={scheme.q!r})")
    return value
