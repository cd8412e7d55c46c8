"""Squeezed-vacuum analytics on the doubled number basis.

The squeezed vacuum distributes pair number n with the geometric law
P_n = tanh^2n(xi) / cosh^2(xi), which contains no deformation parameter:
its entanglement entropy depends on xi alone.  The mean photon number
and the quadrature variances do feel the deformation.  Every closed form
lives on ``GeometricLaw``; this module is a parameter map: it builds the
law with r = tanh^2 xi, which decides whether it can be cut at the
spec's tolerance, and pairs the closed mean with the brute-force series.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .deformation import DeformationScheme
from .geometric import GeometricLaw, weighted_series

__all__ = [
    "SqueezedSpec",
    "squeezed_probabilities",
    "entanglement_entropy_closed",
    "nbar_series",
    "nbar_closed_bm",
    "squeezed_variances_closed",
]


@dataclass(frozen=True)
class SqueezedSpec:
    """Real squeezing parameter xi, scheme, and truncation tolerance.

    ``law`` is the pair-number law at r = tanh^2 xi, built on construction.
    """

    xi: float
    scheme: DeformationScheme
    tail_tol: float = 1e-12
    law: GeometricLaw = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # A bad xi is named first, then r = 1 (|xi| above about 19.06), then
        # a bad tolerance.
        law = GeometricLaw.from_xi(self.xi)
        law._check_cut("squeezing parameter xi", self.xi, "tanh^2 xi", self.tail_tol)
        object.__setattr__(self, "law", law)


def squeezed_probabilities(spec: SqueezedSpec) -> list[float]:
    """Pair-number law P_n = tanh^2n(xi) / cosh^2(xi), tail-truncated.

    Cut at the smallest N whose geometric tail tanh^(2N+2)(xi) is at most
    tail_tol, so the emitted sum is >= 1 - tail_tol, or at the
    200,000-term cap, which leaves a larger tail (``--xi 8`` reads
    ``cutoff-capped``).  The law never sees the scheme, so the output is
    identical for every deformation.
    """
    return spec.law.probabilities(spec.tail_tol)


def entanglement_entropy_closed(xi: float) -> float:
    """Entanglement entropy in bits; depends on xi only through tanh^2."""
    return GeometricLaw.from_xi(xi).entropy_bits()


def nbar_series(spec: SqueezedSpec) -> float:
    """Mean photon number sum d(n) P_n, by ``weighted_series``: to the N
    whose closed tail is at most tail_tol of the mean, for a built-in law
    and an ``expr:`` law with parts, else adaptively.  DivergenceError when
    some part diverges (max(q, 1/q) tanh^2 xi >= 1 for a built-in law) or N
    passes the 200,000-term cap; a built-in d(n) that overflows before N
    hands the series to the scan, which can raise OverflowError (q = 2,
    xi = 0.87).
    """
    law = spec.law
    return weighted_series(spec.scheme, law.r, spec.tail_tol, law.one_minus_r)


def nbar_closed_bm(q: float, xi: float) -> float:
    """Closed-form mean photon number for the symmetric scheme.

    ``GeometricLaw.symmetric_nbar`` at r = tanh^2 xi, valid for
    max(q, 1/q) r < 1 (DivergenceError otherwise); at q = 1 it is the
    undeformed sinh^2 xi.
    """
    return GeometricLaw.from_xi(xi).symmetric_nbar(q)


def squeezed_variances_closed(q: float, xi: float) -> tuple[float, float, float]:
    """Closed-form quadrature variances for the symmetric scheme.

    Uses the closed-form mean; at q = 1 the values reduce to
    var1 = e^(2 xi)/4, var2 = e^(-2 xi)/4 and the minimum-uncertainty
    product 1/16.
    """
    law = GeometricLaw.from_xi(xi)
    return law.variances(law.symmetric_nbar(q))
