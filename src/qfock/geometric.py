"""The geometric pair-number law shared by the squeezed and thermal vacua.

Both vacua distribute the pair number n as P_n = (1 - r) r^n for a ratio
r in [0, 1): r = tanh^2 xi for squeezing, r = e^-theta for temperature.
``GeometricLaw`` is that one object, and every closed form is written once
on it: the probabilities, the mean under the symmetric deformation, the
second moments and quadrature variances, and the entropy.  The squeezed
and thermal modules only map their physical parameter onto a law.  This
module also owns cutoff selection, the adaptive d-weighted series
summation with divergence detection, and ``geometric_state``, the paired
state whose moments give the thermal series mean.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .deformation import DeformationScheme
from .paired_state import MomentSet, PairedDiagonalState, from_probabilities

__all__ = [
    "DivergenceError",
    "GeometricLaw",
    "weighted_series",
    "geometric_state",
]

_GROWTH_PATIENCE = 32
_MAX_TERMS = 200_000


class DivergenceError(ArithmeticError):
    """A d-weighted geometric series failed to converge."""

    def __init__(self, message: str, ratio: float | None = None):
        super().__init__(message)
        self.ratio = ratio


class GeometricLaw(NamedTuple):
    """The pair-number law P_n = (1 - r) r^n, 0 <= r < 1.

    The complements 1 - r and 1 - sqrt(r) are taken from the physical
    parameter, never by subtraction from r, so they keep full relative
    precision as r -> 1.  Build one with ``from_xi`` or ``from_theta``.
    """

    r: float
    one_minus_r: float
    sqrt_r: float
    one_minus_sqrt_r: float

    @classmethod
    def from_xi(cls, xi: float) -> "GeometricLaw":
        """Squeezing: r = tanh^2 xi, 1 - r = 1/cosh^2 xi,
        1 - tanh|xi| = 2/(1 + e^(2|xi|))."""
        x = abs(xi)
        t = math.tanh(x)
        return cls(t * t, 1.0 / math.cosh(x) ** 2, t, 2.0 / (1.0 + math.exp(2.0 * x)))

    @classmethod
    def from_theta(cls, theta: float) -> "GeometricLaw":
        """Temperature: r = e^-theta for theta = beta * omega > 0."""
        if not theta > 0.0:
            raise ValueError(f"theta must be positive, got {theta!r}")
        return cls(
            math.exp(-theta),
            -math.expm1(-theta),
            math.exp(-0.5 * theta),
            -math.expm1(-0.5 * theta),
        )

    def probabilities(self, tail_tol: float) -> list[float]:
        """P_n for n = 0..N, cut at the smallest N with r^(N+1) <= tail_tol,
        so the emitted sum is >= 1 - tail_tol."""
        cutoff = probability_cutoff(self.r, tail_tol)
        return [self.one_minus_r * self.r**n for n in range(cutoff + 1)]

    def symmetric_nbar(self, q: float) -> float:
        """Mean of d(n) = (q^n - q^-n)/(q - 1/q) (d(n) = n at q = 1) under the law.

            nbar = r (1 - r) / ((1 - r - (q - 1) r) (1 - r + (q - 1) r / q))

        The factors are 1 - q r and 1 - r/q written without cancellation
        as q -> 1, so the form holds at q = 1 too.  The series converges iff
        both factors are positive (max(q, 1/q) r < 1); otherwise
        DivergenceError is raised.
        """
        if not q > 0.0:
            raise ValueError(f"deformation parameter q must be positive, got {q!r}")
        r, omr = self.r, self.one_minus_r
        dq = q - 1.0
        lower = omr - dq * r
        upper = omr + dq * r / q
        if lower <= 0.0 or upper <= 0.0:
            raise DivergenceError(
                f"series diverges: max(q, 1/q) * r = {max(q, 1.0 / q) * r!r} >= 1"
            )
        return r * omr / (lower * upper)

    def moments(self, nbar: float) -> MomentSet:
        """Second moments from the mean nbar = <a+ a>.

            <a a+>  = nbar / r
            <a a~>  = <a+ a~+> = nbar / sqrt(r)

        These are the index-shift identities of the geometric law and hold
        for every scheme with d(0) = 0.  A zero mean or a zero ratio is the
        vacuum, (0, 1, 0, 0).
        """
        if nbar == 0.0 or self.r == 0.0:
            return MomentSet(0.0, 1.0, 0.0, 0.0)
        cross = nbar / self.sqrt_r
        return MomentSet(nbar, nbar / self.r, cross, cross)

    def variances(self, nbar: float) -> tuple[float, float, float]:
        """Quadrature variances and their product, given the mean nbar.

            var1 = <a a+> (1 + sqrt r)^2 / 4
            var2 = <a a+> (1 - sqrt r)^2 / 4
            product = (<a a+> (1 - r) / 4)^2

        with <a a+> = nbar / r (see ``moments``).  The vacuum returns
        (1/4, 1/4, 1/16) directly, where the forms would read 0 * inf.
        Raises OverflowError on a non-finite result.
        """
        if nbar == 0.0 or self.r == 0.0:
            return 0.25, 0.25, 0.0625
        a_adag = nbar / self.r
        var1 = 0.25 * a_adag * (1.0 + self.sqrt_r) ** 2
        var2 = 0.25 * a_adag * self.one_minus_sqrt_r**2
        product = (0.25 * a_adag * self.one_minus_r) ** 2
        if not (math.isfinite(var1) and math.isfinite(var2) and math.isfinite(product)):
            raise OverflowError(f"variance formulas overflowed at r={self.r!r}")
        return var1, var2, product

    def entropy_bits(self) -> float:
        """Shannon entropy of the law in bits,
        -log2(1 - r) - r log2(r) / (1 - r); 0 at r = 0."""
        if self.r == 0.0:
            return 0.0
        r, omr = self.r, self.one_minus_r
        return -math.log2(omr) - r * math.log2(r) / omr


def probability_cutoff(ratio: float, tail_tol: float) -> int:
    """Smallest N with geometric tail ratio^(N+1) <= tail_tol, capped at
    _MAX_TERMS (200,000); past the cap the tail ratio^(N+1) exceeds
    tail_tol, which is how a caller tells a capped cutoff."""
    if not 0.0 <= ratio < 1.0:
        raise ValueError(f"geometric ratio must lie in [0, 1), got {ratio!r}")
    if not 0.0 < tail_tol < 1.0:
        raise ValueError(f"tail tolerance must lie in (0, 1), got {tail_tol!r}")
    if ratio == 0.0 or ratio <= tail_tol:
        return 0
    n = max(0, math.ceil(math.log(tail_tol) / math.log(ratio)) - 1)
    while ratio ** (n + 1) > tail_tol:
        n += 1
    while n > 0 and ratio**n <= tail_tol:
        n -= 1
    return min(n, _MAX_TERMS)


def _weighted_scan(
    scheme: DeformationScheme,
    ratio: float,
    tol: float,
    prefactor: float,
) -> tuple[list[float], int]:
    """Adaptively scan d(n) * prefactor * ratio^n; return (terms, last index).

    Terms are accumulated until both the current term and the estimated
    geometric tail drop below tol relative to the running magnitude.  A term
    magnitude that fails to decrease over 32 consecutive steps is reported
    as divergence (this catches growth ratios >= 1 without any scheme-
    specific analysis, so custom laws are handled uniformly).  d(n) is read
    from the scheme's column, grown one value at a time, so the scan never
    evaluates a d(n) past the index it stops at.
    """
    if not 0.0 <= ratio < 1.0:
        raise ValueError(f"geometric ratio must lie in [0, 1), got {ratio!r}")
    if ratio == 0.0:
        return [], 0
    d = scheme.d_values(0)
    known = len(d)
    terms = []
    append = terms.append
    running = 0.0
    prev_mag = 0.0
    growth_run = 0
    zero_run = 0
    for n in range(_MAX_TERMS):
        if n >= known:
            known = len(scheme.d_values(n + 1))
        t = d[n] * prefactor * ratio**n
        append(t)
        running += t
        mag = abs(t)
        if prev_mag > 0.0 and mag >= prev_mag:
            growth_run += 1
            if growth_run >= _GROWTH_PATIENCE:
                rho = mag / prev_mag
                raise DivergenceError(
                    f"series terms stopped decreasing (term ratio {rho:.6g} >= 1 "
                    f"sustained over {_GROWTH_PATIENCE} terms)",
                    ratio=rho,
                )
        else:
            growth_run = 0
            if mag == 0.0:
                if n >= 1:
                    zero_run += 1
                    if zero_run >= 4:  # law vanished or ratio^n underflowed
                        return terms, n
            else:
                zero_run = 0
                # Only a decreasing term can stop the scan (so prev_mag > 0
                # and n >= 1), and only once it is below the limit is the
                # tail estimate worth forming.
                if mag < prev_mag:
                    limit = tol * max(1.0, abs(running))
                    if mag < limit:
                        rho = mag / prev_mag
                        if mag * rho / (1.0 - rho) < limit:
                            return terms, n
        prev_mag = mag
    raise DivergenceError(f"series did not settle within {_MAX_TERMS} terms")


def weighted_series(
    scheme: DeformationScheme,
    ratio: float,
    tol: float,
    prefactor: float,
) -> float:
    """Sum of d(n) * prefactor * ratio^n."""
    return math.fsum(_weighted_scan(scheme, ratio, tol, prefactor)[0])


def weighted_cutoff(scheme: DeformationScheme, ratio: float, tol: float) -> int:
    """Index beyond which d-weighted geometric terms are negligible."""
    return _weighted_scan(scheme, ratio, tol, 1.0 - ratio)[1]


def geometric_state(
    scheme: DeformationScheme, ratio: float, tail_tol: float
) -> PairedDiagonalState:
    """Paired state for P_n = (1 - ratio) ratio^n, cut for accurate moments.

    The cutoff covers both the raw probability tail and the d-weighted tail,
    so second-order moments of the returned state track the full series to
    roughly tail_tol.
    """
    cutoff = max(
        probability_cutoff(ratio, tail_tol),
        weighted_cutoff(scheme, ratio, tail_tol),
    )
    probs = [(1.0 - ratio) * ratio**n for n in range(cutoff + 1)]
    return from_probabilities(probs, ratio ** (cutoff + 1))

