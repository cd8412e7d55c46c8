"""The geometric pair-number law shared by the squeezed and thermal vacua.

Both vacua distribute the pair number n as P_n = (1 - r) r^n for a ratio
r in [0, 1): r = tanh^2 xi for squeezing, r = e^-theta for temperature.
``GeometricLaw`` is that one object, and every closed form is written once
on it: the probabilities, the mean under the symmetric deformation, the
second moments and quadrature variances, and the entropy.  The squeezed
and thermal modules only map their physical parameter onto a law.  This
module also owns cutoff selection, the streamed d-weighted series scan
with divergence detection (no term list is kept), and ``geometric_state``,
the paired state whose moments give the thermal series mean.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

from .deformation import DeformationScheme
from .paired_state import MomentSet, PairedDiagonalState

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

    The complements 1 - r and 1 - sqrt(r), and ln r, are taken from the
    physical parameter, never from r, so they keep full relative precision
    as r -> 1.  Build one with ``from_xi`` or ``from_theta``.
    """

    r: float
    one_minus_r: float
    sqrt_r: float
    one_minus_sqrt_r: float
    ln_r: float

    @classmethod
    def from_xi(cls, xi: float) -> "GeometricLaw":
        """Squeezing: r = tanh^2 xi, 1 - r = 1/cosh^2 xi, 1 - tanh|xi| =
        2/(1 + e^(2|xi|)), ln r = -2 log1p(2/expm1(2|xi|)); ValueError for
        a non-finite xi, and OverflowError, naming xi, once e^(2|xi|)
        overflows (|xi| > 354.89)."""
        if not math.isfinite(xi):
            raise ValueError(f"squeezing parameter must be finite, got {xi!r}")
        x = abs(xi)
        try:
            t, em1 = math.tanh(x), math.expm1(2.0 * x)
            ln_r = -2.0 * math.log1p(2.0 / em1) if em1 else -math.inf  # r = 0 at xi = 0
            omsr = 2.0 / (1.0 + math.exp(2.0 * x))
            return cls(t * t, 1.0 / math.cosh(x) ** 2, t, omsr, ln_r)
        except OverflowError:
            msg = f"squeezing parameter xi={xi!r} overflows the pair-number law"
            raise OverflowError(msg + " (|xi| > 354.89)") from None

    @classmethod
    def from_theta(cls, theta: float) -> "GeometricLaw":
        """Temperature: r = e^-theta for theta = beta * omega > 0."""
        if not theta > 0.0:
            raise ValueError(f"theta must be positive, got {theta!r}")
        r, sqrt_r = math.exp(-theta), math.exp(-0.5 * theta)
        return cls(r, -math.expm1(-theta), sqrt_r, -math.expm1(-0.5 * theta), -theta)

    def probabilities(self, tail_tol: float) -> list[float]:
        """P_n for n = 0..N, cut at the smallest N with r^(N+1) <= tail_tol,
        so the emitted sum is >= 1 - tail_tol."""
        cutoff = probability_cutoff(self.r, tail_tol)
        omr, r = self.one_minus_r, self.r
        return [omr * r**n for n in range(cutoff + 1)]

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
        -log2(1 - r) - r ln(r) / ((1 - r) ln 2); 0 at r = 0."""
        if self.r == 0.0:
            return 0.0
        r, omr = self.r, self.one_minus_r
        return -math.log2(omr) - r * (self.ln_r / math.log(2.0)) / omr


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


def _weighted_terms(
    scheme: DeformationScheme,
    ratio: float,
    tol: float,
    prefactor: float,
) -> Iterator[float]:
    """Yield d(n) * prefactor * ratio^n for n = 0, 1, ... up to the last term
    the series needs; nothing at ratio 0.

    Terms are yielded until both the current term and the estimated
    geometric tail drop below tol relative to the running magnitude.  A term
    magnitude that fails to decrease over 32 consecutive steps is reported
    as divergence (this catches growth ratios >= 1 without any scheme-
    specific analysis, so custom laws are handled uniformly).  d(n) is read
    from the scheme's column, grown one value at a time, so the scan never
    evaluates a d(n) past the index it stops at.  No term is stored.

    Each term takes the first of three branches that holds:

    1. smaller than the last (so the last was > 0): the common case after
       the rising front, and the only one that can stop the scan.  A zero
       starts a run of zeros; any other term is tested against the limit
       tol * max(1, |running|), formed without builtin calls;
    2. at least the last, which was > 0: one more step of growth;
    3. anything else (the last was 0, or a NaN is involved): a NaN term
       raises DivergenceError naming n, and a zero at n >= 1 extends the
       run of zeros, which ends the scan at four.

    The stop rule is the same in every case as when all three tests ran on
    every term: the branches only order them.
    """
    if not 0.0 <= ratio < 1.0:
        raise ValueError(f"geometric ratio must lie in [0, 1), got {ratio!r}")
    if ratio == 0.0:
        return
    d = scheme.d_values(0)
    known = len(d)
    running = 0.0
    prev_mag = 0.0
    growth_run = 0
    zero_run = 0  # always 0 while prev_mag > 0
    for n in range(_MAX_TERMS):
        if n >= known:
            known = len(scheme.d_values(n + 1))
        t = d[n] * prefactor * ratio**n
        yield t
        running += t
        mag = abs(t)
        if mag < prev_mag:
            growth_run = 0
            if mag == 0.0:
                zero_run = 1
            else:
                limit = tol * (running if running > 1.0 else -running if running < -1.0 else 1.0)
                if mag < limit:
                    rho = mag / prev_mag
                    if mag * rho / (1.0 - rho) < limit:
                        return
        elif mag >= prev_mag > 0.0:
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
            if mag != mag:  # a NaN term
                raise DivergenceError(f"series term is NaN at n={n}")
            if mag != 0.0:
                zero_run = 0
            elif n >= 1:
                zero_run += 1
                if zero_run >= 4:  # law vanished or ratio^n underflowed
                    return
        prev_mag = mag
    raise DivergenceError(f"series did not settle within {_MAX_TERMS} terms")


def weighted_series(
    scheme: DeformationScheme,
    ratio: float,
    tol: float,
    prefactor: float,
) -> float:
    """Sum of d(n) * prefactor * ratio^n."""
    return math.fsum(_weighted_terms(scheme, ratio, tol, prefactor))


def weighted_cutoff(scheme: DeformationScheme, ratio: float, tol: float) -> int:
    """Index beyond which d-weighted geometric terms are negligible."""
    return max(0, sum(1 for _ in _weighted_terms(scheme, ratio, tol, 1.0 - ratio)) - 1)


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
    omr = 1.0 - ratio
    coeffs = tuple(math.sqrt(omr * ratio**n) for n in range(cutoff + 1))
    return PairedDiagonalState(coeffs, ratio ** (cutoff + 1))

