"""The geometric pair-number law shared by the squeezed and thermal vacua.

Both vacua distribute the pair number n as P_n = (1 - r) r^n for a ratio
r in [0, 1): r = tanh^2 xi for squeezing, r = e^-theta for temperature.
``GeometricLaw`` is that one object, and every closed form is written once
on it: the probabilities, the mean under the symmetric deformation, the
quadrature variances, and the entropy.  The squeezed and thermal modules
only map their physical parameter onto a law.  This module also owns the
rule for whether a law can be cut at a tail tolerance, cutoff selection,
the d-weighted series (cut where a built-in law's closed tail says, or by
a streamed scan with divergence detection for an ``expr:`` law), and
``geometric_state``, the paired state whose moments give the thermal
series mean.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import mul
from typing import Iterator, NamedTuple

from .deformation import CUSTOM, DeformationScheme
from .paired_state import PairedDiagonalState

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
        """Temperature: r = e^-theta for theta = beta * omega > 0; ValueError
        for a theta that is not finite and positive."""
        if not 0.0 < theta < math.inf:
            raise ValueError(f"theta must be a positive real, got {theta!r}")
        r, sqrt_r = math.exp(-theta), math.exp(-0.5 * theta)
        return cls(r, -math.expm1(-theta), sqrt_r, -math.expm1(-0.5 * theta), -theta)

    @staticmethod
    def _check_tail_tol(tail_tol: float) -> None:
        """ValueError unless 0 < tail_tol < 1; the one tolerance check of
        sweeps, specs and ``probability_cutoff``."""
        if not 0.0 < tail_tol < 1.0:
            raise ValueError(f"tail tolerance must lie in (0, 1), got {tail_tol!r}")

    def _check_cut(self, name: str, value: float, ratio: str, tail_tol: float) -> None:
        """ValueError unless the law can be cut at tail_tol.

        A ratio r that rounds to 1 has no cutoff; the message names the
        physical parameter as ``<name>=<value>`` and ``ratio``, the formula
        that rounded.  A tolerance outside (0, 1) is reported after it.
        """
        if self.r == 1.0:
            raise ValueError(f"{name}={value!r} rounds the pair-number ratio {ratio} to 1")
        self._check_tail_tol(tail_tol)

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
        DivergenceError is raised.  q is checked as every scheme's q is.
        """
        q = DeformationScheme._checked_q(q)
        r, omr = self.r, self.one_minus_r
        dq = q - 1.0
        lower = omr - dq * r
        upper = omr + dq * r / q
        if lower <= 0.0 or upper <= 0.0:
            raise DivergenceError(
                f"series diverges: max(q, 1/q) * r = {max(q, 1.0 / q) * r!r} >= 1"
            )
        return r * omr / (lower * upper)

    def variances(self, nbar: float) -> tuple[float, float, float]:
        """Quadrature variances and their product, given the mean nbar.

            var1 = <a a+> (1 + sqrt r)^2 / 4
            var2 = <a a+> (1 - sqrt r)^2 / 4
            product = (<a a+> (1 - r) / 4)^2

        from var = (<a+ a> + <a a+> +- 2 <a a~>) / 4 and the index-shift
        identities of the law, <a a+> = nbar / r and <a a~> = <a+ a~+> =
        nbar / sqrt(r), which hold for every scheme with d(0) = 0.  The vacuum
        returns (1/4, 1/4, 1/16) directly, where the forms would read 0 * inf.
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
    GeometricLaw._check_tail_tol(tail_tol)
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
    the series needs; nothing at ratio 0.  The sum of an ``expr:`` law, and
    of a built-in one whose d(n) overflows before its closed cutoff.

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


def _closed_cutoff(scheme: DeformationScheme, ratio: float, tol: float) -> int:
    """Smallest N whose tail sum_{n>N} d(n) ratio^n is at most tol times the
    whole sum, for a built-in law; 0 at ratio 0.

    With lam = |ln q| and x, y = e^(+-lam) ratio, the geometric sums of
    d(n) = sinh(n lam) / sinh(lam) make that tail over the sum x^N part(N),
    part(N) = (expm1(-2 (N + 1) lam) - y expm1(-2 N lam)) / expm1(-2 lam)
    (N + 1 - y N at q = 1): positive, free of cancellation as q -> 1, and
    falling with N.  N is the fixed point of its logarithm, reached from
    below, then checked by a short walk.  ValueError for tol outside
    (0, 1); DivergenceError when x >= 1 or N passes the term cap.
    """
    GeometricLaw._check_tail_tol(tol)
    if ratio == 0.0:
        return 0
    peak = max(scheme.q, 1.0 / scheme.q)
    x, y, lam = peak * ratio, ratio / peak, abs(scheme.lam)
    if x >= 1.0:
        raise DivergenceError(f"series diverges: max(q, 1/q) * r = {x!r} >= 1", ratio=x)
    unit = math.expm1(-2.0 * lam)

    def part(n: int) -> float:
        if lam == 0.0:
            return n + 1 - y * n
        return (math.expm1(-2.0 * (n + 1) * lam) - y * math.expm1(-2.0 * n * lam)) / unit

    ln_tol, ln_x, n, last = math.log(tol), math.log(x), 0, -1
    while last < n < _MAX_TERMS:
        last, n = n, max(n, math.ceil((ln_tol - math.log(part(n))) / ln_x))
    while n < _MAX_TERMS and x**n * part(n) > tol:
        n += 1
    while 0 < n < _MAX_TERMS and x ** (n - 1) * part(n - 1) <= tol:
        n -= 1
    if n >= _MAX_TERMS:
        raise DivergenceError(f"series did not settle within {_MAX_TERMS} terms")
    return n


def _closed_count(scheme: DeformationScheme, ratio: float, tol: float, extra: int) -> int | None:
    """N + 1 for a built-in law, with d(0..N + extra) in its column; None,
    for the adaptive scan, for an ``expr:`` law or a column that overflows
    first.  A ratio outside [0, 1) is a ValueError first."""
    if not 0.0 <= ratio < 1.0:
        raise ValueError(f"geometric ratio must lie in [0, 1), got {ratio!r}")
    if scheme.kind == CUSTOM:
        return None
    count = _closed_cutoff(scheme, ratio, tol) + 1
    try:
        scheme.d_values(count + extra)
    except OverflowError:
        return None
    return count


def weighted_series(
    scheme: DeformationScheme,
    ratio: float,
    tol: float,
    prefactor: float,
) -> float:
    """Sum of d(n) * prefactor * ratio^n.

    A built-in law sums n = 0..N, N from its closed tail at relative
    tolerance tol, in one ``math.fsum``; a term that is not finite raises
    DivergenceError naming n.  An ``expr:`` law, or a built-in one whose
    d(n) overflows by n = N, takes the adaptive scan.
    """
    count = _closed_count(scheme, ratio, tol, 0)
    if count is None:
        return math.fsum(_weighted_terms(scheme, ratio, tol, prefactor))
    # d[n] * prefactor * ratio**n for n < count, each term formed in C.
    powers = map(pow, repeat(ratio), range(count))
    terms = list(map(mul, map(mul, scheme.d_values(0), repeat(prefactor, count)), powers))
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError):  # partial sums overflowed, or inf - inf
        total = math.inf
    if not math.isfinite(total):
        bad = [n for n, term in enumerate(terms) if not math.isfinite(term)]
        where = f"term is not finite at n={bad[0]}" if bad else f"sum overflowed by n={count - 1}"
        raise DivergenceError("series " + where)
    return total


def weighted_cutoff(scheme: DeformationScheme, ratio: float, tol: float) -> int:
    """Index beyond which d-weighted geometric terms are negligible: for a
    built-in law the closed-form N, with d(N + 1) in the column for the
    state cut there, found without forming a term; else the scan's last."""
    count = _closed_count(scheme, ratio, tol, 1)
    if count is None:
        return max(0, sum(1 for _ in _weighted_terms(scheme, ratio, tol, 1.0 - ratio)) - 1)
    return count - 1


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

