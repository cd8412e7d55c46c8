"""The geometric pair-number law shared by the squeezed and thermal vacua.

Both vacua distribute the pair number n as P_n = (1 - r) r^n for a ratio
r in [0, 1): r = tanh^2 xi for squeezing, r = e^-theta for temperature.
``GeometricLaw`` is that one object, and every closed form is written once
on it: the probabilities, the mean under the symmetric deformation, the
quadrature variances, and the entropy.  The squeezed and thermal modules
only map their physical parameter onto a law.  This module also owns the
rule for whether a law can be cut at a tail tolerance, cutoff selection,
the d-weighted series, and ``geometric_state``, the paired state whose
moments give the thermal series mean.  One closed-tail engine gives the
verdict and the cutoff of a built-in law, one symmetric pair of
geometric parts, and of an ``expr:`` law with the exponential-polynomial
parts ``DeformationScheme.parts`` finds.  A streamed scan is the fallback:
for an ``expr:`` law without parts, and for a built-in law whose d(n)
overflows before its closed cutoff.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain, repeat
from operator import mul
from typing import Callable, Iterable, Iterator, NamedTuple

from .deformation import CUSTOM, DeformationScheme
from .paired_state import PairedDiagonalState

__all__ = [
    "DivergenceError",
    "GeometricLaw",
    "weighted_series",
    "geometric_state",
]

_GROWTH_PATIENCE = 32
_AHEAD = 64  # d(n) values the adaptive scan reads past its index
_MAX_TERMS = 200_000
# Largest sum_j |c_j| Li_{-k_j}(x_j) over |S| at which an expr: law's
# parts are summed: past it they cancel, and the law takes the scan.
_CANCELLATION = 1e6


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
        so the emitted sum is >= 1 - tail_tol, unless that N is past the
        200,000-term cap: N is then the cap and the tail r^(N+1) is larger."""
        cutoff = probability_cutoff(self.r, tail_tol)
        omr, r = self.one_minus_r, self.r
        return [omr * r**n for n in range(cutoff + 1)]

    def symmetric_nbar(self, q: float) -> float:
        """Mean of d(n) = (q^n - q^-n)/(q - 1/q) (d(n) = n at q = 1) under the law.

            nbar = r (1 - r) / ((1 - r - (q - 1) r) (1 - r + (q - 1) r / q))

        The factors are 1 - q r and 1 - r/q written without cancellation
        as q -> 1, so the form holds at q = 1 too.  DivergenceError where
        the series' verdict, ``_pair_ratio``, says divergent, and where a
        factor rounds to 0 or below though it says convergent (far past the
        term cap).  q is checked as every scheme's q is.
        """
        q = DeformationScheme._checked_q(q)
        r, omr = self.r, self.one_minus_r
        x = _pair_ratio(q, r)
        dq = q - 1.0
        lower = omr - dq * r
        upper = omr + dq * r / q
        if lower <= 0.0 or upper <= 0.0:
            raise DivergenceError(f"closed form lost to rounding at max(q, 1/q) * r = {x!r}")
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
        try:
            product = (0.25 * a_adag * self.one_minus_r) ** 2
        except OverflowError:  # a float ** raises where * would read inf
            product = math.inf
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
    tail_tol, which is how a caller tells a capped cutoff.

    N starts at the log estimate and walks by single steps to the minimal
    one.  An estimate at or past the cap whose tail at the cap still
    exceeds tail_tol is the cap at once: near a subnormal tail_tol, r^n
    keeps one value for millions of n, and the walk would step through them.
    """
    if not 0.0 <= ratio < 1.0:
        raise ValueError(f"geometric ratio must lie in [0, 1), got {ratio!r}")
    GeometricLaw._check_tail_tol(tail_tol)
    if ratio == 0.0 or ratio <= tail_tol:
        return 0
    n = max(0, math.ceil(math.log(tail_tol) / math.log(ratio)) - 1)
    if n >= _MAX_TERMS and ratio ** (_MAX_TERMS + 1) > tail_tol:
        return _MAX_TERMS
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

    The scan stops once both the current term and the estimated geometric
    tail drop below tol relative to the running magnitude, or at the fourth
    zero term in a row at n >= 1.  It raises DivergenceError for a NaN
    term, naming n, and for a term magnitude that fails to decrease over 32
    consecutive steps (growth ratios >= 1 caught without any scheme-
    specific analysis).  At the column's end it reads d(n) alone, which
    raises if it fails, then _AHEAD values ahead, whose failure waits for
    the scan to reach it: no value past the stop raises.  No term is stored.
    """
    if ratio == 0.0:
        return
    d = scheme.d_values(0)
    known = len(d)
    running = prev_mag = 0.0
    growth_run = zero_run = 0
    for n in range(_MAX_TERMS):
        if n >= known:
            scheme.d_values(n + 1)  # d(n) itself: raises where it fails
            try:
                scheme.d_values(n + _AHEAD)
            except ArithmeticError:
                pass  # a value past n fails: raised when the scan reaches it
            known = len(d)
        t = d[n] * prefactor * ratio**n
        yield t
        running += t
        mag = abs(t)
        if mag != mag:
            raise DivergenceError(f"series term is NaN at n={n}")
        if mag >= prev_mag > 0.0:
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
                    return
        else:
            zero_run = 0
            limit = tol * abs(running)
            if mag < prev_mag and mag < limit:
                rho = mag / prev_mag
                if mag * rho / (1.0 - rho) < limit:
                    return
        prev_mag = mag
    raise DivergenceError(f"series did not settle within {_MAX_TERMS} terms")


def _pair_ratio(q: float, ratio: float) -> float:
    """x = max(q, 1/q) ratio, the larger of the symmetric pair's ratios, or
    DivergenceError when x >= 1: the one verdict on a built-in law."""
    x = (q if q >= 1.0 else 1.0 / q) * ratio
    if x >= 1.0:
        raise DivergenceError(f"series diverges: max(q, 1/q) * r = {x!r} >= 1", ratio=x)
    return x


def _closed_tail(scheme: DeformationScheme, ratio: float, tol: float):
    """(N + 1, found) for a law with a closed tail, ``found`` being an
    ``expr:`` law's parts as (c, k, x, |c| x, weights of P), x = b ratio,
    and None for a built-in law; None for an ``expr:`` law that the scan
    takes: one without parts, or whose parts cancel beyond _CANCELLATION.

    A built-in law is one symmetric pair, d(n) = sinh(n lam) / sinh(lam),
    lam = |ln q|, with x, y = e^(+-lam) ratio; an ``expr:`` law is its parts
    c n^k b^n, x = b ratio.  The verdict: divergent iff some part has
    x >= 1.  N is the smallest index whose float product x*^N F(N), x* the
    largest x, is at most tol: a bound on the tail past N over the sum |S|.
    For the pair it is that ratio, F(N) = (expm1(-2 (N + 1) lam) -
    y expm1(-2 N lam)) / expm1(-2 lam) (N + 1 - y N at lam = 0), free of
    cancellation as q -> 1.  ValueError for a ratio outside [0, 1) or a tol
    outside (0, 1); DivergenceError for the verdict or an N past the cap.
    """
    if not 0.0 <= ratio < 1.0:
        raise ValueError(f"geometric ratio must lie in [0, 1), got {ratio!r}")
    GeometricLaw._check_tail_tol(tol)
    if scheme.kind != CUSTOM:
        q, lam = scheme.q, abs(scheme.lam)
        found, peak = None, _pair_ratio(q, ratio)
        y, unit = ratio / (q if q >= 1.0 else 1.0 / q), math.expm1(-2.0 * lam)

        def bound(n: int) -> tuple[float, float]:
            if lam == 0.0:
                return (n + 1 - y * n,) * 2
            f = (math.expm1(-2.0 * (n + 1) * lam) - y * math.expm1(-2.0 * n * lam)) / unit
            return f, f

    else:
        parts = scheme.parts
        if parts is None:
            return None
        # S is summed exactly from c_j Li_{-k_j}(x_j) and the n = 0 terms c_j
        # of the parts with k_j = 0.  G_i = sum_{n>=0} n^i x^n: G_0 = 1/(1 - x)
        # and G_i = x/(1 - x) sum_{j<i} C(i, j) G_j, which is Li_{-i}(x) for
        # i >= 1.  A part's tail past N is x^(N+1) P(N + 1), P(m) =
        # sum_i C(k, i) G_i m^(k-i), its weights highest power first, so
        # F(N) |S| = sum_j |c_j| x_j (x_j / x*)^N P_j(N + 1).
        found, pieces, spread, peak = [], [], 0.0, 0.0
        for c, k, b in parts:
            x = b * ratio
            if x >= 1.0:
                msg = f"series diverges: the part {c!r} n^{k} b^n has b * r = {x!r} >= 1"
                raise DivergenceError(msg, ratio=x)
            u = 1.0 / (1.0 - x)
            if k == 0:
                li, ws = x * u, [u]
                pieces += (c * li, c)
            else:
                sums = [u]
                for i in range(1, k + 1):
                    sums.append(x * u * sum([math.comb(i, j) * sums[j] for j in range(i)]))
                li, ws = sums[k], [math.comb(k, i) * g for i, g in enumerate(sums)]
                pieces.append(c * li)
            spread += abs(c) * li
            found.append((c, k, x, abs(c) * x, ws))
            peak = max(peak, x)
        if peak > 0.0:
            try:
                total = abs(math.fsum(pieces))
            except (OverflowError, ValueError):  # partial sums overflowed, or inf - inf
                total = math.inf
            if not 0.0 < total < math.inf or not spread <= _CANCELLATION * total:
                return None

        def bound(n: int) -> tuple[float, float]:
            m, top, rest = n + 1, 0.0, 0.0
            for _, _, x, a, ws in found:
                p = 0.0
                for w in ws:
                    p = p * m + w
                if x == peak:
                    top += a * p
                else:
                    rest += a * (x / peak) ** n * p
            return top / total, (top + rest) / total

    if peak == 0.0:  # only the n = 0 term is not 0
        return 1, found
    ln_tol, ln_x, cap = math.log(tol), math.log(peak), _MAX_TERMS - 1

    def over(n: int) -> bool:  # the float product of all parts is above tol
        return not peak**n * bound(n)[1] <= tol

    # bound(n) is (F of the parts at x*, F of all parts).  The first does not
    # fall with n, so the fixed point of its log climbs to its own smallest
    # index, or stops where all parts meet tol.  Doubling steps and a
    # bisection find N above it where the rest still weigh; the walk down
    # undoes a fixed point that rounding carried past N.
    n, last = 0, -1
    while last < n:
        top, every = bound(n)
        if peak**n * every <= tol:
            break
        last = n
        v = (ln_tol - math.log(top)) / ln_x if top > 0.0 else n
        n = max(n, math.ceil(v)) if v < cap else cap
    else:  # the product exceeds tol at last
        step = 1
        while over(n := min(cap, last + step)):
            if n == cap:
                raise DivergenceError(f"series did not settle within {_MAX_TERMS} terms")
            last, step = n, 2 * step
        while n - last > 1:
            mid = (last + n) // 2
            last, n = (mid, n) if over(mid) else (last, mid)
    while n > 0 and not over(n - 1):
        n -= 1
    return n + 1, found


def _checked_sum(terms: Callable[[], Iterable[float]], count: int) -> float:
    """math.fsum of the terms of one series, as ``terms()`` makes them;
    DivergenceError naming n when a term (term i is index i mod count) or
    the sum is not finite, from the terms made once more."""
    try:
        total = math.fsum(terms())
    except (OverflowError, ValueError):  # partial sums overflowed, or inf - inf
        total = math.inf
    if not math.isfinite(total):
        bad = [i % count for i, term in enumerate(terms()) if not math.isfinite(term)]
        where = f"term is not finite at n={bad[0]}" if bad else f"sum overflowed by n={count - 1}"
        raise DivergenceError("series " + where)
    return total


def _part_terms(found, count: int, prefactor: float) -> Iterator[float]:
    """c prefactor n^k x^n for n < count, part after part: x^n by one product
    per step, then k products by n."""
    parts = []
    for c, k, x, *_ in found:
        part = accumulate(repeat(x, count - 1), mul, initial=c * prefactor)
        for _ in range(k):
            part = map(mul, range(count), part)
        parts.append(part)
    return chain.from_iterable(parts)


def _closed_route(scheme: DeformationScheme, ratio: float, tol: float):
    """(N + 1, terms) for a series cut at the N of ``_closed_tail``, with
    ``terms(prefactor)`` making its terms for n = 0..N, from an ``expr:``
    law's parts or from a built-in law's column, filled to d(N) only; None
    for the adaptive scan, also where one of those d(n) overflows.
    """
    closed = _closed_tail(scheme, ratio, tol)
    if closed is None:
        return None
    count, found = closed
    if found is not None:
        return count, lambda prefactor: _part_terms(found, count, prefactor)
    try:
        d = scheme.d_values(count)
    except OverflowError:
        return None

    def terms(prefactor: float) -> Iterator[float]:  # each term formed in C
        powers = map(pow, repeat(ratio), range(count))
        return map(mul, map(mul, d, repeat(prefactor, count)), powers)

    return count, terms


def weighted_series(
    scheme: DeformationScheme,
    ratio: float,
    tol: float,
    prefactor: float,
) -> float:
    """Sum of d(n) * prefactor * ratio^n: the terms of ``_closed_route`` in
    one ``math.fsum``, where a term that is not finite raises
    DivergenceError naming n, else the adaptive scan's."""
    route = _closed_route(scheme, ratio, tol)
    if route is None:
        return math.fsum(_weighted_terms(scheme, ratio, tol, prefactor))
    count, terms = route
    return _checked_sum(lambda: terms(prefactor), count)


def weighted_cutoff(scheme: DeformationScheme, ratio: float, tol: float) -> int:
    """Index beyond which d-weighted geometric terms are negligible: the N
    of ``_closed_route``, found without forming a term (a built-in law's
    column filled to d(N), as for ``weighted_series``), else the scan's
    last."""
    route = _closed_route(scheme, ratio, tol)
    if route is None:
        return max(0, sum(1 for _ in _weighted_terms(scheme, ratio, tol, 1.0 - ratio)) - 1)
    return route[0] - 1


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

