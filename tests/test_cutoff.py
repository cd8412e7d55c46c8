"""The probability cutoff is the smallest N with r^(N+1) <= tol.

``probability_cutoff`` starts from the log estimate ceil(ln tol / ln r) - 1
and corrects it by single steps, unless the estimate is at or past the
term cap and the tail at the cap still exceeds tol: that cutoff is the cap
at once.  At a boundary ratio r = tol^(1/k) the estimate is off by one in
either direction, so these cases run both correction loops.  Near a
subnormal tol, where r^n keeps one value over a run of n, the estimate
can be off by many steps.  The cutoff and the d-weighted series share the term
cap and the check of their inputs.  Every law with a closed tail, a
built-in law or an ``expr:`` law with parts, stops through one engine
where that tail is at most tol of the whole sum; its edge cases, and the
built-in verdict it shares with the closed mean, end here.
"""

import math
import re

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qfock import DeformationScheme, DivergenceError, GeometricLaw, ThermalSpec, thermal_nbar_series
from qfock.deformation import eval_d
from qfock.geometric import _closed_tail, probability_cutoff, weighted_cutoff, weighted_series
from qfock.squeezed import SqueezedSpec, nbar_series

from helpers import reference_closed_cutoff, reference_closed_scan, reference_weighted_scan

TOLS = (1e-12, 1e-8, 1e-3, 0.5)
CAP = 200_000
SCHEMES = {
    "undeformed": DeformationScheme.undeformed,
    "bm-0.5": lambda: DeformationScheme.biedenharn_macfarlane(0.5),
    "bm-1.3": lambda: DeformationScheme.biedenharn_macfarlane(1.3),
    "bm-2": lambda: DeformationScheme.biedenharn_macfarlane(2.0),
    "expr": lambda: DeformationScheme.custom("n^2", 1.0),
}
BUILT_IN = ["undeformed", "bm-0.5", "bm-1.3", "bm-2"]


def _is_minimal(r, tol, n):
    return r ** (n + 1) <= tol and (n == 0 or tol < r**n)


def _log_estimate(r, tol):
    if r <= tol:
        return 0
    return max(0, math.ceil(math.log(tol) / math.log(r)) - 1)


def test_boundary_ratios_get_the_minimal_cutoff():
    too_low = too_high = 0
    for tol in TOLS:
        for k in range(1, 3001):
            r = tol ** (1.0 / k)
            if not r < 1.0:
                continue
            n = probability_cutoff(r, tol)
            assert _is_minimal(r, tol, n), (r, tol, n)
            estimate = _log_estimate(r, tol)
            too_low += n > estimate
            too_high += n < estimate
    # Both correction loops ran: the estimate was raised and lowered.
    assert too_low > 0 and too_high > 0


@settings(max_examples=300, deadline=None)
@given(
    r=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    tol=st.floats(min_value=5e-324, max_value=1.0, exclude_max=True),
)
@example(r=math.exp(-1e-7), tol=5e-324)
@example(r=math.exp(-1e-7), tol=1e-320)
@example(r=math.exp(-0.003720174), tol=5e-324)
@example(r=math.exp(-0.003720174), tol=1e-320)
@example(r=0.5, tol=5e-324)
def test_cutoff_is_minimal_or_capped(r, tol):
    n = probability_cutoff(r, tol)
    if n < CAP:
        assert _is_minimal(r, tol, n), (r, tol, n)
    else:  # the minimal cutoff lies at or past the cap
        assert n == CAP and r**n > tol


def test_cutoff_is_capped():
    r = 1.0 - 1e-9  # the minimal cutoff is about 2.8e10 at tol 1e-12
    assert probability_cutoff(r, 1e-12) == CAP
    # at a subnormal tol r^n holds one value for millions of n past the cap
    assert probability_cutoff(math.exp(-1e-7), 5e-324) == CAP


def test_estimate_past_the_cap_with_a_minimal_cutoff_below_it():
    # the log estimate is past the cap, yet r^(N+1) reaches 5e-324 at
    # N = 199,999: the tail at the cap decides, not the estimate
    r, tol = math.exp(-0.003720174), 5e-324
    assert _log_estimate(r, tol) == 200_108
    assert probability_cutoff(r, tol) == 199_999
    assert _is_minimal(r, tol, 199_999)


@pytest.mark.parametrize(
    "ratio,tol,message",
    [
        (1.0, 1e-12, "geometric ratio must lie in [0, 1), got 1.0"),
        (-0.5, 1e-12, "geometric ratio must lie in [0, 1), got -0.5"),
        (math.nan, 1e-12, "geometric ratio must lie in [0, 1), got nan"),
        (0.5, 0.0, "tail tolerance must lie in (0, 1), got 0.0"),
        (0.5, 1.0, "tail tolerance must lie in (0, 1), got 1.0"),
    ],
)
def test_cutoff_rejects_bad_ratio_or_tolerance(ratio, tol, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        probability_cutoff(ratio, tol)


@pytest.mark.parametrize("ratio", [1.0, -0.5, math.nan])
def test_scan_rejects_ratio_outside_unit_interval(ratio):
    message = re.escape(f"geometric ratio must lie in [0, 1), got {ratio!r}")
    scheme = DeformationScheme.undeformed()
    with pytest.raises(ValueError, match=message):
        weighted_series(scheme, ratio, 1e-12, 1.0)
    with pytest.raises(ValueError, match=message):
        weighted_cutoff(scheme, ratio, 1e-12)


@pytest.mark.parametrize("name", ["bm-0.5", "bm-2", "expr"])
@pytest.mark.parametrize("ratio", [1.0, 1.5, -0.5, math.nan, math.inf])
def test_ratio_is_checked_before_the_verdict(ratio, name):
    # 2 * 1.5 >= 1 would otherwise read as divergence; no d(n) is asked for.
    message = re.escape(f"geometric ratio must lie in [0, 1), got {ratio!r}")
    scheme = SCHEMES[name]()
    with pytest.raises(ValueError, match=message):
        weighted_series(scheme, ratio, 1e-12, 1.0)
    with pytest.raises(ValueError, match=message):
        weighted_cutoff(scheme, ratio, 1e-12)
    assert scheme.d_values(0) == []


def test_scan_stops_at_the_term_cap():
    # A bounded law at r = 1 - 1e-5 has not settled after CAP terms, whether
    # its parts are summed or, with a term outside their class, it is scanned.
    message = f"series did not settle within {CAP} terms"
    for law in ("2*(1 - 0.5^n)", "2*(1 - 0.5^n) + 0*ln(2 + n)"):
        scheme = DeformationScheme.custom(law, 1.0)
        with pytest.raises(DivergenceError, match=message):
            weighted_series(scheme, 1.0 - 1e-5, 1e-12, 1e-5)


@pytest.mark.parametrize("tol", [0.0, -1e-12, 1.0, math.nan])
def test_closed_stop_rejects_a_tolerance_outside_the_unit_interval(tol):
    message = re.escape(f"tail tolerance must lie in (0, 1), got {tol!r}")
    with pytest.raises(ValueError, match=message):
        weighted_series(SCHEMES["bm-2"](), 0.3, tol, 0.7)
    with pytest.raises(ValueError, match=message):
        weighted_cutoff(SCHEMES["undeformed"](), 0.3, tol)


@pytest.mark.parametrize("tol", [0.0, -1e-12, 1.0, 2.0, math.nan])
def test_scan_rejects_a_tolerance_outside_the_unit_interval(tol):
    # a law without parts takes the scan, whose stop rule reads tol as given
    scheme = DeformationScheme.custom("n + 0*ln(2 + n)", 1.0)
    message = re.escape(f"tail tolerance must lie in (0, 1), got {tol!r}")
    with pytest.raises(ValueError, match=message):
        weighted_series(scheme, 0.5, tol, 0.5)
    with pytest.raises(ValueError, match=message):
        weighted_cutoff(scheme, 0.5, tol)


@pytest.mark.parametrize("name", BUILT_IN)
def test_closed_stop_at_ratio_zero_is_an_empty_sum(name):
    for prefactor in (1.0, -0.5):
        total = weighted_series(SCHEMES[name](), 0.0, 1e-12, prefactor)
        assert math.copysign(1.0, total) == 1.0 and total == 0.0
    assert weighted_cutoff(SCHEMES[name](), 0.0, 1e-12) == 0


def test_parts_stop_at_ratio_zero_is_the_n_0_term():
    # Every part's b r is 0, so only the n = 0 term is left: 0 for d(n) = n.
    scheme = DeformationScheme.custom("n", 1.0)
    assert weighted_cutoff(scheme, 0.0, 1e-12) == 0
    assert repr(weighted_series(scheme, 0.0, 1e-12, 1.0)) == "0.0"


def test_closed_stop_ends_where_tol_times_the_sum_underflows():
    # Each sum is at most about 1e-300, so tol * |sum| underflows, to 0.0
    # at the smallest ratios; the stop is relative to the sum and ends.
    bm = DeformationScheme.biedenharn_macfarlane(2.0)
    spec = ThermalSpec(theta=745.0, scheme=bm)
    assert 0.0 < spec.law.r and 1e-12 * spec.law.r == 0.0
    assert thermal_nbar_series(spec) == spec.law.r
    assert weighted_cutoff(bm, spec.law.r, 1e-12) == 1
    squeezed = SqueezedSpec(xi=1e-170, scheme=bm)
    assert squeezed.law.r == 0.0 and nbar_series(squeezed) == 0.0
    for ratio in (spec.law.r, 1e-20, 0.3):
        for name in BUILT_IN:
            want = reference_closed_scan(SCHEMES[name](), ratio, 1e-12, 1e-300)
            got = weighted_series(SCHEMES[name](), ratio, 1e-12, 1e-300)
            assert got == want[0], (name, ratio)
            assert weighted_cutoff(SCHEMES[name](), ratio, 1e-12) == want[1]


def _bounds(q, ratio, n):
    """Bounds on sum_{m>n} d(m) ratio^m from n c^(n-1) <= d(n) <= n b^(n-1),
    b = max(q, 1/q) = 1/c, each sum_{m>n} m x^m in closed form, at 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        b, r = mpmath.mpf(max(q, 1.0 / q)), mpmath.mpf(ratio)

        def tail(base):
            x = base * r
            return x ** (n + 1) * ((n + 1) - n * x) / ((1 - x) ** 2 * base)

        return tail(1 / b), tail(b), r / ((1 - b * r) * (1 - r / b))


@pytest.mark.parametrize("q", [1.0 - 1e-8, 1.0 - 3e-9, 1.0 + 1e-9, 1.0 + 1e-8])
@pytest.mark.parametrize("ratio", [0.3, 0.9, 0.99])
def test_closed_stop_near_q_one(q, ratio):
    # The two geometric parts of the tail cancel to about 1e-8 here; the
    # bounds on d(n) are within a factor 1 + 2 N |ln q| of each other.
    tol = 1e-12
    scheme = DeformationScheme.biedenharn_macfarlane(q)
    n = weighted_cutoff(scheme, ratio, tol)
    assert n == reference_closed_cutoff(scheme, ratio, tol)
    _, upper, total = _bounds(q, ratio, n)
    lower, _, _ = _bounds(q, ratio, n - 1)
    assert upper <= tol * total * (1 + 1e-3)
    assert lower > tol * total * (1 + 1e-3)  # N - 1 falls short by a whole step
    mean = weighted_series(scheme, ratio, tol, 1.0 - ratio)
    assert abs(mean - float((1 - ratio) * total)) <= 2e-12 * mean


def _float_product(scheme, ratio):
    """x^n part(n), the float product a built-in law's stop tests, with
    x, y = max(q, 1/q)^(+-1) ratio and lam = |ln q|."""
    peak, lam = max(scheme.q, 1.0 / scheme.q), abs(scheme.lam)
    x, y, unit = peak * ratio, ratio / peak, math.expm1(-2.0 * lam)

    def product(n):
        if lam == 0.0:
            return x**n * (n + 1 - y * n)
        return x**n * (math.expm1(-2.0 * (n + 1) * lam) - y * math.expm1(-2.0 * n * lam)) / unit

    return product


def _is_minimal_in_the_float_product(product, tol, n):
    return product(n) <= tol and (n == 0 or tol < product(n - 1))


@pytest.mark.parametrize(
    "scheme,ratio,tol,cutoff",
    [
        (DeformationScheme.undeformed(), 0.39775785655519447, 1.429784251813365e-122, 311),
        (
            DeformationScheme.biedenharn_macfarlane(2.847775365276145),
            0.2547019886630948,
            2.032041861564904e-24,
            170,
        ),
    ],
    ids=["walk-up", "walk-down"],
)
def test_closed_stop_walks_to_the_minimal_float_product(scheme, ratio, tol, cutoff):
    # The log fixed point stops one below N in the first cell, where one
    # doubling step decides; in the second it reaches N, which an earlier
    # search stepped past and walked back to.  N is minimal in the float
    # product x^n part(n) that the search tests.
    assert weighted_cutoff(scheme, ratio, tol) == cutoff
    assert _is_minimal_in_the_float_product(_float_product(scheme, ratio), tol, cutoff)


def _first_overflow(scheme):
    """The first n whose d(n) overflows, or None below 2^20."""
    lo, hi = 0, 1 << 20
    try:
        eval_d(scheme, hi)
        return None
    except OverflowError:
        pass
    while hi - lo > 1:  # d(lo) is finite, d(hi) overflows
        mid = (lo + hi) // 2
        try:
            eval_d(scheme, mid)
            lo = mid
        except OverflowError:
            hi = mid
    return hi


@settings(max_examples=300, deadline=None)
@given(
    q=st.one_of(st.just(1.0), st.floats(-3.0, 3.0).map(lambda e: 10.0**e)),
    s=st.floats(0.0, 0.999, exclude_min=True),
    tol=st.one_of(
        st.sampled_from([1e-12, 1e-8, 1e-3]),
        st.floats(-100.0, -1.0).map(lambda e: 10.0**e),
    ),
)
def test_closed_stop_is_minimal_in_the_float_product(q, s, tol):
    # s = max(q, 1/q) r.  A cell whose column overflows before d(N + 1)
    # takes the scan, which stops elsewhere; those are skipped.
    scheme = DeformationScheme.undeformed() if q == 1.0 else DeformationScheme.biedenharn_macfarlane(q)
    ratio = s / max(q, 1.0 / q)
    assume(ratio > 0.0)
    product = _float_product(scheme, ratio)
    first = _first_overflow(scheme)
    assume(first is None or product(first - 2) <= tol)
    try:
        n = weighted_cutoff(scheme, ratio, tol)
    except DivergenceError as exc:  # N is past the term cap
        assert str(exc) == f"series did not settle within {CAP} terms"
        assert product(CAP - 1) > tol
        return
    assert _is_minimal_in_the_float_product(product, tol, n), n


@settings(max_examples=300, deadline=None)
@given(log_q=st.floats(-3.0, 3.0), ulps=st.integers(-4, 4))
def test_a_divergent_verdict_has_no_closed_mean(log_q, ulps):
    # r within a few ulps of 1/max(q, 1/q), where the factors 1 - q r and
    # 1 - r/q of the closed mean and the product max(q, 1/q) r round apart.
    q = 10.0**log_q
    r = 1.0 / max(q, 1.0 / q)
    for _ in range(abs(ulps)):
        r = math.nextafter(r, math.copysign(math.inf, ulps))
    assume(0.0 < r < 1.0)
    law = GeometricLaw.from_theta(-math.log(r))
    assume(law.r < 1.0)
    try:
        weighted_cutoff(DeformationScheme.biedenharn_macfarlane(q), law.r, 1e-12)
    except DivergenceError as exc:
        if str(exc).startswith("series diverges"):
            with pytest.raises(DivergenceError):
                law.symmetric_nbar(q)


@pytest.mark.parametrize("name", BUILT_IN)
def test_negative_prefactor_flips_the_sign_only(name):
    for ratio in (0.05, 0.3, 0.45):
        plus = weighted_series(SCHEMES[name](), ratio, 1e-12, 0.5)
        assert weighted_series(SCHEMES[name](), ratio, 1e-12, -0.5) == -plus < 0.0
        assert reference_closed_scan(SCHEMES[name](), ratio, 1e-12, -0.5)[0] == -plus


@pytest.mark.parametrize("name", BUILT_IN)
def test_term_that_is_not_finite_is_a_divergence_naming_n(name):
    # d(2) * 1e308 is inf for every built-in law (d(2) = q + 1/q >= 2).
    with pytest.raises(DivergenceError, match=r"^series term is not finite at n=2$"):
        weighted_series(SCHEMES[name](), 0.3, 1e-12, 1e308)


def test_finite_terms_whose_sum_overflows_are_a_divergence():
    # N = 3 at tol 0.99; the terms are finite, their sum is 2.7e308.
    scheme = DeformationScheme.undeformed()
    assert weighted_cutoff(scheme, 0.95, 0.99) == 3
    with pytest.raises(DivergenceError, match=r"^series sum overflowed by n=3$"):
        weighted_series(scheme, 0.95, 0.99, 5e307)


BM_TEXT = "(q^n - q^(-n))/(q - q^(-1))"
# expr: laws that weighted_series sums from their parts: (law, q)
PARTS_LAWS = {
    "quadratic-1.5": ("n + (q - 1)*n*(n - 1)/2", 1.5),
    "quadratic-0.7499": ("n + (q - 1)*n*(n - 1)/2", 0.7499),  # changes sign at n = 9
    "n^2": ("n^2", 1.0),
    "bm-text-1.3": (BM_TEXT, 1.3),
    "bm-text-0.6": (BM_TEXT, 0.6),
    "bounded": ("2*(1 - 0.5^n)", 1.0),
    # A part far above the one at the largest b: past the fixed point of
    # that part alone, N is found by doubling steps and a bisection.
    "heavy-1e6": ("n*(1 - 1e6) + 1e6/0.999*n*0.999^n", 1.0),
    "heavy-1e4": ("n*(1 - 1e4) + 1e4/0.99*n*0.99^n", 1.0),
}


@pytest.mark.parametrize("name", PARTS_LAWS)
def test_parts_stop_is_minimal_and_sums_the_parts(name):
    # Against the parts' own sums at 50 digits: S = sum_j c_j sum_n n^k b^n r^n,
    # and the tail bound past m, sum_j |c_j| sum_{n>m} n^k (b r)^n, summed
    # term by term.  N is the smallest m whose bound is at most tol |S|.
    mpmath = pytest.importorskip("mpmath")
    scheme = DeformationScheme.custom(*PARTS_LAWS[name])
    tol = 1e-12
    peak = max(b for _, _, b in scheme.parts)
    for s in (0.05, 0.3, 0.5, 0.7):  # max(b) r
        ratio = s / peak
        n = weighted_cutoff(scheme, ratio, tol)
        with mpmath.workdps(50):
            parts = [(mpmath.mpf(c), k, mpmath.mpf(b) * ratio) for c, k, b in scheme.parts]
            total = sum(c * (mpmath.polylog(-k, x) + (k == 0)) for c, k, x in parts)
            # every part's tail past m, for m = n - 1 and n
            tails = [
                sum(
                    abs(c) * (mpmath.polylog(-k, x) - sum(j**k * x**j for j in range(1, m + 1)))
                    for c, k, x in parts
                )
                for m in (n - 1, n)
            ]
            limit = tol * abs(total)
        assert tails[1] <= limit * (1 + 1e-9), ratio
        assert n == 0 or tails[0] > limit * (1 - 1e-9), ratio
        mean, want = weighted_series(scheme, ratio, tol, 1.0 - ratio), float((1 - ratio) * total)
        assert abs(mean - want) <= 2e-12 * abs(want), ratio


def test_parts_verdict_names_the_part_that_diverges():
    scheme = DeformationScheme.custom(BM_TEXT, 2.0)
    message = r"^series diverges: the part 0\.6666666666666666 n\^0 b\^n has b \* r = 1\.2 >= 1$"
    with pytest.raises(DivergenceError, match=message) as info:
        weighted_series(scheme, 0.6, 1e-12, 0.4)
    assert info.value.ratio == 1.2
    with pytest.raises(DivergenceError, match=message):
        weighted_cutoff(scheme, 0.6, 1e-12)
    assert scheme.d_values(0) == []  # no d(n) was asked for


def test_parts_that_cancel_take_the_scan():
    # Near q = 1 the symmetric law's two parts are +-1/(q - 1/q), about 5e8:
    # they cancel beyond 1e6 of the sum, so the scan sums the law.
    scheme = DeformationScheme.custom(BM_TEXT, 1.0 + 1e-9)
    assert scheme.parts is not None
    want = reference_weighted_scan(DeformationScheme.custom(BM_TEXT, 1.0 + 1e-9), 0.5, 1e-12, 0.5)
    assert weighted_series(scheme, 0.5, 1e-12, 0.5) == want[0]
    assert weighted_cutoff(scheme, 0.5, 1e-12) == want[1]
    # Sums of +inf and -inf: the parts' total cannot even be formed (fsum
    # raises), so the law takes the scan, which finds the terms rising.
    scheme = DeformationScheme.custom("n + 1e300*n*(n - 1)*(n - 2)*(n - 3)", 1.0)
    assert _closed_tail(scheme, 0.99, 1e-12) is None
    message = r"^series terms stopped decreasing \(term ratio 1\.12655 >= 1"
    with pytest.raises(DivergenceError, match=message):
        weighted_series(scheme, 0.99, 1e-12, 0.01)
    with pytest.raises(DivergenceError, match=message):
        weighted_cutoff(scheme, 0.99, 1e-12)
