"""The probability cutoff is the smallest N with r^(N+1) <= tol.

``probability_cutoff`` starts from the log estimate ceil(ln tol / ln r) - 1
and corrects it by single steps.  At a boundary ratio r = tol^(1/k) the
estimate is off by one in either direction, so these cases run both
correction loops.
"""

import math

from hypothesis import given, settings, strategies as st

from qfock.geometric import probability_cutoff

TOLS = (1e-12, 1e-8, 1e-3, 0.5)
CAP = 200_000


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
    tol=st.floats(min_value=1e-300, max_value=1.0, exclude_max=True),
)
def test_cutoff_is_minimal_or_capped(r, tol):
    n = probability_cutoff(r, tol)
    if n < CAP:
        assert _is_minimal(r, tol, n), (r, tol, n)
    else:  # the minimal cutoff lies at or past the cap
        assert n == CAP and r**n > tol


def test_cutoff_is_capped():
    r = 1.0 - 1e-9  # the minimal cutoff is about 2.8e10 at tol 1e-12
    assert probability_cutoff(r, 1e-12) == CAP
