"""The probability cutoff is the smallest N with r^(N+1) <= tol.

``probability_cutoff`` starts from the log estimate ceil(ln tol / ln r) - 1
and corrects it by single steps.  At a boundary ratio r = tol^(1/k) the
estimate is off by one in either direction, so these cases run both
correction loops.  The cutoff and the d-weighted scan share the term cap
and the check of their inputs.
"""

import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from qfock import DeformationScheme, DivergenceError
from qfock.geometric import probability_cutoff, weighted_cutoff, weighted_series

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


def test_scan_stops_at_the_term_cap():
    # A bounded law at r = 1 - 1e-5 has not settled after CAP terms.
    scheme = DeformationScheme.custom("2*(1 - 0.5^n)", 1.0)
    message = f"series did not settle within {CAP} terms"
    with pytest.raises(DivergenceError, match=message):
        weighted_series(scheme, 1.0 - 1e-5, 1e-12, 1e-5)
