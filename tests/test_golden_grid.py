"""Sweep rows on a grid of convergent cells against 40-digit mpmath values.

The grid crosses both families with the symmetric scheme at q on both
sides of 1, including |q - 1| of a few 1e-8, and the undeformed scheme.
Each column has cells at s = max(q, 1/q) r in {0.05, 0.4, 0.8, 0.95},
where r is the law's ratio.  The reference takes r from the exact double
parameter the row was computed at and evaluates every quantity through
forms other than the library's: the mean as the two plain geometric sums
of d(n) = (q^n - q^-n)/(q - 1/q), the variances through the moments.
"""

import math

import pytest

from qfock import entanglement_entropy_closed, thermal_entropy_bits
from qfock.cli import SweepSpec, run_sweep

mpmath = pytest.importorskip("mpmath")

BM_Q = [0.5, 0.9, 1.0 - 3e-8, 1.0 + 1.01e-8, 1.0 + 1e-7, 1.1, 1.3, 2.0]
S_VALUES = [0.05, 0.4, 0.8, 0.95]
SCHEMES = [("bm", q) for q in BM_Q] + [("undeformed", 1.0)]


def _cells():
    for family in ("squeezed", "thermal"):
        for descriptor, q in SCHEMES:
            for s in S_VALUES:
                r = s / max(q, 1.0 / q)
                if family == "squeezed":
                    param = math.atanh(math.sqrt(r))
                else:
                    param = -math.log(r)
                yield pytest.param(
                    family, descriptor, q, param, id=f"{family}-{descriptor}-q{q!r}-s{s}"
                )


def _reference(family, q, param):
    """(nbar, var1, var2, product, entropy) at 40 digits."""
    with mpmath.workdps(40):
        x = mpmath.mpf(param)
        r = mpmath.tanh(x) ** 2 if family == "squeezed" else mpmath.exp(-x)
        if q == 1.0:
            nbar = r / (1 - r)
        else:
            mq = mpmath.mpf(q)
            plus = mq * r / (1 - mq * r)  # sum of (q r)^n over n >= 1
            minus = (r / mq) / (1 - r / mq)
            nbar = (1 - r) * (plus - minus) / (mq - 1 / mq)
        a_adag = nbar / r
        cross = nbar / mpmath.sqrt(r)
        symmetric = (nbar + a_adag) / 4
        var1 = symmetric + cross / 2
        var2 = symmetric - cross / 2
        entropy = -mpmath.log(1 - r, 2) - r * mpmath.log(r, 2) / (1 - r)
        return tuple(float(v) for v in (nbar, var1, var2, var1 * var2, entropy))


@pytest.mark.parametrize("family,descriptor,q,param", list(_cells()))
def test_row_matches_mpmath(family, descriptor, q, param):
    (row,) = run_sweep(SweepSpec(family, descriptor, (q,), (param,)))
    nbar, var1, var2, product, entropy = _reference(family, q, param)
    assert row.status == "convergent"
    assert abs(row.nbar_closed - nbar) <= 1e-13 * nbar
    assert abs(row.entropy_closed - entropy) <= 1e-13 * max(1.0, entropy)
    for got, want in (
        (row.nbar_series, nbar),
        (row.var1, var1),
        (row.var2, var2),
        (row.product, product),
    ):
        assert abs(got - want) <= 1e-11 * want


# From where r underflows to 0, through where tanh^2 xi rounds to 1
# (xi >= 19.0615), up to the largest xi whose law is finite (354.89).
ENTROPY_XI = [
    1e-170, 1e-100, 1e-30, 1e-8, 1e-3, 0.1, 1.0, 3.0, 7.0, -10.0, 10.0, 15.0,
    19.0, 19.0615, 19.5, 25.0, 50.0, 100.0, 200.0, 354.0,
]
ENTROPY_THETA = [1e-14, 1e-10, 1e-6, 1e-3, 0.1, 1.0, 10.0, 100.0, 700.0, 745.0]


def _reference_entropy(r):
    """-log2(1 - r) - r log2(r) / (1 - r) for an mpf r, at the working precision."""
    if r == 0:
        return 0.0
    return float(-mpmath.log(1 - r, 2) - r * mpmath.log(r, 2) / (1 - r))


@pytest.mark.parametrize("xi", ENTROPY_XI)
def test_squeezed_entropy_closed_matches_mpmath(xi):
    with mpmath.workdps(400):
        want = _reference_entropy(mpmath.tanh(mpmath.mpf(xi)) ** 2)
    got = entanglement_entropy_closed(xi)
    assert abs(got - want) <= 1e-12 * max(1.0, want), (got, want)


@pytest.mark.parametrize("theta", ENTROPY_THETA)
def test_thermal_entropy_closed_matches_mpmath(theta):
    with mpmath.workdps(400):
        want = _reference_entropy(mpmath.exp(-mpmath.mpf(theta)))
    got = thermal_entropy_bits(theta)
    assert abs(got - want) <= 1e-12 * max(1.0, want), (got, want)
