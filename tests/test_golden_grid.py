"""Sweep rows on a grid of convergent cells against 50-digit mpmath values.

The grid crosses both families with the symmetric scheme at q on both
sides of 1, including |q - 1| of a few 1e-8, and the undeformed scheme.
Each column has cells at s = max(q, 1/q) r in {0.05, 0.4, 0.8, 0.95},
where r is the law's ratio, and some columns go on to s = 0.99 and 0.999,
means of about 100 and 1000, as far as d(n) stays finite up to the
series cutoff.  The reference takes r from the exact double parameter the
row was computed at and evaluates every quantity through forms other than
the library's: the mean as the two plain geometric sums of
d(n) = (q^n - q^-n)/(q - 1/q), the variances through the moments.
"""

import math

import pytest

import qfock.geometric
from qfock import DeformationScheme, entanglement_entropy_closed, thermal_entropy_bits
from qfock.deformation import eval_d
from qfock.cli import SweepSpec, run_sweep

from helpers import reference_closed_cutoff

mpmath = pytest.importorskip("mpmath")

BM_Q = [0.5, 0.9, 1.0 - 3e-8, 1.0 + 1.01e-8, 1.0 + 1e-7, 1.1, 1.3, 2.0]
S_VALUES = [0.05, 0.4, 0.8, 0.95]
# Past the 32-photon edge of the old stop rule; at q = 0.9 and 1.1 the
# cutoff for s = 0.999 (about 3.4e4) is past where d(n) overflows.
HIGH_S = {0.9: [0.99], 1.0 - 3e-8: [0.99, 0.999], 1.0 + 1.01e-8: [0.99, 0.999], 1.1: [0.99]}
SCHEMES = [("bm", q, S_VALUES + HIGH_S.get(q, [])) for q in BM_Q]
SCHEMES.append(("undeformed", 1.0, S_VALUES + [0.99, 0.999]))

# Rows the old stop rule got wrong until the built-in laws' series stopped
# at its closed cutoff: means of 32 and more that it read as divergent, and
# means of about 2e-9 that its absolute limit cut short by a relative 4e-8.
REPRO_CELLS = (
    [("squeezed", "undeformed", 1.0, xi) for xi in (2.5, 3.0, 4.0, 5.0)]
    + [("thermal", "undeformed", 1.0, theta) for theta in (0.02, 0.005)]
    + [("thermal", "bm", 1.01, 0.02), ("thermal", "bm", 0.9999, 0.001)]
    + [("thermal", "bm", 1e-5, 20.0), ("squeezed", "bm", 1e-5, 4.5e-5)]
)


def _cells():
    for family in ("squeezed", "thermal"):
        for descriptor, q, s_values in SCHEMES:
            for s in s_values:
                r = s / max(q, 1.0 / q)
                if family == "squeezed":
                    param = math.atanh(math.sqrt(r))
                else:
                    param = -math.log(r)
                yield pytest.param(
                    family, descriptor, q, param, id=f"{family}-{descriptor}-q{q!r}-s{s}"
                )
    for family, descriptor, q, param in REPRO_CELLS:
        yield pytest.param(
            family, descriptor, q, param, id=f"repro-{family}-{descriptor}-q{q!r}-{param!r}"
        )


def _reference(family, q, param):
    """(nbar, var1, var2, product, entropy) at 50 digits."""
    with mpmath.workdps(50):
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


@pytest.mark.parametrize("q,s", [(2.0, 0.973375), (0.5, 0.973375), (3.0, 0.958125)])
def test_overflow_edge_cells_keep_their_value(q, s):
    # The closed cutoff needs a d(n) past where it overflows (n = 1025 at
    # q = 2 and 0.5, n = 647 at q = 3, by the 50-digit reference); the
    # adaptive scan these cells fall back to stops just before it, with the
    # value these rows always had.
    r = s / max(q, 1.0 / q)
    param = math.atanh(math.sqrt(r))
    scheme = DeformationScheme.biedenharn_macfarlane(q)
    with pytest.raises(OverflowError):
        eval_d(scheme, reference_closed_cutoff(scheme, r, 1e-12))
    (row,) = run_sweep(SweepSpec("squeezed", "bm", (q,), (param,)))
    nbar = _reference("squeezed", q, param)[0]
    assert row.status == "convergent"
    assert abs(row.nbar_series - nbar) <= 1e-11 * nbar


@pytest.mark.parametrize("family,param", [("squeezed", 8.0), ("thermal", 1e-7)])
def test_cells_past_the_term_cap_stay_flagged(family, param):
    # The series would need about 6e7 terms; the closed mean is still given.
    (row,) = run_sweep(SweepSpec(family, "undeformed", (1.0,), (param,)))
    assert row.status == "divergent;cutoff-capped;entropy-skipped"
    assert row.nbar_series is None and row.nbar_closed > 1e6


def test_no_built_in_sweep_runs_the_adaptive_scan(monkeypatch):
    """The closed stop decides every cell whose column reaches its cutoff,
    divergent and capped ones included, so the scan and its 32-term
    patience rule are never reached; only a d(n) overflow hands a cell to
    the scan, which then ends in the same overflow."""
    scanned = []
    scan = qfock.geometric._weighted_terms

    def spy(scheme, ratio, tol, prefactor):
        scanned.append((scheme.kind, scheme.q, ratio))
        return scan(scheme, ratio, tol, prefactor)

    monkeypatch.setattr(qfock.geometric, "_weighted_terms", spy)
    cells = [cell.values for cell in _cells()] + [
        ("thermal", "bm", 2.0, 0.5),  # divergent: 2 e^-0.5 > 1
        ("squeezed", "bm", 0.5, 2.0),
        ("thermal", "bm", 1.01, 0.001),
        ("squeezed", "undeformed", 1.0, 8.0),  # capped
        ("thermal", "undeformed", 1.0, 1e-7),
    ]
    statuses = set()
    for family, descriptor, q, param in cells:
        (row,) = run_sweep(SweepSpec(family, descriptor, (q,), (param,)))
        statuses.add(row.status.split(";")[0])
    assert statuses == {"convergent", "divergent"}
    assert scanned == []
    with pytest.raises(OverflowError, match="n=1025"):
        run_sweep(SweepSpec("thermal", "bm", (2.0,), (0.71,)))
    assert scanned == [("biedenharn-macfarlane", 2.0, math.exp(-0.71))]


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
