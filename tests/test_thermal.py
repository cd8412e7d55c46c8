"""Thermal-vacuum law, closed forms, and the exponent-sign oracle."""

import math
import re

import pytest

from qfock import (
    DeformationScheme,
    DivergenceError,
    GeometricLaw,
    SqueezedSpec,
    ThermalSpec,
    entanglement_entropy_closed,
    geometric_state,
    moments,
    nbar_series,
    quadrature_variances,
    shannon_entropy_bits,
    squeezed_probabilities,
    thermal_entropy_bits,
    thermal_nbar_closed_bm,
    thermal_nbar_series,
    thermal_probabilities,
    thermal_variances_closed,
)

from qfock.cli import SweepSpec
from qfock.geometric import probability_cutoff

from helpers import SERIES_ULPS, close, reference_weighted_sum, undeformed_nbar_thermal

UNDEFORMED = DeformationScheme.undeformed()
BM_TWO = DeformationScheme.biedenharn_macfarlane(2.0)

THETA_R03 = math.log(10.0 / 3.0)  # e^-theta = 0.3
NBAR_BM2_R03 = 21.0 / 34.0

Q_GRID = [0.5, 0.9, 1.1, 2.0]
THETA_GRID = [1.0, 2.0, 3.0]


def _convergent_grid():
    for q in Q_GRID:
        for theta in THETA_GRID:
            if theta > abs(math.log(q)):
                yield q, theta


def test_zero_temperature_limit_is_vacuum():
    probs = thermal_probabilities(ThermalSpec(theta=50.0, scheme=UNDEFORMED))
    assert len(probs) == 1
    assert probs[0] == pytest.approx(1.0, abs=1e-12)


def test_half_ratio_probabilities():
    spec = ThermalSpec(theta=math.log(2.0), scheme=UNDEFORMED)
    for n, p in enumerate(thermal_probabilities(spec)):
        assert p == pytest.approx(0.5 ** (n + 1), rel=1e-13)


@pytest.mark.parametrize("theta", [0.2, 1.0, 3.0])
def test_probability_sum_is_tail_bounded(theta):
    spec = ThermalSpec(theta=theta, scheme=UNDEFORMED, tail_tol=1e-12)
    assert abs(math.fsum(thermal_probabilities(spec)) - 1.0) <= 1e-12


def test_probabilities_never_see_the_scheme():
    theta = 0.9
    reference = thermal_probabilities(ThermalSpec(theta=theta, scheme=UNDEFORMED))
    for q in (0.5, 1.0, 2.0):
        scheme = DeformationScheme.biedenharn_macfarlane(q)
        assert thermal_probabilities(ThermalSpec(theta=theta, scheme=scheme)) == reference


@pytest.mark.parametrize(
    "call",
    [
        GeometricLaw.from_theta,
        lambda theta: ThermalSpec(theta=theta, scheme=UNDEFORMED),
        thermal_entropy_bits,
        lambda theta: thermal_nbar_closed_bm(2.0, theta),
        lambda theta: thermal_variances_closed(theta, 0.0),
    ],
    ids=["law", "spec", "entropy", "nbar_closed_bm", "variances_closed"],
)
@pytest.mark.parametrize("theta", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_theta_must_be_finite_and_positive(call, theta):
    # the law checks theta, so no closed form reads theta = inf as the vacuum
    message = f"theta must be a positive real, got {theta!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        call(theta)


def test_bad_theta_is_named_before_bad_tolerance():
    with pytest.raises(ValueError, match="theta must be a positive real, got inf"):
        ThermalSpec(theta=math.inf, scheme=UNDEFORMED, tail_tol=2.0)
    # each spec names a bad parameter, then a ratio that rounds to 1, then the tolerance
    with pytest.raises(ValueError, match="squeezing parameter must be finite, got nan"):
        SqueezedSpec(xi=math.nan, scheme=UNDEFORMED, tail_tol=2.0)
    message = "squeezing parameter xi=20.0 rounds the pair-number ratio tanh^2 xi to 1"
    with pytest.raises(ValueError, match=re.escape(message)):
        SqueezedSpec(xi=20.0, scheme=UNDEFORMED, tail_tol=2.0)
    message = "theta=1e-17 rounds the pair-number ratio e^-theta to 1"
    with pytest.raises(ValueError, match=re.escape(message)):
        ThermalSpec(theta=1e-17, scheme=UNDEFORMED, tail_tol=2.0)


@pytest.mark.parametrize("tail_tol", [0.0, 1.0, math.nan])
def test_tail_tolerance_outside_unit_interval_rejected(tail_tol):
    message = f"tail tolerance must lie in (0, 1), got {tail_tol!r}"
    entry_points = (
        lambda tol: ThermalSpec(theta=1.0, scheme=UNDEFORMED, tail_tol=tol),
        lambda tol: SqueezedSpec(xi=1.0, scheme=UNDEFORMED, tail_tol=tol),
        lambda tol: SweepSpec("thermal", "bm", (1.0,), (1.0,), tol),
        lambda tol: probability_cutoff(0.5, tol),
        lambda tol: geometric_state(UNDEFORMED, 0.5, tol),
    )
    for call in entry_points:
        with pytest.raises(ValueError, match=re.escape(message)):
            call(tail_tol)


@pytest.mark.parametrize("theta", [0.2, 1.0, 3.0])
def test_series_reduces_to_bose_mean(theta):
    spec = ThermalSpec(theta=theta, scheme=DeformationScheme.biedenharn_macfarlane(1.0))
    assert abs(thermal_nbar_series(spec) - undeformed_nbar_thermal(theta)) <= 1e-10


def test_series_frozen_value_bm2():
    spec = ThermalSpec(theta=THETA_R03, scheme=BM_TWO)
    assert thermal_nbar_series(spec) == pytest.approx(NBAR_BM2_R03, abs=1e-10)


@pytest.mark.parametrize(
    "scheme",
    [
        BM_TWO,
        UNDEFORMED,
        DeformationScheme.custom("n + (q - 1)*n*(n - 1)/2", 1.3),
    ],
    ids=lambda s: s.label,
)
@pytest.mark.parametrize("theta", [0.8, THETA_R03, 3.0])
def test_series_is_the_exact_mean_within_tail_tol(scheme, theta):
    # The exact mean M = (1 - r) sum d(n) r^n at 50 digits: the closed form
    # of a built-in law, the parts' polylog sum of the quadratic law.  The
    # series may drop a tail of tail_tol |M|, and round.
    mpmath = pytest.importorskip("mpmath")
    spec = ThermalSpec(theta=theta, scheme=scheme)
    r = spec.law.r
    if scheme.kind != "custom":
        exact = reference_weighted_sum(scheme, r, None, 1.0 - r)
    else:
        with mpmath.workdps(50):
            x = mpmath.mpf(r)
            exact = (1 - x) * sum(
                c * (mpmath.polylog(-k, b * x) + (k == 0)) for c, k, b in scheme.parts
            )
    bound = spec.tail_tol * abs(exact) + SERIES_ULPS * math.ulp(float(exact))
    assert abs(thermal_nbar_series(spec) - exact) <= bound


def test_series_divergence_detected():
    spec = ThermalSpec(theta=0.5, scheme=BM_TWO)  # theta < ln 2
    with pytest.raises(DivergenceError):
        thermal_nbar_series(spec)


def test_closed_frozen_value_bm2():
    # r = 3/10 at q = 2: 2/17 + 1/2 from the Bose terms at theta +- ln 2
    assert thermal_nbar_closed_bm(2.0, THETA_R03) == pytest.approx(NBAR_BM2_R03, abs=1e-12)


@pytest.mark.parametrize("q,theta", list(_convergent_grid()))
def test_closed_matches_series_on_grid(q, theta):
    scheme = DeformationScheme.biedenharn_macfarlane(q)
    spec = ThermalSpec(theta=theta, scheme=scheme)
    assert abs(thermal_nbar_closed_bm(q, theta) - thermal_nbar_series(spec)) <= 1e-10


def test_closed_continuity_toward_q1():
    theta = 1.3
    assert abs(
        thermal_nbar_closed_bm(1.0 + 1e-6, theta) - undeformed_nbar_thermal(theta)
    ) <= 1e-4


def test_closed_rejects_bad_domains():
    # q = 1 is the undeformed oscillator, not an error
    assert close(thermal_nbar_closed_bm(1.0, 2.0), 1.0 / math.expm1(2.0), 1e-15)
    with pytest.raises(DivergenceError):
        thermal_nbar_closed_bm(2.0, 0.5)  # theta <= ln 2
    with pytest.raises(ValueError):
        thermal_nbar_closed_bm(2.0, -1.0)
    # r = e^-800 is 0, where q = inf would read as nan
    for q in (math.inf, math.nan, 0.0):
        message = re.escape(f"q must be finite and positive, got {q!r}")
        with pytest.raises(ValueError, match=message):
            thermal_nbar_closed_bm(q, 800.0)


def test_variances_closed_overflow_raises():
    # <a a+> = nbar / r = 1e300 * e^700 is past the double range
    law = GeometricLaw.from_theta(700.0)
    with pytest.raises(OverflowError, match=re.escape(f"overflowed at r={law.r!r}")):
        law.variances(1e300)


def test_variances_product_overflow_names_the_ratio():
    # var1 and var2 are finite, but the product's float ** raises by itself
    law = GeometricLaw.from_theta(1.0)
    message = re.escape(f"variance formulas overflowed at r={law.r!r}")
    with pytest.raises(OverflowError, match=message):
        law.variances(1e200)


@pytest.mark.parametrize("theta", [0.5, 1.0, 3.0])
def test_variances_undeformed_forms(theta):
    nbar = undeformed_nbar_thermal(theta)
    var1, var2, product = thermal_variances_closed(theta, nbar)
    half = math.exp(0.5 * theta)
    assert var1 == pytest.approx(0.25 * (half + 1.0) / (half - 1.0), abs=1e-12)
    assert var2 == pytest.approx(0.25 * (half - 1.0) / (half + 1.0), abs=1e-12)
    assert product == pytest.approx(1.0 / 16.0, abs=1e-10)


def test_variance_product_law_is_algebraic():
    for theta in (0.3, 1.0, 2.5):
        for nbar in (0.05, 0.6, 2.0):
            var1, var2, product = thermal_variances_closed(theta, nbar)
            assert var1 * var2 == pytest.approx(product, rel=1e-12)


@pytest.mark.parametrize("q,theta", list(_convergent_grid()))
def test_variances_match_moment_route(q, theta):
    scheme = DeformationScheme.biedenharn_macfarlane(q)
    spec = ThermalSpec(theta=theta, scheme=scheme)
    nbar = thermal_nbar_series(spec)
    var1, var2, product = thermal_variances_closed(theta, nbar)
    state = geometric_state(scheme, math.exp(-theta), 1e-13)
    mvar1, mvar2 = quadrature_variances(moments(state, scheme))
    assert abs(var1 - mvar1) <= 1e-10
    assert abs(var2 - mvar2) <= 1e-10
    assert abs(product - mvar1 * mvar2) <= 1e-10


def test_variances_zero_temperature_through_moments():
    state = geometric_state(UNDEFORMED, math.exp(-50.0), 1e-13)
    var1, var2 = quadrature_variances(moments(state, UNDEFORMED))
    assert var1 == pytest.approx(0.25, abs=1e-10)
    assert var2 == pytest.approx(0.25, abs=1e-10)
    assert thermal_variances_closed(50.0, 0.0) == (0.25, 0.25, 0.0625)


def test_entropy_values():
    assert thermal_entropy_bits(math.log(2.0)) == pytest.approx(2.0, abs=1e-12)
    assert thermal_entropy_bits(50.0) == pytest.approx(0.0, abs=1e-18)


@pytest.mark.parametrize("theta", [0.2, 1.0, 3.0])
def test_entropy_matches_shannon(theta):
    spec = ThermalSpec(theta=theta, scheme=UNDEFORMED)
    series = shannon_entropy_bits(thermal_probabilities(spec))
    assert abs(thermal_entropy_bits(theta) - series) <= 1e-8


@pytest.mark.parametrize("theta", [0.4, 1.0, 2.2])
def test_squeezed_thermal_correspondence(theta):
    """tanh^2 xi = e^-theta makes the two vacua the same geometric object."""
    ratio = math.exp(-theta)
    xi = math.atanh(math.sqrt(ratio))
    for scheme in (UNDEFORMED, DeformationScheme.biedenharn_macfarlane(1.25)):
        sq = SqueezedSpec(xi=xi, scheme=scheme)
        th = ThermalSpec(theta=theta, scheme=scheme)

        p_sq = squeezed_probabilities(sq)
        p_th = thermal_probabilities(th)
        assert len(p_sq) == len(p_th)
        assert all(abs(a - b) <= 1e-12 for a, b in zip(p_sq, p_th))

        nbar_sq = nbar_series(sq)
        nbar_th = thermal_nbar_series(th)
        assert abs(nbar_sq - nbar_th) <= 1e-12

        v_sq = GeometricLaw.from_xi(xi).variances(nbar_sq)
        v_th = thermal_variances_closed(theta, nbar_th)
        assert all(abs(a - b) <= 1e-12 for a, b in zip(v_sq, v_th))

        assert abs(entanglement_entropy_closed(xi) - thermal_entropy_bits(theta)) <= 1e-12
        assert abs(
            shannon_entropy_bits(p_sq) - shannon_entropy_bits(p_th)
        ) <= 1e-12
