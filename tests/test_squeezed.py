"""Squeezed-vacuum law, closed forms, and series cross-checks."""

import math
import re

import pytest

from qfock import (
    DeformationScheme,
    DivergenceError,
    GeometricLaw,
    SqueezedSpec,
    entanglement_entropy_closed,
    geometric_state,
    moments,
    nbar_closed_bm,
    nbar_series,
    quadrature_variances,
    shannon_entropy_bits,
    squeezed_probabilities,
    squeezed_variances_closed,
)
from helpers import close, undeformed_nbar_squeezed

UNDEFORMED = DeformationScheme.undeformed()
BM_TWO = DeformationScheme.biedenharn_macfarlane(2.0)

XI_UNIT_MEAN = math.asinh(1.0)  # sinh^2 xi = 1, tanh^2 xi = 1/2
XI_R03 = math.atanh(math.sqrt(0.3))  # tanh^2 xi = 0.3

# sum d(n) P_n for the symmetric scheme at q = 2, tanh^2 xi = 3/10 is
# exactly 21/34; the variance product is then (21/34 * 7/12)^2.
NBAR_BM2_R03 = 21.0 / 34.0
PRODUCT_BM2_R03 = (21.0 / 34.0 * 7.0 / 12.0) ** 2

Q_GRID = [0.5, 0.9, 1.1, 2.0]
RATIO_GRID = [0.1, 0.3, 0.5]


def _convergent_grid():
    for q in Q_GRID:
        for r in RATIO_GRID:
            if max(q, 1.0 / q) * r < 1.0:
                yield q, math.atanh(math.sqrt(r))


def test_vacuum_probabilities():
    spec = SqueezedSpec(xi=0.0, scheme=UNDEFORMED)
    assert squeezed_probabilities(spec) == [1.0]


def test_unit_mean_probabilities_are_halving():
    spec = SqueezedSpec(xi=XI_UNIT_MEAN, scheme=UNDEFORMED)
    probs = squeezed_probabilities(spec)
    for n, p in enumerate(probs):
        assert p == pytest.approx(0.5 ** (n + 1), rel=1e-13)


@pytest.mark.parametrize("xi", [0.1, 0.5, 1.0, 2.0])
def test_probability_sum_is_tail_bounded(xi):
    spec = SqueezedSpec(xi=xi, scheme=UNDEFORMED, tail_tol=1e-12)
    assert abs(math.fsum(squeezed_probabilities(spec)) - 1.0) <= 1e-12


def test_probabilities_never_see_the_scheme():
    xi = 1.3
    reference = squeezed_probabilities(SqueezedSpec(xi=xi, scheme=UNDEFORMED))
    for q in (0.5, 1.0, 2.0):
        scheme = DeformationScheme.biedenharn_macfarlane(q)
        assert squeezed_probabilities(SqueezedSpec(xi=xi, scheme=scheme)) == reference


def test_entropy_closed_values():
    assert entanglement_entropy_closed(0.0) == 0.0
    assert entanglement_entropy_closed(XI_UNIT_MEAN) == pytest.approx(2.0, abs=1e-12)


def test_entropy_closed_past_where_the_ratio_rounds_to_one():
    # tanh^2 19.5 rounds to 1; 1 - r = 4 e^-39 and r ln r / (1 - r) -> -1
    # to within e^-39, so h = 39 log2(e) - 2 + log2(e).
    want = 40.0 / math.log(2.0) - 2.0
    assert entanglement_entropy_closed(19.5) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("xi", [355.0, -400.0, 1e308])
def test_law_past_the_float_range_names_xi(xi):
    message = re.escape(f"squeezing parameter xi={xi!r} overflows the pair-number law")
    for build in (GeometricLaw.from_xi, entanglement_entropy_closed):
        with pytest.raises(OverflowError, match=message):
            build(xi)


@pytest.mark.parametrize("xi", [math.inf, -math.inf, math.nan])
def test_non_finite_xi_builds_no_law(xi):
    # tanh^2(inf) is 1.0, which no law may hold; the message is the spec's.
    message = re.escape(f"squeezing parameter must be finite, got {xi!r}")
    closed_forms = (
        entanglement_entropy_closed,
        lambda x: nbar_closed_bm(2.0, x),
        lambda x: squeezed_variances_closed(1.0, x),
        lambda x: SqueezedSpec(xi=x, scheme=UNDEFORMED, tail_tol=2.0),
    )
    for build in closed_forms:
        with pytest.raises(ValueError, match=message):
            build(xi)


@pytest.mark.parametrize("xi", [0.1, 0.5, 1.0, 2.0])
def test_entropy_closed_matches_shannon(xi):
    spec = SqueezedSpec(xi=xi, scheme=UNDEFORMED)
    series = shannon_entropy_bits(squeezed_probabilities(spec))
    assert abs(entanglement_entropy_closed(xi) - series) <= 1e-8


def test_entropy_strictly_increases_with_squeezing():
    values = [entanglement_entropy_closed(xi) for xi in (0.0, 0.2, 0.5, 1.0, 1.7, 2.4)]
    assert all(b > a for a, b in zip(values, values[1:]))
    # and it is even in xi
    assert entanglement_entropy_closed(-1.0) == entanglement_entropy_closed(1.0)


@pytest.mark.parametrize("scheme", [UNDEFORMED, DeformationScheme.biedenharn_macfarlane(1.0)])
@pytest.mark.parametrize("xi", [0.1, 0.7, 1.5])
def test_series_reduces_to_undeformed_mean(scheme, xi):
    spec = SqueezedSpec(xi=xi, scheme=scheme)
    assert abs(nbar_series(spec) - undeformed_nbar_squeezed(xi)) <= 1e-10


def test_series_frozen_value_bm2():
    spec = SqueezedSpec(xi=XI_R03, scheme=BM_TWO)
    assert nbar_series(spec) == pytest.approx(NBAR_BM2_R03, abs=1e-10)


def test_series_divergence_detected():
    spec = SqueezedSpec(xi=XI_R03, scheme=DeformationScheme.biedenharn_macfarlane(4.0))
    with pytest.raises(DivergenceError):
        nbar_series(spec)  # q * tanh^2 xi = 1.2


def test_closed_frozen_value_bm2():
    assert nbar_closed_bm(2.0, XI_R03) == pytest.approx(NBAR_BM2_R03, abs=1e-10)


@pytest.mark.parametrize("q,xi", list(_convergent_grid()))
def test_closed_matches_series_on_grid(q, xi):
    scheme = DeformationScheme.biedenharn_macfarlane(q)
    spec = SqueezedSpec(xi=xi, scheme=scheme)
    assert abs(nbar_closed_bm(q, xi) - nbar_series(spec)) <= 1e-10


def test_closed_is_q_inversion_symmetric():
    assert close(nbar_closed_bm(2.0, XI_R03), nbar_closed_bm(0.5, XI_R03), 1e-12)


def test_closed_continuity_toward_q1():
    xi = 0.8
    assert abs(nbar_closed_bm(1.0 + 1e-6, xi) - undeformed_nbar_squeezed(xi)) <= 1e-4


def test_closed_rejects_q_one_and_divergent_domain():
    # q = 1 is the undeformed oscillator, not an error
    assert close(nbar_closed_bm(1.0, 0.5), math.sinh(0.5) ** 2, 1e-15)
    with pytest.raises(DivergenceError):
        nbar_closed_bm(4.0, XI_R03)
    with pytest.raises(ValueError):
        nbar_closed_bm(-2.0, 0.5)
    # q = inf would read as the vacuum at xi = 0, and nan as nan
    for q in (math.inf, math.nan, 0.0):
        message = re.escape(f"q must be finite and positive, got {q!r}")
        for closed_form in (nbar_closed_bm, squeezed_variances_closed):
            with pytest.raises(ValueError, match=message):
                closed_form(q, 0.0)
        with pytest.raises(ValueError, match=message):
            GeometricLaw.from_xi(0.3).symmetric_nbar(q)


def test_variances_undeformed_exponentials():
    var1, var2, product = squeezed_variances_closed(1.0, 1.0)
    assert var1 == pytest.approx(math.exp(2.0) / 4.0, abs=1e-12)
    assert var2 == pytest.approx(math.exp(-2.0) / 4.0, abs=1e-12)
    assert product == pytest.approx(1.0 / 16.0, abs=1e-12)


def test_variances_frozen_product_bm2():
    _, _, product = squeezed_variances_closed(2.0, XI_R03)
    assert product == pytest.approx(PRODUCT_BM2_R03, abs=1e-10)


def test_variances_at_zero_squeezing_take_moment_route():
    assert squeezed_variances_closed(2.0, 0.0) == (0.25, 0.25, 0.0625)
    assert GeometricLaw.from_xi(0.0).variances(0.0) == (0.25, 0.25, 0.0625)


@pytest.mark.parametrize("q,xi", list(_convergent_grid()))
def test_variances_match_moment_route(q, xi):
    scheme = DeformationScheme.biedenharn_macfarlane(q)
    var1, var2, product = squeezed_variances_closed(q, xi)
    state = geometric_state(scheme, math.tanh(xi) ** 2, 1e-13)
    mvar1, mvar2 = quadrature_variances(moments(state, scheme))
    assert abs(var1 - mvar1) <= 1e-10
    assert abs(var2 - mvar2) <= 1e-10
    assert abs(product - mvar1 * mvar2) <= 1e-10
    assert var2 > 0.0


def test_spec_validation():
    with pytest.raises(ValueError):
        SqueezedSpec(xi=float("inf"), scheme=UNDEFORMED)
    with pytest.raises(ValueError):
        SqueezedSpec(xi=1.0, scheme=UNDEFORMED, tail_tol=0.0)
    with pytest.raises(ValueError):
        SqueezedSpec(xi=1.0, scheme=UNDEFORMED, tail_tol=1.0)
