"""Paired diagonal states: moments, variances, entropies."""

import math
import re
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from qfock import (
    DeformationScheme,
    SqueezedSpec,
    ThermalSpec,
    annihilation_matrix,
    from_probabilities,
    geometric_state,
    identity_matrix,
    moments,
    quadrature_variances,
    reduced_entropy_bits,
    shannon_entropy_bits,
    squeezed_probabilities,
    thermal_probabilities,
)
from qfock.paired_state import PairedDiagonalState

from helpers import (
    close,
    dense,
    dense_reduced_entropy_bits,
    geometric_probs,
    geometric_tail,
    tensor_pair,
)

UNDEFORMED = DeformationScheme.undeformed()
BM_TWO = DeformationScheme.biedenharn_macfarlane(2.0)
SCHEMES = [
    UNDEFORMED,
    DeformationScheme.biedenharn_macfarlane(0.5),
    BM_TWO,
    DeformationScheme.custom("n*(3+n)/4", 1.0),
]


class Moments(NamedTuple):
    """Hand-picked moments under the attribute names
    ``quadrature_variances`` reads."""

    adag_a: float
    a_adag: float
    a_atilde: float
    adag_atildedag: float


# Exact rational value of sum d(n) (1-r) r^n for the symmetric scheme,
# q = 2, r = 3/10: the split geometric series sums to 21/34.
NBAR_BM2_R03 = 21.0 / 34.0


def test_vacuum_state():
    state = from_probabilities([1.0], 0.0)
    assert state.coeffs == (1.0,)


def test_even_pair_state():
    state = from_probabilities([0.5, 0.5], 0.0)
    assert state.coeffs == (math.sqrt(0.5), math.sqrt(0.5))


def test_geometric_state_is_normalized():
    probs = geometric_probs(0.3, 24)
    state = from_probabilities(probs, geometric_tail(0.3, 24))
    total = math.fsum(c * c for c in state.coeffs)
    assert 1.0 - state.tail_bound - 1e-12 <= total <= 1.0 + 1e-12


def test_negative_probability_rejected():
    with pytest.raises(ValueError, match="negative probability"):
        from_probabilities([0.5, -0.1], 1.0)


@pytest.mark.parametrize(
    "probabilities,index",
    [
        ([0.5, -0.1], 1),
        ([math.nan, 0.5], 0),
        ([0.5, 0.2, math.inf, -1.0], 2),
        ([0.5, -0.2, -math.inf], 1),
    ],
)
def test_first_bad_probability_is_named(probabilities, index):
    word = "negative" if math.isfinite(probabilities[index]) else "non-finite"
    with pytest.raises(ValueError, match=rf"^{word} probability P\[{index}\] = "):
        from_probabilities(probabilities, 1.0)
    with pytest.raises(ValueError, match=rf"^{word} probability P\[{index}\] = "):
        shannon_entropy_bits(probabilities)


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: shannon_entropy_bits([1e308, 1e308]), "probabilities sum to inf, not 1"),
        (lambda: from_probabilities([1e308, 1e308], 1.0), "squared coefficients sum to inf > 1"),
        (lambda: PairedDiagonalState((1e154, 1e154), 1.0), "squared coefficients sum to inf > 1"),
        # one square that is already inf: no partial sum overflows
        (lambda: PairedDiagonalState((1.5e154,), 0.0), "squared coefficients sum to inf > 1"),
    ],
)
def test_sum_that_overflows_is_the_documented_value_error(build, message):
    # math.fsum raises OverflowError when its partial sums overflow
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("coeffs", [(0.6, -0.8), (math.nan,), (0.5, math.inf)])
def test_state_rejects_negative_or_non_finite_coefficients(coeffs):
    # (0.6, -0.8) has squares summing to 1, so only the sign check sees it.
    with pytest.raises(ValueError, match="coefficients must be finite and nonnegative"):
        PairedDiagonalState(coeffs, 1.0)


def test_state_needs_the_vacuum_coefficient():
    with pytest.raises(ValueError, match="state needs at least the vacuum coefficient"):
        PairedDiagonalState((), 0.0)


def test_mass_deficit_beyond_tail_bound_rejected():
    with pytest.raises(ValueError, match="mass deficit"):
        from_probabilities([0.5], 1e-3)


def test_mass_excess_rejected():
    with pytest.raises(ValueError, match="sum"):
        from_probabilities([0.9, 0.2], 0.0)


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.label)
def test_vacuum_moments(scheme):
    m = moments(from_probabilities([1.0], 0.0), scheme)
    assert m.adag_a == 0.0
    assert m.a_adag == pytest.approx(1.0, abs=1e-12)  # d(1) = 1 for every scheme
    assert m.a_atilde == 0.0
    assert m.adag_atildedag == 0.0


def test_undeformed_unit_mean():
    # ratio 1/2 puts exactly one photon in the physical mode on average
    state = geometric_state(UNDEFORMED, 0.5, 1e-13)
    assert moments(state, UNDEFORMED).adag_a == pytest.approx(1.0, abs=1e-10)


def test_bm2_geometric_mean_photon():
    state = geometric_state(BM_TWO, 0.3, 1e-13)
    assert moments(state, BM_TWO).adag_a == pytest.approx(NBAR_BM2_R03, abs=1e-10)


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.label)
def test_moments_match_tensor_product_route(scheme):
    """Slow-path oracle: sandwich full Kronecker matrices on a small space."""
    r = 0.25
    count = 8
    probs = geometric_probs(r, count)
    state = from_probabilities(probs, geometric_tail(r, count))
    m = moments(state, scheme)

    dim = count + 1  # one spare level so a a+ sees d(count) terms too
    a = annihilation_matrix(scheme, dim)
    ident = identity_matrix(dim)
    a_phys = tensor_pair(dense(a), dense(ident))
    a_twin = tensor_pair(dense(ident), dense(a))
    psi = np.zeros(dim * dim)
    for n, c in enumerate(state.coeffs):
        psi[n * dim + n] = c

    def sandwich(op):
        return float(psi @ op @ psi)

    assert sandwich(a_phys.T @ a_phys) == pytest.approx(m.adag_a, abs=1e-12)
    assert sandwich(a_phys @ a_phys.T) == pytest.approx(m.a_adag, abs=1e-12)
    assert sandwich(a_phys @ a_twin) == pytest.approx(m.a_atilde, abs=1e-12)
    assert sandwich(a_phys.T @ a_twin.T) == pytest.approx(m.adag_atildedag, abs=1e-12)
    # twin-mode marginals coincide with the physical ones on diagonal states
    assert sandwich(a_twin @ a_twin.T) == pytest.approx(m.a_adag, abs=1e-12)


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.label)
@pytest.mark.parametrize("r", [0.1, 0.3, 0.45])
def test_geometric_shift_identities(scheme, r):
    """a a+ and a a~ are index shifts of a+ a when d(0) = 0."""
    state = geometric_state(scheme, r, 1e-14)
    m = moments(state, scheme)
    assert abs(m.a_adag - m.adag_a / r) <= 1e-10
    assert abs(m.a_atilde - m.adag_a / math.sqrt(r)) <= 1e-10


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.label)
def test_moments_sum_only_what_is_read(scheme):
    m = moments(geometric_state(scheme, 0.3, 1e-14), scheme)
    assert m.adag_a >= 0.0
    assert "adag_a" in vars(m)
    assert "a_adag" not in vars(m) and "a_atilde" not in vars(m)
    assert m.adag_atildedag == m.a_atilde
    assert "a_adag" not in vars(m)


def test_vacuum_variances():
    var1, var2 = quadrature_variances(Moments(0.0, 1.0, 0.0, 0.0))
    assert var1 == 0.25
    assert var2 == 0.25


def test_undeformed_squeezed_variances():
    xi = 1.0
    state = geometric_state(UNDEFORMED, math.tanh(xi) ** 2, 1e-14)
    var1, var2 = quadrature_variances(moments(state, UNDEFORMED))
    assert var1 == pytest.approx(math.exp(2.0) / 4.0, abs=1e-10)
    assert var2 == pytest.approx(math.exp(-2.0) / 4.0, abs=1e-10)


def test_uncorrelated_moments_give_equal_variances():
    var1, var2 = quadrature_variances(Moments(0.7, 1.7, 0.0, 0.0))
    assert var1 == var2


def test_uncertainty_product_identity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        adag_a = float(rng.uniform(0.0, 5.0))
        a_adag = float(rng.uniform(0.0, 5.0))
        cross = float(rng.uniform(0.0, 3.0))
        m = Moments(adag_a, a_adag, cross, cross)
        var1, var2 = quadrature_variances(m)
        symmetric = 0.25 * (adag_a + a_adag)
        assert close(var1 * var2, symmetric**2 - (0.5 * cross) ** 2, 1e-12)


def test_shannon_basics():
    assert shannon_entropy_bits([1.0]) == 0.0
    assert shannon_entropy_bits([0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)
    assert shannon_entropy_bits([0.5, 0.5, 0.0]) == pytest.approx(1.0, abs=1e-15)


def test_shannon_geometric_mean_one():
    probs = geometric_probs(0.5, 48)
    assert shannon_entropy_bits(probs) == pytest.approx(2.0, abs=1e-8)


def test_shannon_rejects_bad_distributions():
    with pytest.raises(ValueError):
        shannon_entropy_bits([0.5, -0.5, 1.0])
    with pytest.raises(ValueError):
        shannon_entropy_bits([0.5, 0.4])  # mass missing beyond 1e-9


def test_reduced_entropy_basics():
    assert reduced_entropy_bits(from_probabilities([1.0], 0.0)) == 0.0
    even = from_probabilities([0.5, 0.5], 0.0)
    assert reduced_entropy_bits(even) == pytest.approx(1.0, abs=1e-12)


def test_reduced_entropy_matches_shannon_on_random_states():
    rng = np.random.default_rng(11)
    for _ in range(20):
        raw = rng.uniform(0.0, 1.0, size=12)
        probs = (raw / raw.sum()).tolist()
        state = from_probabilities(probs, 0.0)
        assert abs(
            reduced_entropy_bits(state) - shannon_entropy_bits(probs)
        ) <= 1e-12


def test_point_mass_entropy_is_positive_zero():
    # the vacuum row prints this value, so -0.0 would show as "-0.0"
    for value in (
        shannon_entropy_bits([1.0]),
        reduced_entropy_bits(from_probabilities([1.0], 0.0)),
    ):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


TAIL_TOL = 1e-12


def _random_states():
    rng = np.random.default_rng(11)
    for _ in range(20):
        raw = rng.uniform(0.0, 1.0, size=12)
        yield from_probabilities((raw / raw.sum()).tolist(), 0.0)


def _family_state(family, value):
    if family == "xi":
        probs = squeezed_probabilities(SqueezedSpec(value, UNDEFORMED, TAIL_TOL))
    else:
        probs = thermal_probabilities(ThermalSpec(value, UNDEFORMED, TAIL_TOL))
    return from_probabilities(probs, TAIL_TOL)


# Cutoffs 50 .. 1105; xi = 0 and theta >= 709.8 are point masses.
@pytest.mark.parametrize(
    "family,value",
    [("xi", xi) for xi in (0.0, 1.0, 1.5, 2.0, 2.4)]
    + [("theta", theta) for theta in (0.5, 0.1, 0.05, 0.025, 709.8, 746.0)],
)
def test_reduced_entropy_equals_dense_partial_trace_on_family_states(family, value):
    state = _family_state(family, value)
    cutoff = len(state.coeffs) - 1
    assert cutoff == 0 or 50 <= cutoff <= 1200
    assert reduced_entropy_bits(state) == dense_reduced_entropy_bits(state)


def test_reduced_entropy_equals_dense_partial_trace_on_random_states():
    for state in _random_states():
        assert reduced_entropy_bits(state) == dense_reduced_entropy_bits(state)


def _product_basis_entropy(state):
    """Entropy of the physical mode after tracing the twin out of the full
    two-mode state sum_n c_n e_n (x) e_n in the (N+1)^2 product basis."""
    dim = len(state.coeffs)
    psi = np.zeros(dim * dim)
    for n, c in enumerate(state.coeffs):
        psi[n * dim + n] = c
    amp = psi.reshape(dim, dim)  # amp[physical, twin]
    rho = np.einsum("ij,kl->ijkl", amp, amp)  # |psi><psi| indexed [i, j; k, l]
    reduced = np.einsum("ijkj->ik", rho)
    evals = np.linalg.eigvalsh(reduced)
    return -sum(v * math.log2(v) for v in evals if v > 1e-300)


@pytest.mark.parametrize(
    "family,value", [("xi", 0.1), ("xi", 0.3), ("theta", 2.0), ("theta", 3.0)]
)
def test_reduced_entropy_matches_product_basis_partial_trace(family, value):
    state = _family_state(family, value)
    assert 0 < len(state.coeffs) - 1 <= 16
    assert abs(reduced_entropy_bits(state) - _product_basis_entropy(state)) <= 1e-12


def test_reduced_entropy_matches_product_basis_partial_trace_on_random_states():
    for state in _random_states():
        assert abs(reduced_entropy_bits(state) - _product_basis_entropy(state)) <= 1e-12


def test_reduced_entropy_memory_stays_linear_in_cutoff():
    # xi = 3 has 2,787 coefficients; a dense rho would be two 62 MB arrays.
    state = _family_state("xi", 3.0)
    assert len(state.coeffs) == 2787
    tracemalloc.start()
    try:
        reduced_entropy_bits(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
