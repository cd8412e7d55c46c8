"""The d(n) column a scheme carries: every route that reads it gives the
bits, the errors and the stop index of one ``eval_d`` call per value."""

import math
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings, strategies as st

import qfock.deformation
from qfock import (
    DeformationScheme,
    DivergenceError,
    EvaluationError,
    annihilation_matrix,
    geometric_state,
    moments,
    verify_algebra,
)
from qfock.deformation import eval_d
from qfock.expressions import FUNCTIONS
from qfock.cli import SweepSpec, run_sweep
from qfock.geometric import weighted_cutoff, weighted_series

from helpers import reference_moments, reference_weighted_scan

QUADRATIC = "n + (q - 1)*n*(n - 1)/2"
FAILS_AT_3 = "2*n/(3 - n)"  # d(0) = 0, d(1) = 1, d(2) = 4, division by zero at n = 3
# Fails at n = 40, past where the scan stops for small r: a column that
# evaluated ahead of the scan would raise where one call per term does not.
FAILS_AT_40 = "39*n/(40 - n)"

SCHEMES = {
    "bm-0.5": lambda: DeformationScheme.biedenharn_macfarlane(0.5),
    "bm-0.999": lambda: DeformationScheme.biedenharn_macfarlane(0.999),
    "bm-1": lambda: DeformationScheme.biedenharn_macfarlane(1.0),
    "bm-1+1e-9": lambda: DeformationScheme.biedenharn_macfarlane(1.0 + 1e-9),
    "bm-1.3": lambda: DeformationScheme.biedenharn_macfarlane(1.3),
    "bm-2": lambda: DeformationScheme.biedenharn_macfarlane(2.0),
    "undeformed": DeformationScheme.undeformed,
    "quadratic-0.7499": lambda: DeformationScheme.custom(QUADRATIC, 0.7499),
    "n^2": lambda: DeformationScheme.custom("n^2", 1.0),
    "fails-at-3": lambda: DeformationScheme.custom(FAILS_AT_3, 1.0),
    "fails-at-40": lambda: DeformationScheme.custom(FAILS_AT_40, 1.0),
}
# r = 0.499 at bm q = 2 converges too slowly to stop before d(1025) overflows.
RATIOS = (0.0, 0.05, 0.3, 0.499, 0.7, 0.9, 0.99)
TOLS = (1e-12, 1e-6)
CELLS = [(r, tol) for r in RATIOS for tol in TOLS]


def _outcome(fn, *args):
    """A result, or the exception's type, message and divergence ratio."""
    try:
        return ("value", fn(*args))
    except Exception as exc:
        return (type(exc), str(exc), getattr(exc, "ratio", None))


def _column_scan(scheme, ratio, tol):
    """(total, last index) through the public routes that read the column."""
    total = weighted_series(scheme, ratio, tol, 1.0 - ratio)
    return total, weighted_cutoff(scheme, ratio, tol)


def _reference_scan(scheme, ratio, tol):
    return reference_weighted_scan(scheme, ratio, tol, 1.0 - ratio)


@pytest.mark.parametrize("name", SCHEMES)
def test_scan_equals_per_call_reference(name):
    make = SCHEMES[name]
    for ratio, tol in CELLS:
        want = _outcome(_reference_scan, make(), ratio, tol)
        assert _outcome(_column_scan, make(), ratio, tol) == want, (ratio, tol)


# The property below draws from these: SCHEMES, a law whose d(2) = 0, so
# a zero term follows a positive one, and a law with d(n) = 1 at odd n and
# n^2 at even n, whose terms at the huge prefactor and the underflowing
# ratio are 0, 1e108 and then inf * 0 = NaN at n = 2, where the scan ends.
SCAN_SCHEMES = {
    **SCHEMES,
    "zero-at-2": lambda: DeformationScheme.custom("n*(n - 2)^2", 1.0),
    "odd-ones": lambda: DeformationScheme.custom("n^(1 + (-1)^n)", 1.0),
}
UNDERFLOW_RATIO = 1e-200  # ratio^n is 0.0 from n = 2 on
HUGE_PREFACTOR = 1e308  # d(n) * prefactor is inf from d(n) = 2 on


def _nan_safe(outcome):
    """The outcome with a NaN divergence ratio read as the string "nan"."""
    if outcome[0] != "value" and outcome[2] != outcome[2]:
        return outcome[:2] + ("nan",)
    return outcome


def _reference_parts(outcome):
    """A reference outcome split into the series and the cutoff outcomes."""
    if outcome[0] != "value":
        return outcome, outcome
    total, index = outcome[1]
    return ("value", total), ("value", index)


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(sorted(SCAN_SCHEMES)),
    ratio=st.one_of(st.sampled_from(RATIOS), st.floats(0.0, 0.99)),
    tol=st.one_of(st.sampled_from(TOLS), st.floats(1e-16, 1e-2)),
    prefactor=st.sampled_from((None, 1.0, -0.5, 1e-300, HUGE_PREFACTOR)),
)
@example(name="zero-at-2", ratio=0.3, tol=1e-12, prefactor=None)
@example(name="undeformed", ratio=UNDERFLOW_RATIO, tol=1e-12, prefactor=None)
@example(name="undeformed", ratio=0.9, tol=1e-12, prefactor=HUGE_PREFACTOR)
@example(name="bm-2", ratio=0.6, tol=1e-12, prefactor=None)
@example(name="odd-ones", ratio=UNDERFLOW_RATIO, tol=1e-12, prefactor=HUGE_PREFACTOR)
def test_scan_routes_equal_reference_on_any_cell(name, ratio, tol, prefactor):
    """Series value and cutoff index, or the error's type, message and
    ratio, as the reference scan gives them; prefactor None is 1 - ratio."""
    make = SCAN_SCHEMES[name]
    if prefactor is None:
        prefactor = 1.0 - ratio
    want_series, _ = _reference_parts(
        _nan_safe(_outcome(reference_weighted_scan, make(), ratio, tol, prefactor))
    )
    _, want_cutoff = _reference_parts(_outcome(_reference_scan, make(), ratio, tol))
    assert _nan_safe(_outcome(weighted_series, make(), ratio, tol, prefactor)) == want_series
    assert _outcome(weighted_cutoff, make(), ratio, tol) == want_cutoff


def test_nan_term_ends_the_scan_naming_n():
    scheme = SCAN_SCHEMES["odd-ones"]()
    with pytest.raises(DivergenceError, match=r"^series term is NaN at n=2$"):
        weighted_series(scheme, UNDERFLOW_RATIO, 1e-12, HUGE_PREFACTOR)
    assert len(scheme.d_values(0)) == 3  # no d(n) past n = 2 was asked for


def test_scan_property_examples_reach_their_branches():
    zero_after_positive = SCAN_SCHEMES["zero-at-2"]()
    assert zero_after_positive.d_values(3)[:3] == [0.0, 1.0, 0.0]
    assert _reference_scan(zero_after_positive, 0.3, 1e-12)[1] > 3
    assert _reference_scan(DeformationScheme.undeformed(), UNDERFLOW_RATIO, 1e-12)[1] == 5
    plain = DeformationScheme.undeformed()
    with pytest.raises(DivergenceError, match="term ratio nan") as info:
        reference_weighted_scan(plain, 0.9, 1e-12, HUGE_PREFACTOR)
    assert math.isnan(info.value.ratio)
    with pytest.raises(DivergenceError, match="stopped decreasing") as info:
        _reference_scan(SCHEMES["bm-2"](), 0.6, 1e-12)
    assert info.value.ratio >= 1.0
    assert SCAN_SCHEMES["odd-ones"]().d_values(5) == [0.0, 1.0, 4.0, 1.0, 16.0]
    assert UNDERFLOW_RATIO**2 == 0.0 and 4.0 * HUGE_PREFACTOR == math.inf


def test_reference_cells_cover_every_outcome():
    seen = set()
    for make in SCHEMES.values():
        for ratio, tol in CELLS:
            outcome = _outcome(_reference_scan, make(), ratio, tol)
            seen.add(outcome[0] if outcome[0] == "value" else outcome[0].__name__)
            if outcome[0] is OverflowError:
                assert "n=1025" in outcome[1]
    assert seen == {"value", "DivergenceError", "OverflowError", "EvaluationError"}


@pytest.mark.parametrize("name", SCHEMES)
@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_shared_scheme_in_any_order_equals_fresh_schemes(name, order):
    make = SCHEMES[name]
    cells = sorted(CELLS, reverse=order == "descending")
    if order == "shuffled":
        random.Random(name).shuffle(cells)
    shared = make()
    for ratio, tol in cells:
        want = _outcome(_column_scan, make(), ratio, tol)
        assert _outcome(_column_scan, shared, ratio, tol) == want, (ratio, tol)


@pytest.mark.parametrize("name", SCHEMES)
def test_moments_equal_per_call_reference(name):
    make = SCHEMES[name]
    shared = make()
    for ratio in (0.05, 0.3, 0.499, 0.7):
        try:
            state = geometric_state(make(), ratio, 1e-12)
        except ArithmeticError:
            continue
        want = _outcome(reference_moments, state, make())
        assert _outcome(moments, state, make()) == want
        assert _outcome(moments, state, shared) == want


def test_column_stops_before_the_first_failing_value():
    scheme = DeformationScheme.biedenharn_macfarlane(2.0)
    for _ in range(2):
        with pytest.raises(OverflowError, match=r"overflowed at n=1025 \(q=2\.0\)"):
            weighted_series(scheme, 0.499, 1e-12, 0.501)
        assert len(scheme.d_values(0)) == 1025
    assert scheme.d_values(1025)[1024] == eval_d(scheme, 1024)
    assert annihilation_matrix(scheme, 1025).dim == 1025  # needs d(1..1024) only
    with pytest.raises(OverflowError, match="n=1025"):
        verify_algebra(scheme, 1025, 1e-10)
    assert len(scheme.d_values(0)) == 1025

    failing = SCHEMES["fails-at-3"]()
    with pytest.raises(EvaluationError, match="n=3"):
        failing.d_values(10)
    assert failing.d_values(0) == [0.0, 1.0, 4.0]


def test_ladder_sign_error_comes_before_a_later_evaluation_error():
    # d(4) = -8 is negative; d(5) divides by zero.
    make = lambda: DeformationScheme.custom("2*n*(3 - n)/(5 - n)", 1.0)  # noqa: E731
    grown = make()
    with pytest.raises(EvaluationError, match="n=5"):
        weighted_series(grown, 0.3, 1e-12, 0.7)
    for scheme in (make(), grown):
        with pytest.raises(ValueError, match=r"d\(4\) = -8\.0 is negative"):
            annihilation_matrix(scheme, 7)


def test_threads_sharing_a_scheme_get_the_serial_results():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch often, so growths overlap
    try:
        for name in ("bm-1.3", "quadratic-0.7499", "fails-at-3"):
            make = SCHEMES[name]
            serial = {cell: _outcome(_column_scan, make(), *cell) for cell in CELLS}
            shared = make()
            start = threading.Barrier(8)

            def work(seed):
                cells = list(CELLS)
                random.Random(seed).shuffle(cells)
                start.wait(timeout=60)
                return {cell: _outcome(_column_scan, shared, *cell) for cell in cells}

            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(work, range(8), timeout=120))
            assert all(result == serial for result in results), name
            column = shared.d_values(0)
            fresh = make()
            assert column == [eval_d(fresh, n) for n in range(len(column))]
    finally:
        sys.setswitchinterval(interval)


COUNTED_LAW = "expr:n*cosh(0*n) + (q - 1)*n*(n - 1)/2"  # the quadratic law


@pytest.mark.parametrize(
    "family, law",
    [
        pytest.param("squeezed", "bm", id="squeezed"),
        pytest.param("thermal", "bm", id="thermal"),
        pytest.param("squeezed", COUNTED_LAW, id="squeezed-expr"),
        pytest.param("thermal", COUNTED_LAW, id="thermal-expr"),
    ],
)
def test_sweep_evaluates_each_value_once_per_column(monkeypatch, family, law):
    calls, law_calls = [], []
    cosh = FUNCTIONS["cosh"]

    def counted(scheme, n):
        calls.append((scheme.q, n))
        return eval_d(scheme, n)

    def counted_cosh(x):
        law_calls.append(x)
        return cosh(x)

    monkeypatch.setattr(qfock.deformation, "eval_d", counted)
    monkeypatch.setitem(FUNCTIONS, "cosh", counted_cosh)
    spec = SweepSpec(family, law, (0.5, 1.0, 1.3), (0.2, 0.5, 0.8, 1.0, 1.5))
    first = run_sweep(spec)
    first_calls = list(calls)
    calls.clear()
    law_calls.clear()
    # A second identical sweep recomputes everything: no cache outlives a call.
    assert run_sweep(spec) == first
    assert calls == first_calls
    assert len(calls) == len(set(calls)) > 0
    if law == COUNTED_LAW:
        # The code of the law is kept, but it runs once per d(n) and twice
        # more per scheme, for the probes at n = 0 and n = 1.
        assert len(law_calls) == len(calls) + 2 * len(spec.q_values)


@pytest.mark.parametrize("name", SCHEMES)
def test_used_scheme_keeps_identity(name):
    make = SCHEMES[name]
    used = make()
    _outcome(_column_scan, used, 0.3, 1e-12)
    fresh = make()
    assert used.d_values(0) and not fresh.d_values(0)
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
