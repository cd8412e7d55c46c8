"""The d(n) column a scheme carries: every route that reads it gives the
bits, the errors and the stop index of one ``eval_d`` call per value.  The
series of an ``expr:`` law is checked against the per-call adaptive scan,
and that of a built-in law against its 50-digit sum up to the closed
stop."""

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
from qfock import expressions
from qfock.expressions import FUNCTIONS
from qfock.cli import SweepSpec, run_sweep
from qfock.geometric import _weighted_terms, weighted_cutoff, weighted_series

from helpers import (
    reference_closed_series,
    reference_moments,
    reference_weighted_scan,
    sinh_reference,
    within_ulps,
)

QUADRATIC = "n + (q - 1)*n*(n - 1)/2"
# A term that keeps a law out of the class that ``weighted_series`` sums
# from its parts (ln of a subtree in n), so the law takes the scan.
SCAN_ONLY = " + 0*ln(2 + n)"
FAILS_AT_3 = "2*n/(3 - n)"  # d(0) = 0, d(1) = 1, d(2) = 4, division by zero at n = 3
# Fails at n = 40, past where the scan stops for small r: the scan's
# look-ahead reads that far, yet must raise d(40) only on reaching n = 40,
# as one call per term would.
FAILS_AT_40 = "39*n/(40 - n)"

SCHEMES = {
    "bm-0.5": lambda: DeformationScheme.biedenharn_macfarlane(0.5),
    "bm-0.999": lambda: DeformationScheme.biedenharn_macfarlane(0.999),
    "bm-1": lambda: DeformationScheme.biedenharn_macfarlane(1.0),
    "bm-1+1e-9": lambda: DeformationScheme.biedenharn_macfarlane(1.0 + 1e-9),
    "bm-1.3": lambda: DeformationScheme.biedenharn_macfarlane(1.3),
    "bm-2": lambda: DeformationScheme.biedenharn_macfarlane(2.0),
    "undeformed": DeformationScheme.undeformed,
    "quadratic-0.7499": lambda: DeformationScheme.custom(QUADRATIC + SCAN_ONLY, 0.7499),
    "n^2": lambda: DeformationScheme.custom("n^2" + SCAN_ONLY, 1.0),
    "fails-at-3": lambda: DeformationScheme.custom(FAILS_AT_3, 1.0),
    "fails-at-40": lambda: DeformationScheme.custom(FAILS_AT_40, 1.0),
}
BUILT_IN = [name for name, make in SCHEMES.items() if make().kind != "custom"]
# Counts of one request: a band of one value, of two, and past the n = 1025
# where bm q = 2 overflows.
BLOCK_COUNTS = (2, 3, 64, 513, 1100)
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


def _reference(scheme, ratio, tol, prefactor):
    """(total, last index): the per-call scan of an ``expr:`` law, and a
    built-in law's 50-digit sum (an mpf) up to its closed stop."""
    if scheme.kind == "custom":
        return reference_weighted_scan(scheme, ratio, tol, prefactor)
    return reference_closed_series(scheme, ratio, tol, prefactor)


def _agrees(got, want):
    """The outcomes are equal, except that a 50-digit reference value (an
    mpf, where a float or an index must be equal) is met within
    ``within_ulps``."""
    if got[0] != "value" or want[0] != "value":
        return got == want
    pairs = zip(got[1], want[1]) if isinstance(want[1], tuple) else [(got[1], want[1])]
    return all(g == w if isinstance(w, (int, float)) else within_ulps(g, w) for g, w in pairs)


def _reference_scan(scheme, ratio, tol):
    """The reference of ``_column_scan``: the series and its cutoff read
    the same d(0..N)."""
    return _reference(scheme, ratio, tol, 1.0 - ratio)


@pytest.mark.parametrize("name", SCHEMES)
def test_scan_equals_per_call_reference(name):
    make = SCHEMES[name]
    for ratio, tol in CELLS:
        want = _outcome(_reference_scan, make(), ratio, tol)
        assert _agrees(_outcome(_column_scan, make(), ratio, tol), want), (ratio, tol)


# The property below draws from these: SCHEMES, a law whose d(2) = 0, so
# a zero term follows a positive one, a law with d(n) = 1 at odd n and
# n^2 at even n, whose terms at the huge prefactor and the underflowing
# ratio are 0, 1e108 and then inf * 0 = NaN at n = 2, where the scan ends,
# and the symmetric law as text, which the scan must find divergent.  Each
# law that has parts carries SCAN_ONLY, so that the property tests the scan.
SCAN_SCHEMES = {
    **SCHEMES,
    "zero-at-2": lambda: DeformationScheme.custom("n*(n - 2)^2" + SCAN_ONLY, 1.0),
    "odd-ones": lambda: DeformationScheme.custom("n^(1 + (-1)^n)", 1.0),
    "bm-text-2": lambda: DeformationScheme.custom("(q^n - q^(-n))/(q - q^(-1))" + SCAN_ONLY, 2.0),
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
@example(name="n^2", ratio=UNDERFLOW_RATIO, tol=1e-12, prefactor=None)
@example(name="n^2", ratio=0.9, tol=1e-12, prefactor=HUGE_PREFACTOR)
@example(name="bm-text-2", ratio=0.6, tol=1e-12, prefactor=None)
@example(name="odd-ones", ratio=UNDERFLOW_RATIO, tol=1e-12, prefactor=HUGE_PREFACTOR)
@example(name="undeformed", ratio=UNDERFLOW_RATIO, tol=1e-12, prefactor=None)
@example(name="undeformed", ratio=0.9, tol=1e-12, prefactor=HUGE_PREFACTOR)
@example(name="bm-2", ratio=0.6, tol=1e-12, prefactor=None)
@example(name="bm-2", ratio=0.499, tol=1e-12, prefactor=None)
def test_scan_routes_equal_reference_on_any_cell(name, ratio, tol, prefactor):
    """Series value and cutoff index, or the error's type, message and
    ratio, as the reference of the scheme's route gives them; prefactor
    None is 1 - ratio."""
    make = SCAN_SCHEMES[name]
    if prefactor is None:
        prefactor = 1.0 - ratio
    want_series, _ = _reference_parts(
        _nan_safe(_outcome(_reference, make(), ratio, tol, prefactor))
    )
    _, want_cutoff = _reference_parts(_outcome(_reference_scan, make(), ratio, tol))
    assert _agrees(_nan_safe(_outcome(weighted_series, make(), ratio, tol, prefactor)), want_series)
    assert _outcome(weighted_cutoff, make(), ratio, tol) == want_cutoff


def test_nan_term_ends_the_scan_naming_n():
    # The second law is the first times 2/(3 - n), so d(1) = 1 still, and
    # d(3) divides by zero: the scan reads it ahead of its index, but the
    # NaN term at n = 2 ends the scan first.
    for law in ("n^(1 + (-1)^n)", "2*n^(1 + (-1)^n)/(3 - n)"):
        scheme = DeformationScheme.custom(law, 1.0)
        with pytest.raises(DivergenceError, match=r"^series term is NaN at n=2$"):
            weighted_series(scheme, UNDERFLOW_RATIO, 1e-12, HUGE_PREFACTOR)
    assert scheme.d_values(0) == [0.0, 1.0, 8.0]


def test_scan_property_examples_reach_their_branches():
    zero_after_positive = SCAN_SCHEMES["zero-at-2"]()
    assert zero_after_positive.d_values(3)[:3] == [0.0, 1.0, 0.0]
    assert _reference_scan(zero_after_positive, 0.3, 1e-12)[1] > 3
    squares = SCHEMES["n^2"]
    assert _reference_scan(squares(), UNDERFLOW_RATIO, 1e-12)[1] == 5
    with pytest.raises(DivergenceError, match="term ratio nan") as info:
        reference_weighted_scan(squares(), 0.9, 1e-12, HUGE_PREFACTOR)
    assert math.isnan(info.value.ratio)
    with pytest.raises(DivergenceError, match="stopped decreasing") as info:
        _reference_scan(SCAN_SCHEMES["bm-text-2"](), 0.6, 1e-12)
    assert info.value.ratio >= 1.0
    # The built-in examples reach the closed stop's branches: one term at
    # an underflowing ratio, the verdict, and the two cells of the rule
    # ``pre_2a_outcome``: a term that is not finite, and a column that
    # overflows before N, which the scan then takes.
    assert _reference_scan(DeformationScheme.undeformed(), UNDERFLOW_RATIO, 1e-12)[1] == 1
    with pytest.raises(DivergenceError, match=r"^series term is not finite at n=2$"):
        _reference(DeformationScheme.undeformed(), 0.9, 1e-12, HUGE_PREFACTOR)
    with pytest.raises(DivergenceError, match=r"^series diverges") as info:
        _reference_scan(SCHEMES["bm-2"](), 0.6, 1e-12)
    assert info.value.ratio == 1.2
    with pytest.raises(OverflowError, match="n=1025"):
        _reference_scan(SCHEMES["bm-2"](), 0.499, 1e-12)
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


def _read_moments(state, scheme):
    """The four moments of ``moments``, each read."""
    m = moments(state, scheme)
    return m.adag_a, m.a_adag, m.a_atilde, m.adag_atildedag


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
        assert _outcome(_read_moments, state, make()) == want
        assert _outcome(_read_moments, state, shared) == want


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


def _counted_reads(monkeypatch):
    """The (start, stop) of every band ``_block`` reads from now on."""
    reads = []
    block = DeformationScheme._block

    def counted_block(scheme, start, stop):
        reads.append((start, stop))
        return block(scheme, start, stop)

    monkeypatch.setattr(DeformationScheme, "_block", counted_block)
    return reads


@pytest.mark.parametrize("name", ["quadratic-0.7499", "fails-at-40", "bm-1.3"])
def test_a_request_evaluates_no_value_past_its_count(monkeypatch, name):
    """``d_values(count)`` reads bands that end at ``count`` at most: a
    one-value growth reads one value, and a request that fails, none past
    it either."""
    scheme = SCHEMES[name]()
    reads = _counted_reads(monkeypatch)
    for count in range(1, 41):
        scheme.d_values(count)
    assert reads == [(n, n + 1) for n in range(40)]
    try:
        scheme.d_values(41)
    except EvaluationError as exc:
        assert name == "fails-at-40" and "n=40" in str(exc)
    assert reads[40:] == [(40, 41)]
    assert len(scheme.d_values(0)) == (40 if name == "fails-at-40" else 41)


def test_verify_evaluates_no_value_past_its_dim(monkeypatch):
    # The ladder reads d(0..dim-1), then a a+ reads d(dim).
    scheme = DeformationScheme.custom(QUADRATIC, 1.5)
    reads = _counted_reads(monkeypatch)
    assert verify_algebra(scheme, 256, 1e-10).passed
    assert reads == [(0, 256), (256, 257)]
    assert len(scheme.d_values(0)) == 257


def test_scan_reads_a_failure_found_before_it_once(monkeypatch):
    """A request past n = 1025 keeps d(0..1024) and raises d(1025); the
    scan that reaches n = 1025 then reads that one value, and ``eval_d``
    raises it, with no fresh band past it to search in halves."""
    scheme = SCHEMES["bm-2"]()
    with pytest.raises(OverflowError, match="n=1025"):
        scheme.d_values(1100)
    reads = _counted_reads(monkeypatch)
    with pytest.raises(OverflowError, match=r"overflowed at n=1025 \(q=2\.0\)"):
        sum(_weighted_terms(scheme, 0.499, 1e-12, 0.501))
    assert reads == [(1025, 1026)] * 2


@pytest.mark.parametrize("name", ["bm-1.3", "quadratic-0.7499"])
def test_moments_read_only_the_values_each_sum_uses(monkeypatch, name):
    """``moments`` reads no d(n).  Each moment reads, on its first read,
    the d(n) it sums: <a+ a> and <a a~> d(0..cutoff), <a a+> d(cutoff + 1)
    too."""
    state = geometric_state(SCHEMES[name](), 0.3, 1e-12)
    end = len(state.coeffs)
    want = reference_moments(state, SCHEMES[name]())
    scheme = SCHEMES[name]()
    reads = _counted_reads(monkeypatch)
    m = moments(state, scheme)
    assert reads == [] and len(scheme.d_values(0)) == 0
    assert m.adag_a == want[0]
    assert reads == [(0, end)] and len(scheme.d_values(0)) == end
    m.a_atilde
    assert reads == [(0, end)]
    m.a_adag
    assert reads == [(0, end), (end, end + 1)]


@pytest.mark.parametrize(
    "name, count, first_bad, error",
    [
        ("fails-at-40", 41, 40, EvaluationError),
        ("fails-at-40", 64, 40, EvaluationError),
        ("fails-at-40", 1000, 40, EvaluationError),
        ("bm-2", 1026, 1025, OverflowError),
        ("bm-2", 1100, 1025, OverflowError),
        ("bm-2", 4096, 1025, OverflowError),
    ],
)
def test_failed_band_is_read_in_halves(monkeypatch, name, count, first_bad, error):
    """A band that fails is searched in halves for its longest prefix that
    passes; only the first n past it goes to ``eval_d``."""
    make = SCHEMES[name]
    fresh, scheme = make(), make()  # a custom law's probes call eval_d
    want = [float.hex(eval_d(fresh, n)) for n in range(first_bad)]
    reads, calls = _counted_reads(monkeypatch), []

    def counted(scheme, n):
        calls.append(n)
        return eval_d(scheme, n)

    monkeypatch.setattr(qfock.deformation, "eval_d", counted)
    with pytest.raises(error, match=f"n={first_bad}[^0-9]"):
        scheme.d_values(count)
    assert calls == [first_bad]
    assert len(reads) <= 2 * math.log2(count) + 2
    assert list(map(float.hex, scheme.d_values(0))) == want


def _grown(scheme, counts):
    """Grow the column to each of counts in turn: (column as hex, error)."""
    error = None
    try:
        for count in counts:
            scheme.d_values(count)
    except ArithmeticError as exc:
        error = (type(exc), str(exc))
    return list(map(float.hex, scheme.d_values(0))), error


def _per_value(make, count):
    """The column of a fresh scheme grown one value at a time: a band of
    one value per growth for a built-in law, one ``eval_d`` call for a
    custom law."""
    return _grown(make(), range(1, count + 1))


def _assert_sinh_bits(q, column):
    """Every value of a built-in column is the written-out sinh form."""
    assert column == [float.hex(sinh_reference(q, n)) for n in range(len(column))]


@pytest.mark.parametrize("count", BLOCK_COUNTS)
@pytest.mark.parametrize("name", BUILT_IN)
def test_block_column_equals_per_value_column(name, count):
    make = SCHEMES[name]
    want = _per_value(make, count)
    assert _grown(make(), [count]) == want
    _assert_sinh_bits(make().q, want[0])
    if name == "bm-2" and count == 1100:
        assert len(want[0]) == 1025
        assert want[1] == (OverflowError, "deformation value overflowed at n=1025 (q=2.0)")


@settings(max_examples=100, deadline=None)
@given(
    q=st.floats(-8.0, 8.0).map(math.exp),
    count=st.sampled_from(BLOCK_COUNTS),
)
@example(q=1.0 - 1e-12, count=1100)
@example(q=1.0 + 1e-12, count=1100)
@example(q=1e-300, count=1100)
@example(q=1e300, count=1100)
# sinh(1089 lam) is finite but d(1089) = sinh(1089 lam) / sinh(lam) is not.
@example(q=1.92, count=1090)
# sinh(lam) itself overflows for every subnormal q, yet d(0) = 0 and d(1) = 1.
@example(q=1e-320, count=3)
@example(q=5e-324, count=3)
def test_block_column_equals_per_value_column_at_any_q(q, count):
    make = lambda: DeformationScheme.biedenharn_macfarlane(q)  # noqa: E731
    want = _per_value(make, count)
    assert _grown(make(), [count]) == want
    _assert_sinh_bits(q, want[0])


@pytest.mark.parametrize("name", BUILT_IN)
def test_ladder_and_scan_in_either_order_equal_fresh_schemes(name):
    make = SCHEMES[name]
    for ratio in (0.3, 0.9):
        scan = _outcome(_column_scan, make(), ratio, 1e-12)
        for count in BLOCK_COUNTS:
            ladder = _outcome(annihilation_matrix, make(), count)
            scan_first, ladder_first = make(), make()
            assert _outcome(_column_scan, scan_first, ratio, 1e-12) == scan
            assert _outcome(annihilation_matrix, scan_first, count) == ladder
            assert _outcome(annihilation_matrix, ladder_first, count) == ladder
            assert _outcome(_column_scan, ladder_first, ratio, 1e-12) == scan
            for grown in (scan_first, ladder_first):
                column = _grown(grown, [])[0]
                assert column == _per_value(make, len(column))[0], (ratio, count)


def test_ladder_of_a_built_in_law_makes_no_eval_d_call(monkeypatch):
    calls = []

    def counted(scheme, n):
        calls.append(n)
        return eval_d(scheme, n)

    monkeypatch.setattr(qfock.deformation, "eval_d", counted)
    annihilation_matrix(DeformationScheme.biedenharn_macfarlane(1.3), 512)
    annihilation_matrix(DeformationScheme.undeformed(), 512)
    # One-value growths read a band of one value each, by the same form.
    for scheme in (DeformationScheme.biedenharn_macfarlane(1.3), DeformationScheme.undeformed()):
        for n in range(601):
            scheme.d_values(n + 1)
    assert calls == []
    # A custom law's band is one walk of its tree: eval_d sees only the
    # probes of d(0) and d(1) that construction makes.
    annihilation_matrix(DeformationScheme.custom(QUADRATIC, 1.5), 512)
    assert calls == [0, 1]


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

            # Even seeds build ladders, whose dims grow the column in blocks,
            # while odd seeds scan it one value at a time.
            dims = {
                seed: sorted(random.Random(seed).sample(range(2, 601), 6))
                for seed in range(0, 8, 2)
            }
            ladders = {
                dim: _outcome(annihilation_matrix, make(), dim)
                for seed_dims in dims.values()
                for dim in seed_dims
            }

            def work(seed):
                cells = list(CELLS)
                random.Random(seed).shuffle(cells)
                start.wait(timeout=60)
                if seed in dims:
                    return {dim: _outcome(annihilation_matrix, shared, dim) for dim in dims[seed]}
                return {cell: _outcome(_column_scan, shared, *cell) for cell in cells}

            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(work, range(8), timeout=120))
            for seed, result in enumerate(results):
                if seed in dims:
                    assert result == {dim: ladders[dim] for dim in dims[seed]}, name
                else:
                    assert result == serial, name
            column = shared.d_values(0)
            fresh = make()
            assert column == [eval_d(fresh, n) for n in range(len(column))]
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("counts", [(10, 10), (8, 12)])
def test_growths_that_overlap_keep_one_column(monkeypatch, counts):
    # Both threads read the length 3, then meet in the band that holds d(5),
    # so each writes its values back after the other has read where the
    # column ended.
    make = SCHEMES["quadratic-0.7499"]
    shared = make()
    shared.d_values(3)
    meet = threading.Barrier(2)
    evaluate_band = expressions.evaluate_band

    def waiting(tree, q, ns):
        ns = list(ns)
        if 5.0 in ns and tree is shared.expr:
            meet.wait(timeout=30)
        return evaluate_band(tree, q, ns)

    monkeypatch.setattr(qfock.deformation, "evaluate_band", waiting)
    with ThreadPoolExecutor(max_workers=2) as pool:
        for future in [pool.submit(shared.d_values, count) for count in counts]:
            future.result(timeout=60)
    fresh = make()
    assert shared.d_values(0) == [eval_d(fresh, n) for n in range(max(counts))]


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
    """Each (q, n) enters its column once; columns fill in bands, so the
    values each column gains are counted, and each ``eval_d`` call must be
    one of them.  An ``expr:`` law reads d(n) on any route; whether a
    built-in law's series reads its column is the route's own choice."""
    gained, calls, law_calls = [], [], []
    cosh = FUNCTIONS["cosh"]
    d_values = DeformationScheme.d_values

    def counted_values(scheme, count):
        start = len(scheme._column)
        try:
            return d_values(scheme, count)
        finally:
            gained.extend((scheme.q, n) for n in range(start, len(scheme._column)))

    def counted(scheme, n):
        calls.append((scheme.q, n))
        return eval_d(scheme, n)

    def counted_cosh(x):
        law_calls.append(x)
        return cosh(x)

    monkeypatch.setattr(DeformationScheme, "d_values", counted_values)
    monkeypatch.setattr(qfock.deformation, "eval_d", counted)
    monkeypatch.setitem(FUNCTIONS, "cosh", counted_cosh)
    spec = SweepSpec(family, law, (0.5, 1.0, 1.3), (0.2, 0.5, 0.8, 1.0, 1.5))
    first = run_sweep(spec)
    first_gained, first_calls = list(gained), list(calls)
    gained.clear()
    calls.clear()
    law_calls.clear()
    # A second identical sweep recomputes everything: no cache outlives a call.
    assert run_sweep(spec) == first
    assert (gained, calls) == (first_gained, first_calls)
    assert len(gained) == len(set(gained))
    assert set(calls) <= set(gained) and len(calls) == len(set(calls))
    if law == COUNTED_LAW:
        assert gained
        # The law's functions run once per value its columns gain, in bands,
        # and twice more per scheme, for the probes of d(0) and d(1), which
        # are the only eval_d calls.
        assert calls == [(q, n) for q in spec.q_values for n in (0, 1)]
        assert len(law_calls) == len(gained) + 2 * len(spec.q_values)


@pytest.mark.parametrize("name", SCHEMES)
def test_used_scheme_keeps_identity(name):
    make = SCHEMES[name]
    used = make()
    used.d_values(3)
    fresh = make()
    assert used.d_values(0) and not fresh.d_values(0)
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
