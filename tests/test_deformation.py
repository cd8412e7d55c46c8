"""Deformation scheme construction and evaluation tests."""

import math
import pickle
import re
import sys

import pytest

from qfock import (
    DeformationScheme,
    GeometricLaw,
    nbar_closed_bm,
    parse_deformation,
    squeezed_variances_closed,
    thermal_nbar_closed_bm,
)
from qfock.cli import resolve_scheme
from qfock.deformation import eval_d

from helpers import close

BM_TEXT = "(q^n - q^(-n))/(q - q^(-1))"

SCHEMES = [
    DeformationScheme.undeformed(),
    DeformationScheme.biedenharn_macfarlane(0.5),
    DeformationScheme.biedenharn_macfarlane(2.0),
    DeformationScheme.custom(BM_TEXT, 2.0),
    DeformationScheme.custom("n*(3+n)/4", 1.0),
]


def test_bm_q2_n2_value():
    # (4 - 1/4) / (2 - 1/2) = 2.5
    assert eval_d(DeformationScheme.biedenharn_macfarlane(2.0), 2) == pytest.approx(
        2.5, abs=1e-12
    )


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.label)
def test_base_values_and_finiteness(scheme):
    assert eval_d(scheme, 0) == pytest.approx(0.0, abs=1e-12)
    assert eval_d(scheme, 1) == pytest.approx(1.0, abs=1e-12)
    for n in range(65):
        assert math.isfinite(eval_d(scheme, n))


def test_undeformed_is_exact():
    scheme = DeformationScheme.undeformed()
    for n in range(65):
        assert eval_d(scheme, n) == float(n)


def test_bm_limit_window_gives_integers():
    for q in (1.0, 1.0 + 1e-9, 1.0 - 1e-9):
        scheme = DeformationScheme.biedenharn_macfarlane(q)
        assert eval_d(scheme, 5) == 5.0


@pytest.mark.parametrize("q", [0.5, 0.9, 1.1, 2.0])
def test_bm_symmetric_under_q_inversion(q):
    direct = DeformationScheme.biedenharn_macfarlane(q)
    inverted = DeformationScheme.biedenharn_macfarlane(1.0 / q)
    for n in range(65):
        assert close(eval_d(direct, n), eval_d(inverted, n), 1e-12)


@pytest.mark.parametrize("q", [0.5, 0.9, 1.1, 2.0])
def test_custom_bm_text_matches_builtin(q):
    builtin = DeformationScheme.biedenharn_macfarlane(q)
    custom = DeformationScheme.custom(BM_TEXT, q)
    for n in range(65):
        assert close(eval_d(custom, n), eval_d(builtin, n), 1e-12)


def test_eval_overflow_at_huge_n():
    scheme = DeformationScheme.biedenharn_macfarlane(2.0)
    with pytest.raises(OverflowError):
        eval_d(scheme, 5000)


@pytest.mark.parametrize("q", [3.0, 10.0, 0.1, 1e300, 1e-300])
def test_last_finite_value_is_not_an_overflow(q):
    # where sinh(lam) > 1, d(n) can be finite although sinh(n lam) is not
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        lam = mpmath.log(mpmath.mpf(q))
        n = 1
        while mpmath.sinh((n + 1) * lam) / mpmath.sinh(lam) <= sys.float_info.max:
            n += 1
        want = mpmath.sinh(n * lam) / mpmath.sinh(lam)
    scheme = DeformationScheme.biedenharn_macfarlane(q)
    assert eval_d(scheme, n) == pytest.approx(float(want), rel=1e-12)
    with pytest.raises(OverflowError, match=f"n={n + 1} "):
        eval_d(scheme, n + 1)


@pytest.mark.parametrize("q", [0.0, -1.0, float("nan"), float("inf")])
def test_nonpositive_q_rejected(q):
    # every entry point that takes q reports it with the scheme's message
    entry_points = [
        DeformationScheme.biedenharn_macfarlane,
        lambda q: DeformationScheme.custom("n", q),
        GeometricLaw.from_xi(0.3).symmetric_nbar,
        lambda q: nbar_closed_bm(q, 0.0),
        lambda q: thermal_nbar_closed_bm(q, 800.0),
        lambda q: squeezed_variances_closed(q, 0.0),
    ]
    for descriptor in ("undeformed", "bm", "expr:n"):
        entry_points.append(lambda q, descriptor=descriptor: resolve_scheme(descriptor, q))
    message = re.escape(f"q must be finite and positive, got {q!r}")
    for call in entry_points:
        with pytest.raises(ValueError, match=message):
            call(q)


@pytest.mark.parametrize("bad_n", [-1, 1.5, math.inf, -math.inf, math.nan])
def test_bad_occupation_number_rejected(bad_n):
    message = re.escape(f"occupation number must be a nonnegative integer, got {bad_n!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        eval_d(DeformationScheme.undeformed(), bad_n)


@pytest.mark.parametrize(
    "source",
    [
        "n + 1",  # d(0) = 1
        "2*n",  # d(1) = 2
        "1/n",  # blows up at the n = 0 probe
        "q",  # d(0) = q != 0
    ],
)
def test_custom_probe_rejects_bad_laws(source):
    with pytest.raises(ValueError):
        DeformationScheme.custom(source, 2.0)


def test_custom_accepts_quadratic_law():
    # n^2 passes both probes even though it is no ladder of the symmetric family
    scheme = DeformationScheme.custom("n^2", 2.0)
    assert eval_d(scheme, 3) == 9.0


def test_custom_runtime_arithmetic_failures_surface():
    from qfock import EvaluationError

    # passes the probes, dies at n = 2 (division by zero) and n = 3 (domain)
    scheme = DeformationScheme.custom("n / sqrt(2 - n)", 2.0)
    assert eval_d(scheme, 1) == 1.0
    with pytest.raises(EvaluationError):
        eval_d(scheme, 2)
    with pytest.raises(EvaluationError):
        eval_d(scheme, 3)


def test_scheme_field_validation():
    with pytest.raises(ValueError):
        DeformationScheme("custom", 2.0)  # expression missing
    with pytest.raises(ValueError):
        DeformationScheme("undeformed", 1.0, expr=parse_deformation("n"))
    with pytest.raises(ValueError):
        DeformationScheme("mystery", 1.0)


def test_undeformed_scheme_has_q_one():
    # eval_d reads the undeformed scheme as the symmetric law at lam = ln q = 0
    with pytest.raises(ValueError, match="undeformed scheme has q = 1"):
        DeformationScheme("undeformed", 2.0)
    scheme = DeformationScheme("undeformed", 1)
    assert [eval_d(scheme, n) for n in range(4)] == [0.0, 1.0, 2.0, 3.0]


def test_labels():
    assert DeformationScheme.undeformed().label == "undeformed"
    assert DeformationScheme.biedenharn_macfarlane(2.0).label == "biedenharn-macfarlane"
    assert DeformationScheme.custom("n", 1.0).label == "n"


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.label)
def test_used_scheme_pickles(scheme):
    before = list(scheme.d_values(6))
    copy = pickle.loads(pickle.dumps(scheme))
    assert copy == scheme
    assert copy.d_values(12) == scheme.d_values(12)
    assert copy.d_values(12)[:6] == before
