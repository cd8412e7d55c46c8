"""Self-tests of the benchmark: its references, its tracing, its records.

Run with ``python3 -m pytest bench -q`` from the repository root.
"""

import json
import math
from pathlib import Path

import pytest

import layer_trace
import reference
import worker
import workloads

ROOT = Path(__file__).resolve().parents[1]


# ------------------------------------------------------------- references


def _mp_sum(mpmath, family, param, d, peak=1.0):
    """sum d(n) (1 - r) r^n at 40 digits, r from the physical parameter.

    Summed term by term up to where max(q, 1/q)^n r^n < e^-90: the default
    nsum extrapolation misjudges these series when d(n) changes sign.
    """
    with mpmath.workdps(40):
        x = mpmath.mpf(param)
        r = mpmath.tanh(x) ** 2 if family == "squeezed" else mpmath.exp(-x)
        last = int(90 / -math.log(float(r) * peak)) + 1
        return mpmath.nsum(lambda n: d(n) * (1 - r) * r**n, [0, last])


def _param(family, r):
    return math.atanh(math.sqrt(r)) if family == "squeezed" else -math.log(r)


# (family, q, r): near q = 1 on both sides, and near max(q, 1/q) r = 1.
CELLS = [
    ("squeezed", 1.0 + 1e-8, 0.5),
    ("thermal", 1.0 - 1e-8, 0.9),
    ("squeezed", 1.0 + 1.01e-8, 0.95),
    ("thermal", 2.0, 0.99 / 2.0),
    ("squeezed", 0.5, 0.99 / 2.0),
    ("thermal", 1.3, 0.99 / 1.3),
    ("squeezed", 1.0, 0.7),
    ("thermal", 1.0, 0.05),
]


@pytest.mark.parametrize("family,q,r", CELLS)
def test_symmetric_reference_matches_nsum(family, q, r):
    mpmath = pytest.importorskip("mpmath")
    param = _param(family, r)
    with mpmath.workdps(40):
        mq = mpmath.mpf(q)
        if q == 1.0:
            d = lambda n: n  # noqa: E731
        else:
            d = lambda n: (mq**n - mq**-n) / (mq - 1 / mq)  # noqa: E731
        want = float(_mp_sum(mpmath, family, param, d, max(q, 1.0 / q)))
    got = reference.symmetric_nbar(reference.law_for(family, param), q)
    assert abs(got - want) <= 1e-13 * want


@pytest.mark.parametrize("family,q,r", CELLS)
def test_quadratic_reference_matches_nsum(family, q, r):
    mpmath = pytest.importorskip("mpmath")
    param = _param(family, r)
    with mpmath.workdps(40):
        mq = mpmath.mpf(q)
        want = float(_mp_sum(mpmath, family, param, lambda n: n + (mq - 1) * n * (n - 1) / 2))
    got, scale = reference.quadratic_nbar(reference.law_for(family, param), q)
    assert abs(got - want) <= 1e-13 * scale


@pytest.mark.parametrize("family,q,r", CELLS)
def test_entropy_and_variance_references_match_mpmath(family, q, r):
    mpmath = pytest.importorskip("mpmath")
    param = _param(family, r)
    law = reference.law_for(family, param)
    with mpmath.workdps(40):
        x = mpmath.mpf(param)
        mr = mpmath.tanh(x) ** 2 if family == "squeezed" else mpmath.exp(-x)
        entropy = float(-mpmath.log(1 - mr, 2) - mr * mpmath.log(mr, 2) / (1 - mr))
        nbar = mr / (1 - mr)
        var1 = float(nbar * (1 + 1 / mpmath.sqrt(mr)) ** 2 / 4)
        var2 = float(nbar * (1 - 1 / mpmath.sqrt(mr)) ** 2 / 4)
    assert abs(reference.entropy_bits(law) - entropy) <= 1e-14 * max(1.0, entropy)
    got1, got2, product = reference.variances(law, law.r / law.one_minus_r)
    assert abs(got1 - var1) <= 1e-13 * var1
    assert abs(got2 - var2) <= 1e-13 * var2
    assert abs(product - var1 * var2) <= 1e-13 * var1 * var2


def test_symmetric_reference_flags_divergence():
    assert reference.symmetric_nbar(reference.thermal_law(0.69), 2.0) is None
    assert reference.symmetric_nbar(reference.squeezed_law(0.9), 0.5) is None


# ------------------------------------------------------------- tracing

ALL = ("sweep_squeezed", "sweep_thermal", "sweep_expr", "oracle")
# Per-layer metric -> workloads where it must be non-zero; zero on the rest.
EXERCISED = {
    "cli.resolve_scheme.calls": ALL,
    "cli.render.bytes": ("sweep_squeezed", "sweep_thermal", "sweep_expr"),
    "expressions.parse_deformation.calls": ("sweep_expr", "oracle"),
    "expressions.evaluate_tree.calls": ("sweep_expr", "oracle"),
    "deformation.eval_d.calls": ALL,
    "geometric.weighted_series.s": ("sweep_squeezed", "sweep_expr"),
    "geometric.geometric_state.s": ("sweep_thermal", "sweep_expr"),
    "paired_state.moments.s": ("sweep_thermal", "sweep_expr"),
    "paired_state.reduced_entropy_bits.calls": ("oracle",),
    "squeezed.probability_terms": ("sweep_squeezed", "sweep_expr", "oracle"),
    "thermal.probability_terms": ("sweep_thermal", "sweep_expr", "oracle"),
    "fock_matrix.verify_algebra.calls": ("oracle",),
    "fock_matrix.ladder_build.s": ("oracle",),
}
# Failure counters -> the only workloads whose defect probes may move them.
# They fall to 0 as ROADMAP item 1 is fixed, so only the zeros are checked
# here; unattributed_probes() checks that each failing probe moved one.
MAY_FAIL = {
    "deformation.overflow": ("sweep_squeezed", "sweep_thermal"),
    "deformation.scheme_rejected": ("sweep_expr",),
    "deformation.nonpositive": ("sweep_expr",),
    "geometric.divergence_raised": ("sweep_squeezed", "sweep_thermal"),
}


@pytest.mark.parametrize("name", ALL)
def test_traced_pass_is_transparent(name):
    import qfock
    import qfock.cli

    originals = {attr: getattr(qfock.cli, attr) for attr in ("main", "nbar_series", "resolve_scheme")}
    run = worker.Workload(qfock, workloads.build(name, 7))
    plain_pass = run.run_pass()
    with layer_trace.Tracer(workloads.reference_converges) as tracer:
        traced_pass = run.run_pass()
    assert traced_pass.digest == plain_pass.digest
    plain, traced = run.check(plain_pass.responses), run.check(traced_pass.responses)
    assert plain == traced
    assert plain["bulk_failed"] == 0 and not plain["unexpected"]
    for attr, fn in originals.items():
        assert getattr(qfock.cli, attr) is fn

    metrics = tracer.metrics()
    for metric, exercised in EXERCISED.items():
        assert (metrics[metric] > 0) == (name in exercised), metric
    for metric, may_fail in MAY_FAIL.items():
        assert name in may_fail or metrics[metric] == 0, metric
    assert run.unattributed_probes() == 0


def test_correct_divergence_is_not_counted_as_a_failure():
    import qfock
    import qfock.cli

    cell = workloads.Cell("thermal", "symmetric", 2.0, 0.5)  # 2 e^-0.5 > 1
    request = workloads.SweepRequest("thermal", "bm", 2.0, (cell,), "json")
    with layer_trace.Tracer(workloads.reference_converges) as tracer:
        response = request.send(qfock)
    assert request.check(response) == [workloads.Op(None)]
    assert tracer.calls["geometric.geometric_state"] > 0
    assert tracer.counts["geometric.divergence_raised"] == 0


# ------------------------------------------------------------- records


def test_spec_covers_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((ROOT / "bench" / "spec.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(spec["workloads"]) == list(ALL)
    for w in bench["workloads"]:
        assert spec["workloads"][w["name"]]["why"] == w["why"]
    per_layer = {m["name"] for m in bench["per_layer"]}
    assert set(spec["layer_map"]) <= per_layer
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for metric, record in spec["metrics"].items():
        assert units.get(metric, record["unit"]) == record["unit"]
    assert {m["name"] for m in bench["end_to_end"]} <= set(spec["metrics"])


def test_tail_percentile_leaves_ten_requests_beyond_it():
    for requests in (29, 30, 40, 86):
        p = worker.tail_percentile(requests)
        assert requests * worker.MIN_PASSES * (1 - p / 100) >= 10 - 1e-9
