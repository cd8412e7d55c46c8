"""The benchmark's requests: how each workload's inputs are made from a seed,
how a request is sent to qfock, and how its answer is checked.

A sweep request is one ``qfock sweep`` invocation over one q column; each
cell of it is one op.  A verify request is one ``qfock verify`` at one
(scheme, q, dim), and an entropy request is one closed/Shannon/reduced
cross-check on one paired state; each is one op.

Parameters are drawn by stratified sampling (one jittered value per
equal-width stratum), so every seed sends the same mix of work and only
the exact values move.  Sweep cells are placed by their convergence
figure s = max(q, 1/q) r rather than by xi or theta directly, which gives
every q column the same series lengths.

Defect probes are the known failures of ROADMAP item 1, each sent as a
single-cell request and tagged with the failure it reproduces, so that
one of them never takes a bulk column down with it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
import traceback
from dataclasses import dataclass

import reference

BM_TEXT = "(q^n - q^(-n))/(q - q^(-1))"
QUADRATIC_TEXT = "n + (q - 1)*n*(n - 1)/2"

# Acceptance tolerances (tests/test_acceptance.py criteria 1, 3, 4 and 6).
NBAR_TOL = 1e-10
VARIANCE_TOL = 1e-10
ENTROPY_CLOSED_TOL = 1e-12
ENTROPY_SERIES_TOL = 1e-8
RESIDUAL_TOL = 1e-10
REDUCED_TOL = 1e-12
TAIL_TOL = 1e-12

# Bulk cells stay at s <= 0.95: above it the series needs enough terms to
# overflow q^n or to outrun the 32-step divergence rule (ROADMAP item 1),
# which is what the tagged band probes measure.
BULK_S = 0.95
EXPR_S = 0.9  # the quadratic law's n^2 r^n front is longer than n r^n's

# Failure classes.  A probe may fail with any of the first three; a wrong
# value is a known defect only for the early-stop probe.
EXIT = "exit"  # raised, or exited non-zero
LABEL = "label"  # convergent/divergent label contradicts the reference
NO_VALUE = "no-value"  # no mean where the reference converges
VALUE = "value"  # deviates beyond the acceptance tolerance
KNOWN_DEFECT_CLASSES = (EXIT, LABEL, NO_VALUE)

# Defect probe tag -> (failure classes it may show, per-layer counters one
# of which must move when it fails, so that every failure is attributed).
PROBE_TAGS = {
    "overflow": (KNOWN_DEFECT_CLASSES, ("deformation.overflow",)),
    "mislabel": (KNOWN_DEFECT_CLASSES, ("geometric.divergence_raised",)),
    "rejected": (KNOWN_DEFECT_CLASSES, ("deformation.scheme_rejected",)),
    "band": (KNOWN_DEFECT_CLASSES, ("deformation.overflow", "geometric.divergence_raised")),
    # The series stops at the near-zero term where a law with q < 1 changes
    # sign (d(9) = -0.0034 here) and drops a tail of 3e-10 relative.
    "early-stop": (KNOWN_DEFECT_CLASSES + (VALUE,), ("deformation.nonpositive",)),
}


def reference_converges(scheme, ratio: float) -> bool:
    """The reference's verdict on sum d(n) ratio^n for a law the benchmark sends.

    The undeformed and quadratic laws converge for every ratio < 1; the
    symmetric law, built in or as text, iff max(q, 1/q) ratio < 1.
    """
    if scheme.kind == "undeformed" or scheme.source == QUADRATIC_TEXT:
        return True
    return max(scheme.q, 1.0 / scheme.q) * ratio < 1.0


@dataclass(frozen=True)
class Response:
    code: int
    out: str
    err: str

    def digest_text(self) -> str:
        return f"{self.code}\0{self.out}\0{self.err}\0"


@dataclass(frozen=True)
class Op:
    """Outcome of one op: failure class (None when correct) and relative error."""

    failure: str | None
    rel_err: float | None = None


def _run_cli(qfock, argv) -> Response:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = qfock.cli.main(list(argv))
    except Exception:  # a crash is a failed op, not a benchmark crash
        return Response(-1, out.getvalue(), traceback.format_exc())
    return Response(code, out.getvalue(), err.getvalue())


def _float(value) -> float | None:
    if value is None or value == "":
        return None
    return float(value)


def _deviation(got: float, want: float, scale: float) -> float:
    return abs(got - want) / max(abs(scale), abs(want), 1e-300)


@dataclass(frozen=True)
class Cell:
    family: str  # squeezed | thermal
    law: str  # symmetric | undeformed | quadratic
    q: float
    param: float  # xi or theta

    def check(self, row: dict) -> Op:
        if _float(row.get("q")) != self.q or _float(row.get("param")) != self.param:
            return Op(VALUE)
        law = reference.law_for(self.family, self.param)
        if self.law == "quadratic":
            want, scale = reference.quadratic_nbar(law, self.q)
        else:
            want = reference.symmetric_nbar(law, 1.0 if self.law == "undeformed" else self.q)
            scale = want
        series = _float(row.get("nbar_series"))
        claims_convergent = str(row.get("status", "")).split(";")[0] == "convergent"
        entropy_closed = _float(row.get("entropy_closed"))
        entropy_series = _float(row.get("entropy_series"))
        if entropy_closed is None or entropy_series is None:
            return Op(NO_VALUE)
        h = reference.entropy_bits(law)
        if abs(entropy_closed - h) > ENTROPY_CLOSED_TOL * max(1.0, h):
            return Op(VALUE)
        if abs(entropy_series - h) > ENTROPY_SERIES_TOL:
            return Op(VALUE)
        if want is None:
            if claims_convergent or series is not None:
                return Op(LABEL)
            return Op(None)
        if not claims_convergent:
            return Op(LABEL)
        if series is None:
            return Op(NO_VALUE)
        errors = [(_deviation(series, want, scale), NBAR_TOL)]
        closed = _float(row.get("nbar_closed"))
        if closed is not None:
            errors.append((_deviation(closed, want, scale), NBAR_TOL))
        var_scale = reference.variances(law, scale)
        for key, ref, vs in zip(("var1", "var2", "product"), reference.variances(law, want), var_scale):
            got = _float(row.get(key))
            if got is None:
                return Op(NO_VALUE)
            errors.append((_deviation(got, ref, vs), VARIANCE_TOL))
        worst = max(e for e, _ in errors)
        if any(e > tol for e, tol in errors):
            return Op(VALUE, worst)
        return Op(None, worst)


def _parse_rows(fmt: str, text: str) -> list[dict]:
    if fmt == "json":
        return json.loads(text)
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


@dataclass(frozen=True)
class SweepRequest:
    family: str
    scheme: str  # CLI descriptor
    q: float
    cells: tuple[Cell, ...]
    fmt: str
    tag: str | None = None  # expected failure of a defect probe

    @property
    def argv(self) -> tuple[str, ...]:
        key = "--xi" if self.family == "squeezed" else "--theta"
        params = ",".join(repr(c.param) for c in self.cells)
        return (
            "sweep", self.family, "--scheme", self.scheme, "--q", repr(self.q),
            key, params, "--format", self.fmt,
        )  # fmt: skip

    def send(self, qfock) -> Response:
        return _run_cli(qfock, self.argv)

    def check(self, response: Response) -> list[Op]:
        if response.code != 0:
            return [Op(EXIT)] * len(self.cells)
        try:
            rows = _parse_rows(self.fmt, response.out)
        except (ValueError, IndexError):
            return [Op(VALUE)] * len(self.cells)
        if len(rows) != len(self.cells):
            return [Op(VALUE)] * len(self.cells)
        return [cell.check(row) for cell, row in zip(self.cells, rows)]


_RESIDUAL_LINE = re.compile(r"^\s+(\w+)\s+(\S+)\s+(PASS|FAIL)$")


@dataclass(frozen=True)
class VerifyRequest:
    scheme: str
    q: float
    dim: int
    tag = None

    @property
    def argv(self) -> tuple[str, ...]:
        return (
            "verify", "--scheme", self.scheme, "--q", repr(self.q),
            "--dims", str(self.dim), "--tol", repr(RESIDUAL_TOL),
        )  # fmt: skip

    def send(self, qfock) -> Response:
        return _run_cli(qfock, self.argv)

    def check(self, response: Response) -> list[Op]:
        if response.code not in (0, 2):
            return [Op(EXIT)]
        residuals = [float(m.group(2)) for m in map(_RESIDUAL_LINE.match, response.out.splitlines()) if m]
        if len(residuals) < 5 or not response.out.endswith("overall: PASS\n"):
            return [Op(VALUE, max(residuals, default=None))]
        worst = max(residuals)
        return [Op(None if response.code == 0 and worst < RESIDUAL_TOL else VALUE, worst)]


@dataclass(frozen=True)
class EntropyRequest:
    """Closed, Shannon and reduced-density-matrix entropy of one geometric state."""

    family: str
    param: float
    tag = None

    def send(self, qfock) -> Response:
        plain = qfock.DeformationScheme.undeformed()
        try:
            if self.family == "squeezed":
                spec = qfock.SqueezedSpec(xi=self.param, scheme=plain, tail_tol=TAIL_TOL)
                probs = qfock.squeezed_probabilities(spec)
                closed = qfock.entanglement_entropy_closed(self.param)
            else:
                spec = qfock.ThermalSpec(theta=self.param, scheme=plain, tail_tol=TAIL_TOL)
                probs = qfock.thermal_probabilities(spec)
                closed = qfock.thermal_entropy_bits(self.param)
            shannon = qfock.shannon_entropy_bits(probs)
            reduced = qfock.reduced_entropy_bits(qfock.from_probabilities(probs, TAIL_TOL))
        except Exception:
            return Response(-1, "", traceback.format_exc())
        return Response(0, f"{closed!r} {shannon!r} {reduced!r} {len(probs)}\n", "")

    def check(self, response: Response) -> list[Op]:
        if response.code != 0:
            return [Op(EXIT)]
        closed, shannon, reduced = (float(v) for v in response.out.split()[:3])
        h = reference.entropy_bits(reference.law_for(self.family, self.param))
        closed_err = abs(closed - h) / max(1.0, h)
        reduced_err = abs(shannon - reduced) / max(1.0, h)
        ok = (
            closed_err <= ENTROPY_CLOSED_TOL
            and abs(closed - shannon) <= ENTROPY_SERIES_TOL
            and abs(shannon - reduced) <= REDUCED_TOL
        )
        return [Op(None if ok else VALUE, max(closed_err, reduced_err))]


# ----------------------------------------------------------------- inputs


def _strata(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """One value per equal-width stratum of [lo, hi], inside its middle 40%.

    The narrow jitter keeps the cost of every request, and so the latency
    quantiles, nearly the same from seed to seed.
    """
    width = (hi - lo) / count
    return [lo + (k + rng.uniform(0.3, 0.7)) * width for k in range(count)]


def _q_columns(rng: random.Random, count: int) -> list[float]:
    """q spread evenly in ln q over [1/2, 2]; the jitter keeps
    |q - 1| >= 0.3 * ln(4) / count."""
    return [math.exp(lam) for lam in _strata(rng, count, -math.log(2.0), math.log(2.0))]


def _param(family: str, r: float) -> float:
    return math.atanh(math.sqrt(r)) if family == "squeezed" else -math.log(r)


def _cells(family: str, law: str, q: float, s_values) -> tuple[Cell, ...]:
    peak = 1.0 if law in ("undeformed", "quadratic") else max(q, 1.0 / q)
    return tuple(Cell(family, law, q, _param(family, s / peak)) for s in s_values)


def _grid_sweep(rng: random.Random, family: str, fmt: str) -> list:
    """Few q columns, many params each: symmetric and undeformed schemes."""
    requests = []
    for q in _q_columns(rng, 16):
        cells = _cells(family, "symmetric", q, _strata(rng, 96, 0.0, BULK_S))
        peak = max(q, 1.0 / q)
        if peak >= 1.25:  # divergent corner: the label must say so
            r_values = _strata(rng, 2, 1.05 / peak, BULK_S)
            cells += tuple(Cell(family, "symmetric", q, _param(family, r)) for r in r_values)
        requests.append(SweepRequest(family, "bm", q, cells, fmt))
    for q in _q_columns(rng, 8):
        cells = _cells(family, "undeformed", q, _strata(rng, 96, 0.0, BULK_S))
        requests.append(SweepRequest(family, "undeformed", q, cells, fmt))
    for q, s in zip(_q_columns(rng, 2), _strata(rng, 2, 0.955, 0.995)):
        cells = _cells(family, "symmetric", q, [s])
        requests.append(SweepRequest(family, "bm", q, cells, fmt, tag="band"))
    return requests


def _probe(family: str, scheme: str, q: float, param: float, fmt: str, tag: str) -> SweepRequest:
    law = "undeformed" if scheme == "undeformed" else "symmetric"
    return SweepRequest(family, scheme, q, (Cell(family, law, q, param),), fmt, tag)


def sweep_squeezed(rng: random.Random) -> list:
    return _grid_sweep(rng, "squeezed", "csv") + [
        _probe("squeezed", "bm", 2.0, 0.87, "csv", "overflow"),
        _probe("squeezed", "undeformed", 1.0, 2.5, "csv", "mislabel"),
        _probe("squeezed", "undeformed", 1.0, 3.0, "csv", "mislabel"),
    ]


def sweep_thermal(rng: random.Random) -> list:
    return _grid_sweep(rng, "thermal", "json") + [
        _probe("thermal", "bm", 2.0, 0.71, "json", "overflow"),
        _probe("thermal", "bm", 1.01, 0.02, "json", "mislabel"),
    ]


def sweep_expr(rng: random.Random) -> list:
    """Many q columns, few params each, both families, expression laws.

    The quadratic law takes q in [1, 2] and q = 1: below 1 it changes sign,
    which the early-stop probe covers.
    """
    requests = []
    for family, fmt in (("squeezed", "csv"), ("thermal", "json")):
        for law, text in (("symmetric", BM_TEXT), ("quadratic", QUADRATIC_TEXT)):
            if law == "symmetric":
                q_values = _q_columns(rng, 40)
            else:
                q_values = [1.0] + [math.exp(lam) for lam in _strata(rng, 40, 0.0, math.log(2.0))]
            for q in q_values:
                cells = _cells(family, law, q, _strata(rng, 5, 0.0, EXPR_S))
                requests.append(SweepRequest(family, "expr:" + text, q, cells, fmt))
        # the symmetric law as text cannot be probed at q = 1 (0/0)
        cells = _cells(family, "symmetric", 1.0, _strata(rng, 1, 0.0, EXPR_S))
        requests.append(SweepRequest(family, "expr:" + BM_TEXT, 1.0, cells, fmt, tag="rejected"))
    cell = Cell("squeezed", "quadratic", 0.7499, 0.3)
    requests.append(SweepRequest("squeezed", "expr:" + QUADRATIC_TEXT, 0.7499, (cell,), "csv", "early-stop"))
    return requests


def oracle(rng: random.Random) -> list:
    """Ladder algebra at dims 64..512 and entropy routes at cutoffs 50..600.

    Dim 256 is sent three times per round so that its 18 checks hold the
    median request, as the dense products hold most of the time: the 20
    cheaper requests (dims 64 and 128, entropy checks) are 45% of them.
    """
    requests = []
    bm_q = iter(_q_columns(rng, 12))
    quadratic_q = iter(math.exp(lam) for lam in _strata(rng, 12, 0.0, math.log(2.0)))
    for _ in range(2):
        for dim in (64, 128, 256, 256, 256, 512):
            requests.append(VerifyRequest("undeformed", 1.0, dim))
            requests.append(VerifyRequest("bm", next(bm_q), dim))
            requests.append(VerifyRequest("expr:" + QUADRATIC_TEXT, next(quadratic_q), dim))
    for k, cutoff in enumerate(_strata(rng, 8, 50.0, 600.0)):
        family = ("squeezed", "thermal")[k % 2]
        r = TAIL_TOL ** (1.0 / (cutoff + 1.0))
        requests.append(EntropyRequest(family, _param(family, r)))
    return requests


# Calibration task of each workload (calibrate.TASKS), where not "python":
# oracle's time goes mostly to dense products (see calibrate.py).
CALIBRATION = {"oracle": "blas"}

WORKLOADS = {
    "sweep_squeezed": sweep_squeezed,
    "sweep_thermal": sweep_thermal,
    "sweep_expr": sweep_expr,
    "oracle": oracle,
}


def build(name: str, seed: int) -> list:
    """The workload's request list for a seed, in a seeded send order."""
    rng = random.Random(f"{name}:{seed}")
    requests = WORKLOADS[name](rng)
    rng.shuffle(requests)
    return requests
