"""Command-line front end: parameter sweeps, algebra checks, operator dumps.

Subcommands::

    qfock sweep squeezed --scheme bm --q 0.5,2 --xi 0.1,1 [--format csv|json]
    qfock sweep thermal  --scheme bm --q 2 --theta 1,2,3
    qfock verify --scheme bm --q 2 --dims 16,64 [--tol 1e-10]
    qfock ops annihilation --scheme undeformed --dim 4
    qfock parse "(q^n - q^(-n))/(q - q^(-1))" [--q 2 --n 3]

Number lists come from flag text ("0.5,2"; "-1,1" is a value, not an
option) or from the JSON object of a sweep's ``--config`` (keys: the sweep
options; flags win).  Every q and ``verify --tol`` must be finite and
positive, and ``parse --n`` a nonnegative integer.

Exit codes: 0 success, 1 usage/parse error, 2 verification failure,
3 I/O error.  Sweep output is deterministic: fixed row order (q-major,
parameter-minor) and shortest round-trip number formatting, so repeated
runs are byte-identical.  Rows in divergent corners of a grid are flagged
in the status column instead of aborting the batch.  These cells still
abort it with exit 1: a d(n) overflow (``sweep thermal --scheme bm --q 2
--theta 0.71``, ``sweep squeezed --scheme bm --q 2 --xi 0.87``), variances
that overflow (``sweep squeezed --scheme "expr:n + 1e307*n*(n - 1)" --xi
0.03``), an ``expr:`` law rejected at one q, a ratio that rounds to 1
(``--xi 20``, ``--theta 1e-17``) and |xi| > 354.89.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import dataclass, fields

from .deformation import CUSTOM, DeformationScheme
from .expressions import EvaluationError, evaluate_tree, parse_deformation, render
from .fock_matrix import (
    annihilation_matrix,
    creation_matrix,
    identity_matrix,
    number_matrix,
    verify_algebra,
)
from .geometric import DivergenceError, GeometricLaw
from .paired_state import _distribution_entropy_bits
from .squeezed import SqueezedSpec, nbar_series, squeezed_probabilities
from .thermal import ThermalSpec, thermal_nbar_series, thermal_probabilities

__all__ = ["SweepSpec", "ResultRow", "run_sweep", "run_verify", "run_ops_dump", "main"]

# Flag when series and closed-form means disagree beyond this, relative to
# the closed mean.
_MISMATCH_TOL = 1e-8

# Largest truncation that `ops` dumps and `verify` certifies.
_MAX_DIM = 512

_OPERATORS = ("annihilation", "creation", "number", "identity")

# The keys a sweep config may hold, and the JSON types each may take.
_CONFIG_TYPES = {
    "scheme": ((str,), "a string"),
    "q": ((str, int, float, list), "a string, a number or a list"),
    "xi": ((str, int, float, list), "a string, a number or a list"),
    "theta": ((str, int, float, list), "a string, a number or a list"),
    "tail_tol": ((int, float), "a number"),
    "format": ((str,), "a string"),
    "out": ((str, type(None)), "a string or null"),
}


@dataclass(frozen=True)
class SweepSpec:
    """One sweep request: Cartesian product of q values and parameters."""

    family: str  # "squeezed" or "thermal"
    scheme: str  # descriptor: undeformed | bm | expr:<text>
    q_values: tuple[float, ...]
    param_values: tuple[float, ...]  # xi for squeezed, theta for thermal
    tail_tol: float = 1e-12

    def __post_init__(self):
        if self.family not in ("squeezed", "thermal"):
            raise ValueError(f"unknown sweep family {self.family!r}")
        if not self.q_values or not self.param_values:
            raise ValueError("q and parameter value lists must be non-empty")
        GeometricLaw._check_tail_tol(self.tail_tol)


@dataclass(frozen=True)
class ResultRow:
    q: float
    param: float
    nbar_series: float | None
    nbar_closed: float | None
    var1: float | None
    var2: float | None
    product: float | None
    entropy_closed: float
    entropy_series: float | None
    cutoff: int
    tail_bound: float
    status: str

    def as_dict(self) -> dict:
        """The row keyed by ``ROW_FIELDS``, in that order (a shallow copy of
        the instance dict, which the dataclass fills in field order)."""
        return self.__dict__.copy()


ROW_FIELDS = tuple(f.name for f in fields(ResultRow))
CSV_HEADER = ",".join(ROW_FIELDS)


def resolve_scheme(descriptor: str, q: float) -> DeformationScheme:
    """Map a CLI scheme descriptor to a DeformationScheme; q must be finite
    and > 0 for every descriptor, so ``undeformed`` rejects a q it ignores."""
    DeformationScheme._checked_q(q)
    if descriptor == "undeformed":
        return DeformationScheme.undeformed()
    if descriptor in ("bm", "biedenharn-macfarlane"):
        return DeformationScheme.biedenharn_macfarlane(q)
    if descriptor.startswith("expr:"):
        return DeformationScheme.custom(descriptor[len("expr:") :], q)
    raise ValueError(f"unknown scheme {descriptor!r} (use undeformed, bm, or expr:<text>)")


def _compute_row(
    family: str, scheme: DeformationScheme, q: float, param: float, tail_tol: float
) -> ResultRow:
    # The builders are looked up here, at call time, so wrappers installed
    # on this module's names (layer tracing) see every call.
    if family == "squeezed":
        spec = SqueezedSpec(xi=param, scheme=scheme, tail_tol=tail_tol)
        probabilities, series_of = squeezed_probabilities, nbar_series
    else:
        spec = ThermalSpec(theta=param, scheme=scheme, tail_tol=tail_tol)
        probabilities, series_of = thermal_probabilities, thermal_nbar_series
    law = spec.law
    probs = probabilities(spec)
    cutoff = len(probs) - 1
    tail_bound = law.r ** (cutoff + 1)

    # The probability cutoff is the smallest one meeting tail_tol, or the
    # term cap; only a capped one leaves a larger tail.
    flags = ["cutoff-capped"] if tail_bound > tail_tol else []
    series = None
    try:
        series = series_of(spec)
    except DivergenceError:
        pass

    # The symmetric closed form covers the undeformed scheme as q = 1.
    closed = None
    if scheme.kind != CUSTOM:
        try:
            closed = law.symmetric_nbar(scheme.q)
        except DivergenceError:
            pass
    if closed is None:
        flags.append("closed-form-skipped")

    var1 = var2 = product = None
    if series is not None:
        var1, var2, product = law.variances(series)

    # The law's list is finite and nonnegative as built; only its total,
    # short of 1 by the tail, can fail the distribution check.
    entropy_series = None
    try:
        entropy_series = _distribution_entropy_bits(probs)
    except ValueError:
        flags.append("entropy-skipped")

    if series is not None and closed is not None:
        if abs(series - closed) > _MISMATCH_TOL * abs(closed):
            flags.append("mismatch")

    status = ";".join(["divergent" if series is None else "convergent"] + flags)
    return ResultRow(
        q=float(q),
        param=float(param),
        nbar_series=series,
        nbar_closed=closed,
        var1=var1,
        var2=var2,
        product=product,
        entropy_closed=law.entropy_bits(),
        entropy_series=entropy_series,
        cutoff=cutoff,
        tail_bound=tail_bound,
        status=status,
    )


def run_sweep(spec: SweepSpec) -> list[ResultRow]:
    """One row per (q, parameter) pair, q-major then parameter-minor."""
    rows = []
    for q in spec.q_values:
        scheme = resolve_scheme(spec.scheme, q)
        for param in spec.param_values:
            rows.append(_compute_row(spec.family, scheme, q, param, spec.tail_tol))
    return rows


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_csv(rows: list[ResultRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row.as_dict().values()))
    return "\n".join(lines) + "\n"


# Encodes a row as json.dumps(rows, indent=2) writes it, less the line
# breaks after "{" and before "}", which render_json adds.  json runs its C
# encoder only when indent is None.
_ROW_ENCODER = json.JSONEncoder(separators=(",\n    ", ": "))


def render_json(rows: list[ResultRow]) -> str:
    """The bytes of ``json.dumps([row dicts], indent=2) + "\\n"``."""
    if not rows:
        return "[]\n"
    encode = _ROW_ENCODER.encode
    body = ",\n  ".join("{\n    " + encode(row.as_dict())[1:-1] + "\n  }" for row in rows)
    return "[\n  " + body + "\n]\n"


def run_verify(
    descriptor: str, q_values: list[float], dims: list[int], tol: float
) -> tuple[str, int]:
    """Residual report over (q, dim) pairs, each dim in [2, 512] (checked
    before any scheme is built); exit code 0 iff all pass tol."""
    bad = [d for d in dims if not 2 <= d <= _MAX_DIM]
    if bad:
        raise ValueError(f"--dims values must lie between 2 and {_MAX_DIM}, got {bad[0]}")
    lines = []
    all_passed = True
    for q in q_values:
        scheme = resolve_scheme(descriptor, q)
        for dim in dims:
            report = verify_algebra(scheme, dim, tol)
            lines.append(f"scheme={scheme.label} q={_cell(scheme.q)} dim={dim}")
            for name, residual in report.residuals.items():
                verdict = "PASS" if residual < tol else "FAIL"
                lines.append(f"  {name:<24} {residual:.3e}  {verdict}")
            all_passed = all_passed and report.passed
    lines.append("overall: " + ("PASS" if all_passed else "FAIL"))
    return "\n".join(lines) + "\n", 0 if all_passed else 2


def run_ops_dump(descriptor: str, q: float, dim: int, operator: str) -> str:
    """JSON dump of one truncated operator matrix."""
    if operator not in _OPERATORS:
        raise ValueError(
            f"unknown operator {operator!r} (choose from {', '.join(_OPERATORS)})"
        )
    if not 1 <= dim <= _MAX_DIM:
        raise ValueError(f"dim must lie between 1 and {_MAX_DIM}, got {dim}")
    scheme = resolve_scheme(descriptor, q)
    if operator in ("annihilation", "creation"):
        build = annihilation_matrix if operator == "annihilation" else creation_matrix
        op = build(scheme, dim)
    else:
        op = number_matrix(dim) if operator == "number" else identity_matrix(dim)
    payload = {
        "scheme": scheme.label,
        "q": scheme.q,
        "dim": dim,
        "operator": operator,
        "entries": op.entries,
    }
    return json.dumps(payload) + "\n"


def _numbers(value, name: str, kind=float) -> tuple:
    """Flag text ("0.5,2"), a JSON number, or a JSON list of numbers or
    numeric text, as a non-empty tuple of ``kind``; errors name ``name``."""
    if isinstance(value, str):
        value = [s for s in value.split(",") if s.strip()]
    elif not isinstance(value, list):
        value = [] if value is None else [value]
    if not value:
        raise ValueError(f"{name} needs at least one value")
    numbers = []
    for item in value:
        try:
            if isinstance(item, bool):  # kind(True) would read as 1
                raise TypeError
            numbers.append(kind(item))
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"{name} takes {kind.__name__} values, got {item!r}") from None
    return tuple(numbers)


def _load_config(path: str) -> dict:
    with open(path) as fh:
        raw = fh.read()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid config {path!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"config {path!r} must hold a JSON object")
    return data


def _pick(args, config: dict, key: str, default, read=None):
    """The flag's value, else the config's (its JSON type checked), else the
    default; ``read(value, name)`` converts it, naming where it came from."""
    value, name = getattr(args, key), "--" + key.replace("_", "-")
    if value is None and key in config:
        value, name = config[key], f"config key {key!r}"
        kinds, expected = _CONFIG_TYPES[key]
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise ValueError(f"{name} must be {expected}, got {value!r}")
    elif value is None:
        value = default
    return value if read is None else read(value, name)


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _cmd_sweep(args) -> int:
    config = _load_config(args.config) if args.config else {}
    for name in config:
        if name not in _CONFIG_TYPES:
            raise ValueError(f"config key {name!r} is not a sweep option")
    key, other = ("xi", "theta") if args.family == "squeezed" else ("theta", "xi")
    if getattr(args, other) is not None:
        raise ValueError(f"use --{key} with {args.family} sweeps")
    fmt = _pick(args, config, "format", "csv")
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown output format {fmt!r}")
    out = _pick(args, config, "out", None)
    spec = SweepSpec(
        family=args.family,
        scheme=_pick(args, config, "scheme", "undeformed"),
        q_values=_pick(args, config, "q", "1", _numbers),
        param_values=_pick(args, config, key, None, _numbers),
        tail_tol=float(_pick(args, config, "tail_tol", 1e-12)),
    )
    rows = run_sweep(spec)
    _emit(render_csv(rows) if fmt == "csv" else render_json(rows), out)
    return 0


def _cmd_verify(args) -> int:
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise ValueError(f"--tol must be finite and positive, got {args.tol!r}")
    dims = list(_numbers(args.dims, "--dims", int))
    text, code = run_verify(args.scheme, list(_numbers(args.q, "--q")), dims, args.tol)
    sys.stdout.write(text)
    return code


def _cmd_ops(args) -> int:
    sys.stdout.write(run_ops_dump(args.scheme, args.q, args.dim, args.operator))
    return 0


def _cmd_parse(args) -> int:
    tree = parse_deformation(args.expression)
    payload = {"source": args.expression, "canonical": render(tree)}
    if args.q is not None or args.n is not None:
        if args.q is None or args.n is None:
            raise ValueError("--q and --n must be given together")
        q, n = DeformationScheme._checked_q(args.q), DeformationScheme._checked_n(args.n)
        payload["value"] = evaluate_tree(tree, q, float(n))
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


_NEGATIVE_VALUE = re.compile(r"-\.?\d")  # "-1,1", "-.5", "-1e-3": a value


class _ArgumentParser(argparse.ArgumentParser):
    """Raises ValueError instead of exiting.  ``values`` matches the text
    that starts with '-' yet is a value, not an option.  By default that is
    text that starts with a number: argparse's own rule takes only "-1" or
    "-1.5", so "--xi -1,1" lacked its value.  ``parse`` takes any text
    after one '-', so "qfock parse -n+2*n" reads the expression.  A
    single-dash option would claim such text by its prefix, so ``parse``
    keeps to '--' options but -h, and no law starts with 'h'."""

    def __init__(self, *args, values: re.Pattern = _NEGATIVE_VALUE, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = values

    def error(self, message):
        raise ValueError(message)


@functools.cache
def _build_parser() -> _ArgumentParser:
    """The parser, built on the first ``main`` call and reused after it."""
    parser = _ArgumentParser(prog="qfock", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="parameter sweep to CSV/JSON")
    sweep.add_argument("family", choices=["squeezed", "thermal"])
    sweep.add_argument("--scheme", help="undeformed | bm | expr:<text>")
    sweep.add_argument("--q", help="comma-separated deformation parameters")
    sweep.add_argument("--xi", help="comma-separated squeezing parameters")
    sweep.add_argument("--theta", help="comma-separated beta*omega values")
    sweep.add_argument("--tail-tol", dest="tail_tol", type=float)
    sweep.add_argument("--format", choices=["csv", "json"])
    sweep.add_argument("--out", help="output path (default stdout)")
    sweep.add_argument("--config", help="JSON file with sweep defaults")
    sweep.set_defaults(func=_cmd_sweep)

    verify = sub.add_parser("verify", help="check the ladder algebra residuals")
    verify.add_argument("--scheme", default="undeformed")
    verify.add_argument("--q", default="1")
    verify.add_argument("--dims", default="16,64")
    verify.add_argument("--tol", type=float, default=1e-10)
    verify.set_defaults(func=_cmd_verify)

    ops = sub.add_parser("ops", help="dump one operator matrix as JSON")
    ops.add_argument("operator")
    ops.add_argument("--scheme", default="undeformed")
    ops.add_argument("--q", type=float, default=1.0)
    ops.add_argument("--dim", type=int, required=True)
    ops.set_defaults(func=_cmd_ops)

    parse = sub.add_parser(
        "parse", help="validate a deformation expression", values=re.compile("-(?!-)")
    )
    parse.add_argument("expression")
    parse.add_argument("--q", type=float)
    parse.add_argument("--n", type=int)
    parse.set_defaults(func=_cmd_parse)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, EvaluationError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
