"""Command-line interface: sweeps, verification, dumps, exit codes."""

import json
import math
import re
import tracemalloc
from dataclasses import fields

import pytest

from qfock import (
    DeformationScheme,
    SqueezedSpec,
    ThermalSpec,
    cli,
    shannon_entropy_bits,
    squeezed_probabilities,
    thermal_probabilities,
)
from qfock.cli import (
    CSV_HEADER,
    ResultRow,
    SweepSpec,
    main,
    render_json,
    resolve_scheme,
    run_sweep,
    run_verify,
)

XI_UNIT = 1.0
THETA_R03 = math.log(10.0 / 3.0)


def _assert_usage_error(captured, name):
    # exit 1 is checked by the caller; the message must name the bad input
    assert captured.err.startswith("error:")
    assert name in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def _assert_one_error_line(captured, line):
    assert captured.err == line + "\n"
    assert captured.out == ""


def _rows_from_csv(text):
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    return [line.split(",") for line in lines[1:]]


def test_csv_header_is_pinned():
    assert CSV_HEADER == (
        "q,param,nbar_series,nbar_closed,var1,var2,product,"
        "entropy_closed,entropy_series,cutoff,tail_bound,status"
    )


def test_sweep_squeezed_reference_row(capsys):
    assert main(["sweep", "squeezed", "--q", "1", "--xi", "1"]) == 0
    rows = _rows_from_csv(capsys.readouterr().out)
    assert len(rows) == 1
    row = rows[0]
    assert float(row[4]) == pytest.approx(math.exp(2.0) / 4.0, abs=1e-10)
    assert float(row[6]) == pytest.approx(1.0 / 16.0, abs=1e-10)
    assert row[11] == "convergent"


def test_sweep_thermal_divergent_row_is_flagged(capsys):
    assert main(["sweep", "thermal", "--scheme", "bm", "--q", "2", "--theta", "0.5"]) == 0
    row = _rows_from_csv(capsys.readouterr().out)[0]
    assert row[2] == ""  # no series value
    assert row[3] == ""  # no closed form
    assert row[11] == "divergent;closed-form-skipped"


@pytest.mark.parametrize(
    "q,theta",
    [("2.2675996019949465", "0.8187218279498036"), ("7.206394345081872", "1.9749687353750394")],
)
def test_ulp_split_cell_prints_no_closed_mean_beside_divergent(capsys, q, theta):
    # max(q, 1/q) r rounds to 1.0 in the first cell, so the series' verdict
    # is divergent; in the second it is 0.9999999999999999 and 1 - q r
    # rounds to 0, so the series passes the term cap and the closed form
    # is lost.  Either way the row has no mean.
    assert main(["sweep", "thermal", "--scheme", "bm", "--q", q, "--theta", theta]) == 0
    row = _rows_from_csv(capsys.readouterr().out)[0]
    assert row[2] == row[3] == ""
    assert row[11] == "divergent;closed-form-skipped"


def test_sweep_thermal_convergent_bm_row(capsys):
    code = main(
        ["sweep", "thermal", "--scheme", "bm", "--q", "2", "--theta", str(THETA_R03)]
    )
    assert code == 0
    row = _rows_from_csv(capsys.readouterr().out)[0]
    assert float(row[2]) == pytest.approx(21.0 / 34.0, abs=1e-8)
    assert float(row[3]) == pytest.approx(21.0 / 34.0, abs=1e-8)
    assert row[11] == "convergent"


def test_sweep_custom_scheme_skips_closed_form(capsys):
    assert main(["sweep", "squeezed", "--scheme", "expr:n", "--xi", "0.7"]) == 0
    custom_row = _rows_from_csv(capsys.readouterr().out)[0]
    assert main(["sweep", "squeezed", "--scheme", "undeformed", "--xi", "0.7"]) == 0
    plain_row = _rows_from_csv(capsys.readouterr().out)[0]
    assert custom_row[11] == "convergent;closed-form-skipped"
    assert float(custom_row[2]) == pytest.approx(float(plain_row[2]), abs=1e-12)


def test_sweep_row_order_is_q_major(capsys):
    assert main(["sweep", "squeezed", "--q", "2,0.5", "--xi", "0.3,0.1"]) == 0
    rows = _rows_from_csv(capsys.readouterr().out)
    assert [(r[0], r[1]) for r in rows] == [
        ("2.0", "0.3"),
        ("2.0", "0.1"),
        ("0.5", "0.3"),
        ("0.5", "0.1"),
    ]


def test_sweep_vacuum_row(capsys):
    assert main(["sweep", "squeezed", "--xi", "0"]) == 0
    row = _rows_from_csv(capsys.readouterr().out)[0]
    assert float(row[2]) == 0.0
    assert float(row[4]) == 0.25
    assert float(row[6]) == 0.0625
    assert row[8] == "0.0"
    assert row[9] == "0"


@pytest.mark.parametrize("theta", [709.8, 710.0, 745.0, 746.0, 800.0])
def test_sweep_thermal_vacuum_limit_row(capsys, theta):
    # e^-theta is subnormal or zero here; 1/expm1(theta) and e^(theta/2)
    # would overflow, so the row must come from the law's ratio instead
    args = ["sweep", "thermal", "--scheme", "bm", "--q", "1.5", "--theta", str(theta)]
    assert main(args) == 0
    row = _rows_from_csv(capsys.readouterr().out)[0]
    assert row[11] == "convergent"
    assert abs(float(row[4]) - 0.25) <= 1e-12
    assert abs(float(row[5]) - 0.25) <= 1e-12
    assert abs(float(row[6]) - 1.0 / 16.0) <= 1e-12
    assert 0.0 <= float(row[7]) < 1e-300


def test_sweep_loose_tail_flags_entropy(capsys):
    assert main(["sweep", "squeezed", "--xi", "2", "--tail-tol", "1e-3"]) == 0
    row = _rows_from_csv(capsys.readouterr().out)[0]
    assert "entropy-skipped" in row[11]
    assert row[8] == ""


def _law_list(family, param, tail_tol):
    """The probability list a sweep row builds for its cell."""
    scheme = DeformationScheme.undeformed()
    if family == "squeezed":
        return squeezed_probabilities(SqueezedSpec(xi=param, scheme=scheme, tail_tol=tail_tol))
    return thermal_probabilities(ThermalSpec(theta=param, scheme=scheme, tail_tol=tail_tol))


# r^20 = 1.000001e-9: cut at N = 19 (tail_tol 1.00001e-9) the list falls
# short of 1 by just over the 1e-9 that a distribution may; cut at N = 20
# (tail_tol 1e-9) it does not.
_EDGE_R = 1.000001e-9 ** (1 / 20)
_EDGE = {"squeezed": math.atanh(math.sqrt(_EDGE_R)), "thermal": -math.log(_EDGE_R)}
# Thermal thetas with the ratios of xi = 1.5 and 2, whose lists cut at
# 5e-324 end in P_n that round to 0.0; xi = 8 and theta = 1e-7 are capped.
_ENTROPY_PARAMS = {
    "squeezed": (0.05, 0.3, 1.0, 1.5, 2.0, 2.5, 8.0, _EDGE["squeezed"]),
    "thermal": (
        *(-2 * math.log(math.tanh(xi)) for xi in (1.5, 2.0)),
        1e-7,
        1.0,
        3.0,
        20.0,
        _EDGE["thermal"],
    ),
}


@pytest.mark.parametrize("tail_tol", [1e-12, 1e-9, 1.00001e-9, 1e-3, 5e-324])
@pytest.mark.parametrize("family", ["squeezed", "thermal"])
def test_row_entropy_is_the_shannon_entropy_of_its_law(family, tail_tol):
    # the row checks only its list's total; the public function checks all
    params = _ENTROPY_PARAMS[family]
    rows = run_sweep(SweepSpec(family, "undeformed", (1.0,), params, tail_tol))
    for param, row in zip(params, rows):
        try:
            entropy, skipped = shannon_entropy_bits(_law_list(family, param, tail_tol)), False
        except ValueError:
            entropy, skipped = None, True
        assert repr(row.entropy_series) == repr(entropy), param
        assert ("entropy-skipped" in row.status.split(";")) == skipped, param


@pytest.mark.parametrize(
    "family,param,tail_tol,skipped",
    [
        ("squeezed", _EDGE["squeezed"], 1e-9, False),
        ("squeezed", _EDGE["squeezed"], 1.00001e-9, True),
        ("thermal", _EDGE["thermal"], 1e-9, False),
        ("thermal", _EDGE["thermal"], 1.00001e-9, True),
        ("squeezed", 2.0, 1e-3, True),
        ("thermal", 1.0, 1e-3, True),
        ("squeezed", 1.5, 5e-324, False),
        ("squeezed", 2.0, 5e-324, False),
        ("squeezed", 8.0, 1e-12, True),
        ("thermal", 1e-7, 1e-12, True),
    ],
)
def test_row_entropy_skipped_only_where_the_list_is_short(family, param, tail_tol, skipped):
    probs = _law_list(family, param, tail_tol)
    # the 5e-324 lists end in zeros, which the entropy sum must pass over
    assert (0.0 in probs) == (tail_tol == 5e-324)
    row = run_sweep(SweepSpec(family, "undeformed", (1.0,), (param,), tail_tol))[0]
    assert ("entropy-skipped" in row.status.split(";")) == skipped
    assert (row.entropy_series is None) == skipped


@pytest.mark.parametrize("family,param", [("squeezed", 9.5), ("thermal", 1e-7)])
def test_sweep_cell_past_the_term_cap_is_one_flagged_row(family, param):
    # uncapped, these cutoffs ask for 1.2e9 and 2.8e8 probabilities
    spec = SweepSpec(family, "undeformed", (1.0,), (param,))
    tracemalloc.start()
    try:
        rows = run_sweep(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 1
    row = rows[0]
    assert "cutoff-capped" in row.status.split(";")
    assert row.cutoff == 200_000
    assert row.tail_bound > spec.tail_tol
    assert peak < 32 * 2**20


def test_natural_cutoff_at_the_cap_is_not_flagged():
    # r^(N + 1) = tol at N = 200,000.5: the smallest N meeting tol is the cap
    tol = 1e-12
    theta = -math.log(tol) / 200_000.5
    r = math.exp(-theta)
    assert r**200_001 <= tol < r**200_000
    row = run_sweep(SweepSpec("thermal", "undeformed", (1.0,), (theta,), tol))[0]
    assert row.cutoff == 200_000
    assert row.tail_bound <= tol
    assert "cutoff-capped" not in row.status.split(";")


def test_sweep_flags_series_closed_disagreement(capsys):
    # a coarse tail tolerance leaves the series several orders short of the
    # closed form, which the row must report rather than hide
    code = main(
        ["sweep", "squeezed", "--scheme", "bm", "--q", "2", "--xi", "0.61", "--tail-tol", "1e-2"]
    )
    assert code == 0
    row = _rows_from_csv(capsys.readouterr().out)[0]
    assert "mismatch" in row[11]
    assert abs(float(row[2]) - float(row[3])) >= 1e-8


def test_mismatch_is_relative_to_the_closed_mean(monkeypatch):
    # The mean here is 2.06e-9: a series off by a relative 1e-6 is a gap of
    # 2e-15, far below the tolerance 1e-8 read as an absolute gap.
    spec = SweepSpec("thermal", "bm", (1e-5,), (20.0,))
    (clean,) = run_sweep(spec)
    assert clean.status == "convergent"
    series_of = cli.thermal_nbar_series
    monkeypatch.setattr(cli, "thermal_nbar_series", lambda s: series_of(s) * (1.0 + 1e-6))
    (row,) = run_sweep(spec)
    assert row.status == "convergent;mismatch"
    assert abs(row.nbar_series - row.nbar_closed) < 1e-14


def test_sweep_determinism_byte_identical(tmp_path):
    args = ["sweep", "thermal", "--scheme", "bm", "--q", "0.5,2", "--theta", "1,2,3"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_json_round_trip(tmp_path):
    spec = SweepSpec(
        family="squeezed",
        scheme="bm",
        q_values=(0.5, 2.0),
        param_values=(0.2, 1.1),
        tail_tol=1e-12,
    )
    rows = run_sweep(spec)
    loaded = json.loads(render_json(rows))
    assert loaded == [row.as_dict() for row in rows]
    rebuilt = [ResultRow(**entry) for entry in loaded]
    assert rebuilt == rows


def _json_row(status, value=1.5, cutoff=3):
    return ResultRow(
        q=2.0,
        param=value,
        nbar_series=None,
        nbar_closed=-value,
        var1=math.nan,
        var2=math.inf,
        product=-math.inf,
        entropy_closed=0.0,
        entropy_series=None,
        cutoff=cutoff,
        tail_bound=1e-300,
        status=status,
    )


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [_json_row("convergent")],
        [
            _json_row('say "hi"', value=math.nan),
            _json_row("back\\slash\nnew line", value=-0.0, cutoff=0),
            _json_row("q→∞ é", value=1e308),
        ],
    ],
    ids=["empty", "one", "escapes"],
)
def test_render_json_gives_the_bytes_of_indented_dumps(rows):
    want = json.dumps([row.as_dict() for row in rows], indent=2) + "\n"
    assert render_json(rows) == want


def test_sweep_json_format_flag(capsys, tmp_path):
    assert main(["sweep", "squeezed", "--xi", "1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert isinstance(data, list) and data[0]["q"] == 1.0


def test_sweep_unwritable_output_is_io_error(capsys):
    code = main(["sweep", "squeezed", "--xi", "1", "--out", "/no/such/dir/x.csv"])
    assert code == 3


def test_sweep_missing_parameter_is_usage_error(capsys):
    assert main(["sweep", "squeezed"]) == 1
    assert main(["sweep", "squeezed", "--theta", "1"]) == 1
    assert main(["sweep", "thermal", "--xi", "1"]) == 1


def test_sweep_bad_scheme_is_usage_error(capsys):
    assert main(["sweep", "squeezed", "--scheme", "mystery", "--xi", "1"]) == 1
    assert main(["sweep", "squeezed", "--scheme", "expr:q +", "--xi", "1"]) == 1
    assert "position" in capsys.readouterr().err


def test_sweep_config_file(tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"scheme": "bm", "q": [2.0], "xi": [1.0]}))
    assert main(["sweep", "squeezed", "--config", str(config)]) == 0
    row = _rows_from_csv(capsys.readouterr().out)[0]
    assert row[0] == "2.0"

    # explicit flags override the file
    assert main(["sweep", "squeezed", "--config", str(config), "--q", "0.5"]) == 0
    row = _rows_from_csv(capsys.readouterr().out)[0]
    assert row[0] == "0.5"


def test_sweep_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["sweep", "squeezed", "--xi", "1", "--config", str(bad)]) == 1
    missing = tmp_path / "missing.json"
    assert main(["sweep", "squeezed", "--xi", "1", "--config", str(missing)]) == 3


@pytest.mark.parametrize(
    "content,line",
    [
        ("[1]", "error: config {path!r} must hold a JSON object"),
        ('{"format": "xml"}', "error: unknown output format 'xml'"),
    ],
)
def test_sweep_config_array_or_unknown_format_is_usage_error(tmp_path, capsys, content, line):
    config = tmp_path / "sweep.json"
    config.write_text(content)
    assert main(["sweep", "squeezed", "--xi", "1", "--config", str(config)]) == 1
    _assert_one_error_line(capsys.readouterr(), line.format(path=str(config)))


@pytest.mark.parametrize(
    "key,value",
    [
        ("scheme", 5),
        ("scheme", None),
        ("tail_tol", None),
        ("tail_tol", True),
        ("out", 7),
        ("q", [None]),
        ("q", [True]),
        ("q", [[1]]),
        ("q", [2, "x"]),
        ("q", []),
        ("q", {}),
        ("tail-tol", 0.5),
        ("Q", [2]),
    ],
)
def test_sweep_config_value_of_wrong_type_is_usage_error(tmp_path, capsys, key, value):
    # out = 7 must not reach open(), which would take it as a file descriptor
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({key: value}))
    assert main(["sweep", "squeezed", "--xi", "1", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert repr(key) in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_sweep_config_number_lists_take_text_numbers_and_lists(tmp_path, capsys):
    # one file may carry both families' parameters; each sweep reads its own
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"q": [0.5, "2"], "xi": "0.1,1", "theta": 3}))
    assert main(["sweep", "squeezed", "--config", str(config)]) == 0
    rows = _rows_from_csv(capsys.readouterr().out)
    assert [(r[0], r[1]) for r in rows] == [
        ("0.5", "0.1"),
        ("0.5", "1.0"),
        ("2.0", "0.1"),
        ("2.0", "1.0"),
    ]
    assert main(["sweep", "thermal", "--config", str(config)]) == 0
    rows = _rows_from_csv(capsys.readouterr().out)
    assert [(r[0], r[1]) for r in rows] == [("0.5", "3.0"), ("2.0", "3.0")]


@pytest.mark.parametrize("q", ["nan", "inf", "0", "-1", "-1,2"])
def test_sweep_nonpositive_or_nonfinite_q_is_usage_error(capsys, q):
    # the undeformed law ignores q, but a row would still print it as the grid's q
    assert main(["sweep", "squeezed", "--scheme", "undeformed", "--q", q, "--xi", "1"]) == 1
    _assert_usage_error(capsys.readouterr(), "q must be finite and positive")


def test_number_list_may_start_with_a_negative_number(capsys):
    # argparse alone reads "-1,1" as an option, so --xi missed its value
    assert main(["sweep", "squeezed", "--xi", "-1,1"]) == 0
    spaced = capsys.readouterr()
    assert [row[1] for row in _rows_from_csv(spaced.out)] == ["-1.0", "1.0"]
    assert main(["sweep", "squeezed", "--xi=-1,1"]) == 0
    assert capsys.readouterr() == spaced
    assert main(["sweep", "squeezed", "--xi", "-1e-3,1"]) == 0
    assert [row[1] for row in _rows_from_csv(capsys.readouterr().out)] == ["-0.001", "1.0"]
    assert main(["verify", "--dims", "-1,2"]) == 1
    line = "error: --dims values must lie between 2 and 512, got -1"
    _assert_one_error_line(capsys.readouterr(), line)
    assert main(["parse", "-2*n+3*n"]) == 0
    assert json.loads(capsys.readouterr().out)["canonical"] == "(((-2.0) * n) + (3.0 * n))"
    # text that is no number is still an option
    assert main(["sweep", "squeezed", "--xi", "-x"]) == 1
    _assert_one_error_line(capsys.readouterr(), "error: argument --xi: expected one argument")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--q", "-3"],
        ["ops", "number", "--q", "0", "--dim", "3"],
    ],
)
def test_verify_and_ops_reject_bad_q(capsys, argv):
    assert main(argv) == 1
    _assert_usage_error(capsys.readouterr(), "q must be finite and positive")


@pytest.mark.parametrize("descriptor", ["undeformed", "bm", "expr:n"])
@pytest.mark.parametrize("q", [math.nan, math.inf, 0.0, -1.0])
def test_resolve_scheme_checks_q_for_every_descriptor(descriptor, q):
    with pytest.raises(ValueError, match="q must be finite and positive"):
        resolve_scheme(descriptor, q)


def test_library_errors_are_value_errors():
    with pytest.raises(ValueError, match="unknown scheme"):
        resolve_scheme("mystery", 1.0)
    with pytest.raises(ValueError, match="q must be finite and positive"):
        run_sweep(SweepSpec("squeezed", "undeformed", (math.nan,), (1.0,)))


@pytest.mark.parametrize(
    "args,message",
    [
        (("coherent", "bm", (1.0,), (1.0,)), "unknown sweep family 'coherent'"),
        (("squeezed", "bm", (), (1.0,)), "q and parameter value lists must be non-empty"),
        (("thermal", "bm", (1.0,), ()), "q and parameter value lists must be non-empty"),
        (("squeezed", "bm", (1.0,), (1.0,), 1.0), "tail tolerance must lie in (0, 1), got 1.0"),
    ],
)
def test_sweep_spec_rejects_bad_requests(args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        SweepSpec(*args)


def test_sweep_spec_holds_what_run_sweep_reads():
    assert [f.name for f in fields(SweepSpec)] == [
        "family",
        "scheme",
        "q_values",
        "param_values",
        "tail_tol",
    ]


def test_row_dict_keys_follow_csv_header():
    rows = run_sweep(SweepSpec("thermal", "bm", (2.0,), (0.5, 1.0)))
    for row in rows:
        assert ",".join(row.as_dict()) == CSV_HEADER


def test_verify_passes_for_builtin_schemes(capsys):
    assert main(["verify", "--scheme", "undeformed", "--dims", "16,64"]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out

    assert main(["verify", "--scheme", "bm", "--q", "2", "--dims", "16"]) == 0
    out = capsys.readouterr().out
    assert "q_commutation" in out


def test_verify_accepts_probed_custom_expression(capsys):
    assert main(["verify", "--scheme", "expr:n^2", "--dims", "8"]) == 0


def test_verify_rejected_custom_expression(capsys):
    assert main(["verify", "--scheme", "expr:n+1", "--dims", "8"]) == 1


@pytest.mark.parametrize("flag,value", [("--dims", ""), ("--q", ",")])
def test_verify_empty_list_is_usage_error(capsys, flag, value):
    # an empty list checks nothing, so it must not report overall: PASS
    assert main(["verify", flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err


@pytest.mark.parametrize("dims", ["513", "16,100000"])
def test_verify_dims_above_ops_cap_is_usage_error(capsys, dims):
    # verify certifies the operators that ops can dump, dim <= 512
    assert main(["verify", "--dims", dims]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--dims" in captured.err


def test_run_verify_checks_dims_before_building_anything():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="between 2 and 512, got 100000"):
            run_verify("undeformed", [1.0], [16, 100000], 1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_verify_at_ops_cap_passes(capsys):
    assert main(["verify", "--scheme", "bm", "--q", "2", "--dims", "512"]) == 0
    assert "overall: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_verify_bad_tolerance_is_usage_error(capsys, tol):
    # nan, 0 and -1 fail even exact residuals; inf passes any residual
    assert main(["verify", "--dims", "16", "--tol", tol]) == 1
    _assert_usage_error(capsys.readouterr(), "--tol")


def test_verify_impossible_tolerance_fails(capsys):
    assert main(["verify", "--scheme", "undeformed", "--dims", "16", "--tol", "1e-30"]) == 2
    assert "overall: FAIL" in capsys.readouterr().out


def test_ops_number_dump(capsys):
    assert main(["ops", "number", "--dim", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["operator"] == "number"
    assert payload["entries"] == [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]]


def test_ops_annihilation_dump(capsys):
    assert main(["ops", "annihilation", "--dim", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    row0 = payload["entries"][0]
    assert row0[1] == 1.0
    assert payload["entries"][1][2] == pytest.approx(math.sqrt(2.0))
    assert payload["entries"][2][3] == pytest.approx(math.sqrt(3.0))


def test_ops_creation_is_transpose_of_annihilation(capsys):
    assert main(["ops", "annihilation", "--scheme", "bm", "--q", "2", "--dim", "3"]) == 0
    ann = json.loads(capsys.readouterr().out)["entries"]
    assert main(["ops", "creation", "--scheme", "bm", "--q", "2", "--dim", "3"]) == 0
    cre = json.loads(capsys.readouterr().out)["entries"]
    assert cre == [list(col) for col in zip(*ann)]


def test_ops_identity_dump(capsys):
    assert main(["ops", "identity", "--dim", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["entries"] == [[1.0, 0.0], [0.0, 1.0]]
    assert main(["ops", "identity"]) == 1
    _assert_one_error_line(
        capsys.readouterr(), "error: the following arguments are required: --dim"
    )


def test_ops_usage_errors(capsys):
    assert main(["ops", "teleporter", "--dim", "3"]) == 1
    assert main(["ops", "number", "--dim", "513"]) == 1
    assert main(["ops", "number", "--dim", "0"]) == 1


def test_parse_valid_expression(capsys):
    assert main(["parse", "(q^n - q^(-n))/(q - q^(-1))"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "canonical" in payload


def test_parse_with_evaluation(capsys):
    assert main(["parse", "n^2", "--q", "2", "--n", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 9.0


def test_parse_expression_may_start_with_dash(capsys):
    # parse reads any text after one '-' as a value, so "-n+2*n" needs no '--'
    assert main(["parse", "-n+2*n"]) == 0
    spaced = capsys.readouterr()
    assert spaced.out == '{"source": "-n+2*n", "canonical": "((-n) + (2.0 * n))"}\n'
    assert main(["parse", "--", "-n+2*n"]) == 0
    assert capsys.readouterr() == spaced
    # no expression at all: the message is argparse's
    for argv in (["parse"], ["parse", "--q", "-1"], ["parse", "--"]):
        assert main(argv) == 1
        line = "error: the following arguments are required: expression"
        _assert_one_error_line(capsys.readouterr(), line)


@pytest.mark.parametrize("evaluate", [[], ["--q", "2", "--n", "3"]])
@pytest.mark.parametrize(
    "expression", ["-n+2*n", "-(n)", "-q+1", "-2*n+3*n", "-x", "-inf", "-n=3"]
)
def test_parse_dash_text_reads_as_after_double_dash(capsys, expression, evaluate):
    code = main(["parse", expression, *evaluate])
    direct = capsys.readouterr()
    assert main(["parse", *evaluate, "--", expression]) == code
    assert capsys.readouterr() == direct


def test_parse_options_leave_dash_text_to_the_expression():
    # a single-dash option would claim dash text by its prefix; -h is looked
    # up whole before the value pattern is tried, and no law starts with 'h'
    (subparsers,) = cli._build_parser()._subparsers._group_actions
    parse = subparsers.choices["parse"]
    claimed = [s for s in parse._option_string_actions if parse._negative_number_matcher.match(s)]
    assert claimed == ["-h"]
    assert not parse._has_negative_number_optionals


def test_parse_error_has_position_and_exit_one(capsys):
    assert main(["parse", "q + "]) == 1
    assert "position 4" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,line",
    [
        (["parse", "exp(n)", "--q", "2", "--n", "2000"], "error: overflow at q=2.0, n=2000.0"),
        (
            ["parse", "n*1e308", "--q", "2", "--n", "10"],
            "error: non-finite value inf at q=2.0, n=10.0",
        ),
        # thermal's moments read d(n) itself, past where q^n overflows
        (
            ["sweep", "thermal", "--scheme", "expr:(q^n - q^(-n))/(q - q^(-1))"]
            + ["--q", "2", "--theta", "0.71"],
            "error: overflow at q=2.0, n=1024.0",
        ),
        # e^(2 xi) overflows at 355; at 400 cosh(xi)^2 does too
        (
            ["sweep", "squeezed", "--xi", "355"],
            "error: squeezing parameter xi=355.0 overflows the pair-number law (|xi| > 354.89)",
        ),
        (
            ["sweep", "squeezed", "--xi", "400"],
            "error: squeezing parameter xi=400.0 overflows the pair-number law (|xi| > 354.89)",
        ),
        # the ratio of the law rounds to 1: e^-theta at theta <= 2^-54, tanh^2 xi past 19.06
        (
            ["sweep", "thermal", "--theta", "1e-17,1"],
            "error: theta=1e-17 rounds the pair-number ratio e^-theta to 1",
        ),
        (
            ["sweep", "squeezed", "--xi", "20,1"],
            "error: squeezing parameter xi=20.0 rounds the pair-number ratio tanh^2 xi to 1",
        ),
        # d(0) = 0 and d(1) = 1 for every q; for a subnormal q, d(2) overflows
        (
            ["verify", "--scheme", "bm", "--q", "1e-320", "--dims", "4"],
            "error: deformation value overflowed at n=2 (q=1e-320)",
        ),
        (
            ["ops", "annihilation", "--scheme", "bm", "--q", "5e-324", "--dim", "3"],
            "error: deformation value overflowed at n=2 (q=5e-324)",
        ),
        # the mean is finite, but (<a a+> (1 - r) / 4)^2 overflows
        (
            ["sweep", "squeezed", "--scheme", "expr:n + 1e307*n*(n - 1)", "--xi", "0.03"],
            "error: variance formulas overflowed at r=0.0008994602752709204",
        ),
    ],
)
def test_expression_value_out_of_range_is_one_error_line(capsys, argv, line):
    assert main(argv) == 1
    _assert_one_error_line(capsys.readouterr(), line)


BM_TEXT = "expr:(q^n - q^(-n))/(q - q^(-1))"
SINH_TEXT = "expr:sinh(n*ln(q))/sinh(ln(q))"
QUADRATIC_TEXT = "expr:n + (q - 1)*n*(n - 1)/2"
# the ln of a subtree in n leaves the law without parts
SCAN_TEXT = "expr:n + 0*ln(2 + n)"
FAILS_AT_40_TEXT = "expr:39*n/(40 - n)"
FAILS_AT_33_TEXT = "expr:n + 0*ln(33 - n)"


@pytest.mark.parametrize(
    "family, scheme, q, param",
    [
        # a mean above 32 that the scan's growth rule called divergent
        pytest.param("thermal", "expr:n", 1.0, 0.02, id="thermal-n"),
        # the scan stopped at the near-zero d(9) where the law changes sign
        pytest.param("squeezed", QUADRATIC_TEXT, 0.7499, 0.3, id="squeezed-quadratic"),
        # a mean of 2e-9 that the scan's absolute limit cut short (the sinh
        # of a subtree in n takes the scan)
        pytest.param("thermal", SINH_TEXT, 1e-5, 20.0, id="thermal-sinh"),
        # the parts are summed without q^n, which overflowed at n = 1024
        pytest.param("squeezed", BM_TEXT, 2.0, 0.87, id="squeezed-bm-text"),
        # a law without parts, summed by the adaptive scan
        pytest.param("thermal", SCAN_TEXT, 1.0, 0.5, id="thermal-scan-0.5"),
        pytest.param("thermal", SCAN_TEXT, 1.0, 2.0, id="thermal-scan-2"),
        pytest.param("squeezed", SCAN_TEXT, 1.0, 0.6, id="squeezed-scan-0.6"),
        pytest.param("squeezed", SCAN_TEXT, 1.0, 1.5, id="squeezed-scan-1.5"),
        # a law without parts that fails at n = 40, past where the scan
        # stops: its look-ahead reads d(40), which must not raise
        pytest.param("squeezed", FAILS_AT_40_TEXT, 1.0, 0.3, id="squeezed-fails-at-40"),
        pytest.param("thermal", FAILS_AT_40_TEXT, 1.0, 2.0, id="thermal-fails-at-40"),
        # the scan stops at n = 32, and d(33) fails: the thermal state's
        # moments read d(0..32), no further
        pytest.param("thermal", FAILS_AT_33_TEXT, 1.0, 1.0, id="thermal-fails-at-33"),
        # built-in laws whose closed cutoff N is the last n before d(n)
        # overflows (N + 1 = 1025 at q = 2 and 0.5, 647 at q = 3; theta
        # bisected to that edge): the row reads d(0..N), no further
        pytest.param("thermal", "bm", 2.0, 0.7201392303193198, id="thermal-bm-2-edge"),
        pytest.param("thermal", "bm", 0.5, 0.7201392303193198, id="thermal-bm-0.5-edge"),
        pytest.param("thermal", "bm", 3.0, 1.1413928494420187, id="thermal-bm-3-edge"),
    ],
)
def test_expression_cell_reads_convergent_within_1e_10(capsys, family, scheme, q, param):
    mpmath = pytest.importorskip("mpmath")
    flag = "--xi" if family == "squeezed" else "--theta"
    argv = ["sweep", family, "--scheme", scheme, "--q", repr(q), flag, repr(param)]
    assert main(argv + ["--format", "json"]) == 0
    [row] = json.loads(capsys.readouterr().out)
    assert row["status"].startswith("convergent")
    with mpmath.workdps(40):
        x, mq = mpmath.mpf(param), mpmath.mpf(q)
        r = mpmath.tanh(x) ** 2 if family == "squeezed" else mpmath.exp(-x)
        if scheme in ("expr:n", SCAN_TEXT, FAILS_AT_33_TEXT):
            want = r / (1 - r)
        elif scheme == QUADRATIC_TEXT:
            want = r / (1 - r) + (mq - 1) * r**2 / (1 - r) ** 2
        elif scheme == FAILS_AT_40_TEXT:  # r^40 is below 1e-34 in both cells
            want = (1 - r) * mpmath.fsum(39 * k * r**k / (40 - k) for k in range(40))
        else:
            want = r * (1 - r) / ((1 - mq * r) * (1 - r / mq))
        assert abs(row["nbar_series"] - want) <= 1e-10 * abs(want)


def test_built_in_value_past_sinh_range_is_not_an_overflow(capsys):
    # sinh(n lam) overflows one index before d(n) does when sinh(lam) > 1:
    # d(309) at q = 10 is 1.0101e308, and d(2) at q = 1e300 is q + 1/q.
    mpmath = pytest.importorskip("mpmath")
    assert main(["verify", "--scheme", "bm", "--q", "10", "--dims", "309"]) == 0
    assert "overall: PASS" in capsys.readouterr().out
    assert main(["ops", "annihilation", "--scheme", "bm", "--q", "1e300", "--dim", "3"]) == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    want = mpmath.sqrt(mpmath.mpf(1e300) + 1 / mpmath.mpf(1e300))
    assert entries[1][2] == pytest.approx(float(want), rel=1e-13)


def test_parse_eval_needs_both_flags(capsys):
    assert main(["parse", "n", "--q", "2"]) == 1


@pytest.mark.parametrize(
    "q, n, line",
    [
        ("-1", "2", "error: q must be finite and positive, got -1.0"),
        ("0", "2", "error: q must be finite and positive, got 0.0"),
        ("nan", "2", "error: q must be finite and positive, got nan"),
        ("inf", "2", "error: q must be finite and positive, got inf"),
        ("2", "-3", "error: occupation number must be a nonnegative integer, got -3"),
        # q is checked first
        ("-1", "-3", "error: q must be finite and positive, got -1.0"),
    ],
)
def test_parse_eval_checks_q_and_n_as_a_scheme_does(capsys, q, n, line):
    # a point no scheme can take: q and n are checked as schemes and eval_d
    # check them, before the law is evaluated
    for expression in ("q", "n"):
        assert main(["parse", expression, "--q", q, "--n", n]) == 1
        _assert_one_error_line(capsys.readouterr(), line)


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["warp"]) == 1
    assert main([]) == 1


def test_valid_call_after_a_rejected_flag_is_unchanged(capsys):
    # main reuses one parser; a call it rejected must leave nothing behind
    valid = ["sweep", "thermal", "--scheme", "bm", "--q", "1.3", "--theta", "1,2"]
    assert main(valid) == 0
    alone = capsys.readouterr()
    for bad in (["sweep", "thermal", "--bogus", "1"], ["sweep", "thermal", "--format", "xml"]):
        assert main(bad) == 1
        _assert_usage_error(capsys.readouterr(), "error:")
        assert main(valid) == 0
        assert capsys.readouterr() == alone


@pytest.mark.parametrize(
    "argv,line",
    [
        # each of these ended in a RecursionError traceback before the limits
        (
            ["parse", "(" * 197 + "n" + ")" * 197],
            "error: more than 128 '(' (at position 128)",
        ),
        (
            ["sweep", "squeezed", "--scheme", "expr:n" + "+0" * 980, "--xi", "0.1"],
            "error: more than 128 operands and operators (at position 128)",
        ),
        (
            ["verify", "--scheme", "expr:" + "exp(" * 197 + "n" + ")" * 197],
            "error: more than 128 operands and operators (at position 512)",
        ),
        (["parse", "1e999"], "error: numeric literal '1e999' overflows (at position 0)"),
        (
            ["sweep", "squeezed", "--scheme", "expr:n+0*1e999", "--xi", "0.1"],
            "error: numeric literal '1e999' overflows (at position 4)",
        ),
    ],
)
def test_law_past_the_parser_limits_is_one_error_line(capsys, argv, line):
    assert main(argv) == 1
    _assert_one_error_line(capsys.readouterr(), line)
