"""How ``main`` parses argv: a known command's argv goes to that command's
parser alone, everything else to the top-level parser.

The top-level parser takes the command word and hands every later token,
unchanged, to the command's parser, so both routes give the same
namespace (less ``command``), the same error text, the same help and the
same exit code.  The table checks that on the interpreter at hand.
"""

import contextlib
import io
import sys

import pytest

from qfock import cli
from qfock.cli import main

# argv that start with a command name: help, '--', --opt=value, abbreviated,
# unknown, missing and repeated options, and dash-led values and laws
COMMAND_ARGV = [
    ["sweep", "-h"],
    ["sweep", "--help"],
    ["sweep", "squeezed", "--xi", "1", "-h"],
    ["verify", "-h"],
    ["ops", "--help"],
    ["parse", "-h"],
    ["parse", "n", "--h"],
    ["parse", "--", "-n+2*n"],
    ["parse", "--"],
    ["parse", "--q", "2", "--n", "3", "--", "-n"],
    ["sweep", "--", "squeezed", "--xi", "1"],
    ["ops", "identity", "--dim", "2", "--"],
    ["sweep", "squeezed", "--xi=0.5", "--format=json"],
    ["verify", "--dims=4,8", "--q=2"],
    ["sweep", "squeezed", "--xi=-1,1"],
    ["sweep", "thermal", "--th", "1", "--sch", "bm"],
    ["verify", "--dim", "4"],
    ["sweep", "squeezed", "--t", "1"],
    ["sweep", "squeezed", "--xi", "1", "--bogus"],
    ["ops", "number", "--dim", "2", "-z"],
    ["verify", "extra"],
    ["sweep", "squeezed", "--xi"],
    ["ops", "number", "--dim"],
    ["ops", "number"],
    ["parse"],
    ["sweep"],
    ["sweep", "bogus"],
    ["verify"],
    ["verify", "--tol", "abc"],
    ["sweep", "squeezed", "--xi", "1", "--xi", "2"],
    ["ops", "number", "--dim", "2", "--dim", "3"],
    ["parse", "-n+2*n"],
    ["parse", "-(n)", "--q", "2", "--n", "3"],
    ["parse", "-hn"],
    ["parse", "-x"],
    ["parse", "--q", "-1", "n"],
    ["sweep", "squeezed", "--xi", "-1,1"],
    ["sweep", "squeezed", "--xi", "-.5"],
]

# argv the top-level parser keeps: empty, an unknown command, its own help,
# an option before the command
OTHER_ARGV = [[], ["warp"], ["-h"], ["--q", "2", "sweep"]]


def _outcome(parse, argv):
    """What ``parse(argv)`` gives: the namespace less ``command``, or the
    ValueError text, or the SystemExit code; with what it printed."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
        try:
            namespace = vars(parse(list(argv)))
        except ValueError as exc:
            return "error", str(exc), printed.getvalue()
        except SystemExit as exc:
            return "exit", exc.code, printed.getvalue()
    namespace.pop("command", None)
    return "namespace", namespace, printed.getvalue()


@pytest.mark.parametrize("argv", COMMAND_ARGV, ids=" ".join)
def test_command_parser_alone_gives_the_top_level_outcome(argv):
    parser = cli._build_parser()
    direct = _outcome(parser.commands[argv[0]].parse_args, argv[1:])
    assert direct == _outcome(parser.parse_args, argv)


def test_build_parser_returns_the_top_level_parser():
    parser = cli._build_parser()
    assert parser.prog == "qfock"
    assert sorted(parser.commands) == ["ops", "parse", "sweep", "verify"]
    assert {name: command.prog for name, command in parser.commands.items()} == {
        name: f"qfock {name}" for name in parser.commands
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "squeezed", "--xi", "0.5"],
        ["verify", "--dims", "4"],
        ["ops", "identity", "--dim", "2"],
        ["parse", "-n+2*n"],
    ],
    ids=" ".join,
)
def test_known_command_is_parsed_once_by_its_own_parser(monkeypatch, capsys, argv):
    parser = cli._build_parser()
    command = parser.commands[argv[0]]
    parsed = []

    def top_level(args=None, namespace=None):
        raise AssertionError(f"top-level parser called on {args!r}")

    def own(args=None, namespace=None):
        parsed.append(list(args))
        return type(command).parse_known_args(command, args, namespace)

    monkeypatch.setattr(parser, "parse_args", top_level)
    monkeypatch.setattr(parser, "parse_known_args", top_level)
    monkeypatch.setattr(command, "parse_known_args", own)
    assert main(argv) == 0
    assert parsed == [argv[1:]]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", OTHER_ARGV, ids=repr)
def test_other_argv_gets_the_top_level_parsers_outcome(monkeypatch, capsys, argv):
    parser = cli._build_parser()
    kind, value, printed = _outcome(parser.parse_args, argv)
    assert kind != "namespace"
    calls = []

    def top_level(args=None, namespace=None):
        calls.append(args)
        return type(parser).parse_args(parser, args, namespace)

    monkeypatch.setattr(parser, "parse_args", top_level)
    if kind == "exit":  # -h: the top-level help, exit 0
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert (exc.value.code, capsys.readouterr().out) == (value, printed)
    else:
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {value}\n"
    assert calls == [argv]


def test_argv_none_reads_sys_argv(monkeypatch, capsys):
    assert main(["parse", "-n+2*n", "--q", "2", "--n", "3"]) == 0
    expected = capsys.readouterr()
    parser = cli._build_parser()
    monkeypatch.setattr(sys, "argv", ["qfock", "parse", "-n+2*n", "--q", "2", "--n", "3"])
    with monkeypatch.context() as patch:  # the command's own parser, here too
        patch.setattr(parser, "parse_args", None)
        assert main() == 0
    assert capsys.readouterr() == expected
    monkeypatch.setattr(sys, "argv", ["qfock", "warp"])
    assert main() == 1
    assert capsys.readouterr().err.startswith("error: argument command: invalid choice")
