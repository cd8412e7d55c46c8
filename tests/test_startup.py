"""Start-up: the package imports and runs every subcommand without numpy.

Each case runs in a fresh interpreter, because numpy, once imported by any
test in this process, stays in ``sys.modules``.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import qfock

SRC = str(Path(qfock.__file__).resolve().parents[1])

NO_NUMPY = 'sys.modules["numpy"] = None  # any import of numpy now fails'

SWEEP_CALLS = [
    ["sweep", "squeezed", "--scheme", "bm", "--q", "0.5,2", "--xi", "0.1,1"],
    ["sweep", "thermal", "--scheme", "bm", "--q", "2", "--theta", "1,2", "--format", "json"],
    ["sweep", "squeezed", "--scheme", "expr:n + (q - 1)*n*(n - 1)/2", "--q", "0.7,1", "--xi", "0.3"],
    ["sweep", "squeezed", "--scheme", "bm", "--q", "2", "--xi", "0.87"],  # overflow, exit 1
    ["parse", "(q^n - q^(-n))/(q - q^(-1))", "--q", "2", "--n", "3"],
]
MATRIX_CALLS = [["verify", "--dims", "4"]] + [
    ["ops", operator, "--dim", "3"]
    for operator in ("annihilation", "creation", "number", "identity")
]

# SHA-256 of the SWEEP_CALLS stdout, each call's exit line after its output.
SWEEP_SHA256 = "8b0eea2835d398ef2f7894efd09dbcea08966488a9b5515d50ccba32d500bad5"

MATRIX_OUTPUT = """\
scheme=undeformed q=1.0 dim=4
  ladder_product           1.480e-16  PASS
  shifted_ladder_product   1.110e-16  PASS
  ladder_commutator        2.961e-16  PASS
  number_raises            0.000e+00  PASS
  number_lowers            0.000e+00  PASS
overall: PASS
exit 0
{"scheme": "undeformed", "q": 1.0, "dim": 3, "operator": "annihilation", \
"entries": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.4142135623730951], [0.0, 0.0, 0.0]]}
exit 0
{"scheme": "undeformed", "q": 1.0, "dim": 3, "operator": "creation", \
"entries": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.4142135623730951, 0.0]]}
exit 0
{"scheme": "undeformed", "q": 1.0, "dim": 3, "operator": "number", \
"entries": [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]]}
exit 0
{"scheme": "undeformed", "q": 1.0, "dim": 3, "operator": "identity", \
"entries": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}
exit 0
"""


def _run(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=False,
    )


def _run_cli(calls, prelude: str = "") -> subprocess.CompletedProcess:
    """``qfock.cli.main`` on each argv in one fresh process, each call's
    exit code after its output, and last whether numpy was imported."""
    code = f"""\
import sys
{prelude}
import qfock, qfock.cli
for argv in {calls!r}:
    print("exit", qfock.cli.main(argv), flush=True)
print("numpy imported:", sys.modules.get("numpy") is not None)
"""
    proc = _run(code)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_sweep_and_parse_never_import_numpy():
    proc = _run_cli(SWEEP_CALLS)
    lines = proc.stdout.splitlines()
    assert [line for line in lines if line.startswith("exit ")] == [
        "exit 0", "exit 0", "exit 0", "exit 1", "exit 0"
    ]
    assert lines[-1] == "numpy imported: False"
    assert proc.stderr == "error: deformation value overflowed at n=1025 (q=2.0)\n"


def test_sweep_and_parse_print_the_same_bytes_without_numpy():
    plain = _run_cli(SWEEP_CALLS)
    blocked = _run_cli(SWEEP_CALLS, NO_NUMPY)
    assert (blocked.stdout, blocked.stderr) == (plain.stdout, plain.stderr)


def test_verify_and_ops_print_the_same_bytes():
    proc = _run_cli(MATRIX_CALLS)
    assert proc.stdout == MATRIX_OUTPUT + "numpy imported: False\n"
    assert proc.stderr == ""


def test_matrix_names_load_on_first_access():
    proc = _run(
        """\
import sys
import qfock
print("numpy" in sys.modules)
from qfock import verify_algebra
import qfock.fock_matrix
print("numpy" in sys.modules, verify_algebra is qfock.fock_matrix.verify_algebra)
print(all(getattr(qfock, name) is getattr(qfock.fock_matrix, name) for name in [
    "annihilation_matrix", "creation_matrix", "number_matrix", "identity_matrix"
]))
print(hasattr(qfock, "no_such_name"))
"""
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\nFalse True\nTrue\nFalse\n"


def test_every_subcommand_prints_pinned_bytes_without_numpy():
    code = f"""\
import sys
{NO_NUMPY}
import qfock.cli
for argv in {SWEEP_CALLS + MATRIX_CALLS!r}:
    print("exit", qfock.cli.main(argv), flush=True)
"""
    proc = _run(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "error: deformation value overflowed at n=1025 (q=2.0)\n"
    sweeps = proc.stdout.removesuffix(MATRIX_OUTPUT)
    assert sweeps + MATRIX_OUTPUT == proc.stdout
    assert hashlib.sha256(sweeps.encode()).hexdigest() == SWEEP_SHA256
