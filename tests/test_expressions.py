"""Parser and evaluator tests for deformation expressions."""

import pytest
from hypothesis import given, settings, strategies as st

from qfock import deformation, expressions
from qfock.deformation import DeformationScheme, eval_d
from qfock.expressions import (
    FUNCTIONS,
    BinaryOp,
    EvaluationError,
    ExpressionError,
    FunctionCall,
    Negate,
    Number,
    Variable,
    evaluate_tree,
    parse_deformation,
    render,
)

from helpers import bm_reference, close, reference_evaluate_tree

BM_TEXT = "(q^n - q^(-n))/(q - q^(-1))"


def test_single_variable_parses_to_variable_node():
    assert parse_deformation("n") == Variable("n")
    assert parse_deformation("q") == Variable("q")


@pytest.mark.parametrize("q", [0.5, 0.9, 1.1, 2.0])
def test_bm_text_matches_direct_formula(q):
    tree = parse_deformation(BM_TEXT)
    for n in range(65):
        assert close(evaluate_tree(tree, q, float(n)), bm_reference(q, n), 1e-12)


EVALUATION_VALUES = [
    ("2+3*4", 14.0),
    ("(2+3)*4", 20.0),
    ("2^3^2", 512.0),  # right-associative power
    ("-2^2", 4.0),  # unary binds the atom before the power
    ("2^-2", 0.25),
    ("6/3/2", 1.0),  # left-associative division
    ("1.5e-3", 0.0015),
    ("2e2", 200.0),
    (" 1 + 2 ", 3.0),
    ("exp(0)", 1.0),
    ("ln(1)", 0.0),
    ("sqrt(4)", 2.0),
    ("sinh(0)+cosh(0)+tanh(0)", 1.0),
    ("--n", 3.0),
]


@pytest.mark.parametrize("source,value", EVALUATION_VALUES)
def test_evaluation_values(source, value):
    tree = parse_deformation(source)
    assert evaluate_tree(tree, 2.0, 3.0) == pytest.approx(value, abs=1e-15)


@pytest.mark.parametrize(
    "source,position,fragment",
    [
        ("q + ", 4, "expected a number"),
        ("(q", 2, "expected ')'"),
        ("n n", 2, "trailing"),
        ("2 +* 3", 3, "expected a number"),
        ("q^", 2, "expected a number"),
        (")", 0, "expected a number"),
        ("", 0, "expected a number"),
        ("x", 0, "unknown identifier 'x'"),
        ("q*x+1", 2, "unknown identifier 'x'"),
        ("foo(n)", 0, "unknown function 'foo'"),
        ("sin(n)", 0, "unknown function 'sin'"),
        ("q−n", 1, "unexpected character"),  # non-ASCII minus
    ],
)
def test_errors_carry_position_and_message(source, position, fragment):
    with pytest.raises(ExpressionError) as err:
        parse_deformation(source)
    assert err.value.position == position
    assert fragment in str(err.value)
    assert f"position {position}" in str(err.value)


NON_FINITE_CASES = [
    ("1/(n - n)", 2.0, 3.0),  # division by zero
    ("sqrt(0 - q)", 2.0, 0.0),  # domain error
    ("ln(n)", 2.0, 0.0),
    ("exp(n)", 2.0, 1000.0),  # overflow
    ("(0 - 2)^0.5", 2.0, 0.0),  # complex power
    (BM_TEXT, 1.0, 2.0),  # 0/0 at q = 1, no limit magic in raw trees
]


@pytest.mark.parametrize("source,q,n", NON_FINITE_CASES)
def test_non_finite_evaluation_raises(source, q, n):
    tree = parse_deformation(source)
    with pytest.raises(EvaluationError):
        evaluate_tree(tree, q, n)


ROUND_TRIP_SOURCES = [BM_TEXT, "n", "-n^2 + 3*q", "exp(-(n/q))", "1.25e-1*(q+n)"]


@pytest.mark.parametrize("source", ROUND_TRIP_SOURCES)
def test_render_round_trips(source):
    tree = parse_deformation(source)
    assert parse_deformation(render(tree)) == tree


# Compiled evaluation against the tree walk it replaced: the same value,
# bit for bit, or the same exception type and message.


def _outcome(call):
    try:
        value = call()
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)
    return value, repr(value)  # repr tells -0.0 from 0.0


COMPILED_CASES = [
    *ROUND_TRIP_SOURCES,
    *(source for source, _ in EVALUATION_VALUES),
    *(source for source, _, _ in NON_FINITE_CASES),
    "sinh(n)+cosh(q)+tanh(n - q)",
    "(0 - n)^(1/q)",
    "0^(0 - n)",
    "q^n^n",
    "n + (q - 1)*n*(n - 1)/2",
    "n*q^(n-1)",
    "2*n/(3 - n)",
    # both operands fail, differently: the left one's error must win
    "ln(0 - q) + 1/(n - n)",
    "ln(0 - q) - 1/(n - n)",
    "ln(0 - q) * (1/(n - n))",
    "ln(0 - q) / (1/(n - n))",
    "ln(0 - q) ^ (1/(n - n))",
]


@pytest.mark.parametrize("source", COMPILED_CASES)
def test_compiled_matches_tree_walk(source):
    tree = parse_deformation(source)
    for q in (0.5, 1.0, 2.0):
        for n in (0.0, 1.0, 3.0, 1000.0):
            got = _outcome(lambda: evaluate_tree(tree, q, n))
            assert got == _outcome(lambda: reference_evaluate_tree(tree, q, n)), (q, n)


_LEAVES = st.one_of(
    st.builds(Variable, st.sampled_from(["q", "n"])),
    st.builds(
        Number,
        st.one_of(
            st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 1e308]),
            st.floats(min_value=-1e3, max_value=1e3),
        ),
    ),
)
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.builds(Negate, children),
        st.builds(BinaryOp, st.sampled_from(list("+-*/^")), children, children),
        st.builds(FunctionCall, st.sampled_from(sorted(FUNCTIONS)), children),
    ),
    max_leaves=12,
)


@settings(max_examples=400, deadline=None)
@given(
    tree=_TREES,
    q=st.floats(min_value=1e-3, max_value=1e3),
    n=st.one_of(st.integers(0, 1100).map(float), st.floats(0.0, 50.0)),
)
def test_compiled_matches_tree_walk_on_random_trees(tree, q, n):
    got = _outcome(lambda: evaluate_tree(tree, q, n))
    assert got == _outcome(lambda: reference_evaluate_tree(tree, q, n))


@pytest.mark.parametrize(
    "source", ["n + (q - 1)*n*(n - 1)/2", "2*n/(3 - n)", "(exp(n) - 1)/(exp(1) - 1)"]
)
def test_scheme_compiles_its_law_once(source, monkeypatch):
    compiled = []

    def counting_compile(tree):
        compiled.append(tree)
        return expressions._compile(tree)

    monkeypatch.setattr(deformation, "_compile", counting_compile)
    scheme = DeformationScheme.custom(source, 1.5)
    for n in range(800):  # the last law overflows from n = 710
        got = _outcome(lambda: eval_d(scheme, n))
        assert got == _outcome(lambda: reference_evaluate_tree(scheme.expr, 1.5, float(n)))
    assert compiled == [scheme.expr]
