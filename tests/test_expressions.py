"""Parser and evaluator tests for deformation expressions."""

import pytest

from qfock.expressions import (
    EvaluationError,
    ExpressionError,
    Variable,
    evaluate_tree,
    parse_deformation,
    render,
)

from helpers import bm_reference, close

BM_TEXT = "(q^n - q^(-n))/(q - q^(-1))"


def test_single_variable_parses_to_variable_node():
    assert parse_deformation("n") == Variable("n")
    assert parse_deformation("q") == Variable("q")


@pytest.mark.parametrize("q", [0.5, 0.9, 1.1, 2.0])
def test_bm_text_matches_direct_formula(q):
    tree = parse_deformation(BM_TEXT)
    for n in range(65):
        assert close(evaluate_tree(tree, q, float(n)), bm_reference(q, n), 1e-12)


@pytest.mark.parametrize(
    "source,value",
    [
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
    ],
)
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


@pytest.mark.parametrize(
    "source,q,n",
    [
        ("1/(n - n)", 2.0, 3.0),  # division by zero
        ("sqrt(0 - q)", 2.0, 0.0),  # domain error
        ("ln(n)", 2.0, 0.0),
        ("exp(n)", 2.0, 1000.0),  # overflow
        ("(0 - 2)^0.5", 2.0, 0.0),  # complex power
        (BM_TEXT, 1.0, 2.0),  # 0/0 at q = 1, no limit magic in raw trees
    ],
)
def test_non_finite_evaluation_raises(source, q, n):
    tree = parse_deformation(source)
    with pytest.raises(EvaluationError):
        evaluate_tree(tree, q, n)


@pytest.mark.parametrize(
    "source",
    [BM_TEXT, "n", "-n^2 + 3*q", "exp(-(n/q))", "1.25e-1*(q+n)"],
)
def test_render_round_trips(source):
    tree = parse_deformation(source)
    assert parse_deformation(render(tree)) == tree
