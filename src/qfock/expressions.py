"""Parser and evaluator for deformation-function expressions.

The accepted language is arithmetic in the two variables ``q`` and ``n``,
decimal literals, and the functions exp, ln, sinh, cosh, tanh and sqrt.
Grammar (whitespace insignificant, ASCII only)::

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := unary ("^" factor)?            # right-associative power
    unary  := "-" unary | atom
    atom   := NUMBER | "q" | "n" | FUNC "(" expr ")" | "(" expr ")"

Parsing is total: trailing input after a complete expression is an error.
Trees are immutable and evaluation is pure, so parsed expressions can be
shared freely between concurrent callers.

A tree is evaluated by compiling it into nested Python closures, one per
node, that do a tree walk's float operations in the walk's order, so the
values and error messages are those of walking the tree.  A deformation
scheme compiles its law once and calls the result for every d(n);
``evaluate_tree`` compiles afresh on each call.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Union

__all__ = [
    "ExpressionError",
    "EvaluationError",
    "ExpressionTree",
    "Number",
    "Variable",
    "Negate",
    "BinaryOp",
    "FunctionCall",
    "parse_deformation",
    "evaluate_tree",
    "render",
]

FUNCTIONS = {
    "exp": math.exp,
    "ln": math.log,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "tanh": math.tanh,
    "sqrt": math.sqrt,
}

VARIABLES = ("q", "n")


class ExpressionError(ValueError):
    """Expression text was rejected.

    ``position`` is the 0-based character offset of the offending token
    (``len(source)`` when the input ended too early).
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvaluationError(ArithmeticError):
    """Evaluating an expression produced no finite real value."""


@dataclass(frozen=True)
class Number:
    value: float


@dataclass(frozen=True)
class Variable:
    name: str  # "q" or "n"


@dataclass(frozen=True)
class Negate:
    operand: "ExpressionTree"


@dataclass(frozen=True)
class BinaryOp:
    op: str  # one of + - * / ^
    left: "ExpressionTree"
    right: "ExpressionTree"


@dataclass(frozen=True)
class FunctionCall:
    name: str
    argument: "ExpressionTree"


ExpressionTree = Union[Number, Variable, Negate, BinaryOp, FunctionCall]

_NUMBER_RE = re.compile(r"[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_OPERATORS = "+-*/^()"


@dataclass(frozen=True)
class _Token:
    kind: str  # "number", "name", one of +-*/^(), or "end"
    text: str
    position: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(source):
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        m = _NUMBER_RE.match(source, i)
        if m:
            tokens.append(_Token("number", m.group(), i))
            i = m.end()
            continue
        m = _NAME_RE.match(source, i)
        if m:
            tokens.append(_Token("name", m.group(), i))
            i = m.end()
            continue
        if ch in _OPERATORS:
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ExpressionError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._index = 0

    @property
    def token(self) -> _Token:
        return self._tokens[self._index]

    def _advance(self) -> _Token:
        token = self.token
        self._index += 1
        return token

    def _expect(self, kind: str, description: str) -> _Token:
        if self.token.kind != kind:
            raise ExpressionError(f"expected {description}", self.token.position)
        return self._advance()

    def parse(self) -> ExpressionTree:
        tree = self._expr()
        if self.token.kind != "end":
            raise ExpressionError(
                f"unexpected trailing input {self.token.text!r}", self.token.position
            )
        return tree

    def _expr(self) -> ExpressionTree:
        node = self._term()
        while self.token.kind in ("+", "-"):
            op = self._advance().kind
            node = BinaryOp(op, node, self._term())
        return node

    def _term(self) -> ExpressionTree:
        node = self._factor()
        while self.token.kind in ("*", "/"):
            op = self._advance().kind
            node = BinaryOp(op, node, self._factor())
        return node

    def _factor(self) -> ExpressionTree:
        node = self._unary()
        if self.token.kind == "^":
            self._advance()
            node = BinaryOp("^", node, self._factor())
        return node

    def _unary(self) -> ExpressionTree:
        if self.token.kind == "-":
            self._advance()
            return Negate(self._unary())
        return self._atom()

    def _atom(self) -> ExpressionTree:
        token = self.token
        if token.kind == "number":
            self._advance()
            return Number(float(token.text))
        if token.kind == "name":
            self._advance()
            if token.text in VARIABLES:
                return Variable(token.text)
            if self.token.kind == "(":
                if token.text not in FUNCTIONS:
                    raise ExpressionError(
                        f"unknown function {token.text!r}", token.position
                    )
                self._advance()
                argument = self._expr()
                self._expect(")", "')'")
                return FunctionCall(token.text, argument)
            raise ExpressionError(f"unknown identifier {token.text!r}", token.position)
        if token.kind == "(":
            self._advance()
            node = self._expr()
            self._expect(")", "')'")
            return node
        raise ExpressionError(
            "expected a number, 'q', 'n', a function call, or '('", token.position
        )


def parse_deformation(source: str) -> ExpressionTree:
    """Parse expression text into an immutable tree.

    Raises ExpressionError (with a character position) on malformed input,
    unknown identifiers, or unknown function names.
    """
    return _Parser(_tokenize(source)).parse()


def evaluate_tree(tree: ExpressionTree, q: float, n: float) -> float:
    """Evaluate a parsed expression at the point (q, n).

    Raises EvaluationError when the arithmetic leaves the finite reals
    (division by zero, domain errors, overflow, complex powers).
    """
    return _compile(tree)(q, n)


def _compile(tree: ExpressionTree) -> Callable[[float, float], float]:
    """The tree as a function of (q, n) that returns exactly what
    ``evaluate_tree`` returns and raises exactly what it raises."""
    value_at = _closure(tree)

    def law(q: float, n: float) -> float:
        try:
            value = value_at(q, n)
        except ZeroDivisionError as exc:
            raise EvaluationError(f"division by zero at q={q!r}, n={n!r}") from exc
        except OverflowError as exc:
            raise EvaluationError(f"overflow at q={q!r}, n={n!r}") from exc
        except ValueError as exc:
            raise EvaluationError(f"{exc} at q={q!r}, n={n!r}") from exc
        if isinstance(value, complex) or not math.isfinite(value):
            raise EvaluationError(f"non-finite value {value!r} at q={q!r}, n={n!r}")
        return value

    return law


def _closure(node: ExpressionTree) -> Callable[[float, float], float]:
    """Nested closures doing a tree walk's float operations in its order:
    the left operand before the right, then the operator."""
    if isinstance(node, Number):
        value = node.value
        return lambda q, n: value
    if isinstance(node, Variable):
        return (lambda q, n: q) if node.name == "q" else (lambda q, n: n)
    if isinstance(node, Negate):
        operand = _closure(node.operand)
        return lambda q, n: -operand(q, n)
    if isinstance(node, FunctionCall):
        function, argument = FUNCTIONS[node.name], _closure(node.argument)
        return lambda q, n: function(argument(q, n))
    left, right = _closure(node.left), _closure(node.right)
    if node.op == "+":
        return lambda q, n: left(q, n) + right(q, n)
    if node.op == "-":
        return lambda q, n: left(q, n) - right(q, n)
    if node.op == "*":
        return lambda q, n: left(q, n) * right(q, n)
    if node.op == "/":
        return lambda q, n: left(q, n) / right(q, n)

    def power(q: float, n: float) -> float:
        base, exponent = left(q, n), right(q, n)
        result = base**exponent
        if isinstance(result, complex):
            raise EvaluationError(f"complex power {base!r} ^ {exponent!r}")
        return result

    return power


def render(tree: ExpressionTree) -> str:
    """Fully parenthesized text form; re-parsing it yields an equal tree."""
    if isinstance(tree, Number):
        return repr(tree.value)
    if isinstance(tree, Variable):
        return tree.name
    if isinstance(tree, Negate):
        return f"(-{render(tree.operand)})"
    if isinstance(tree, FunctionCall):
        return f"{tree.name}({render(tree.argument)})"
    return f"({render(tree.left)} {tree.op} {render(tree.right)})"
