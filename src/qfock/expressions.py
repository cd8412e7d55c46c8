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
One pattern, ``_TOKEN_RE``, reads the tokens.  A law holds at most 128
operand and operator tokens (each makes one tree node) and at most 128
``(``, so no accepted tree recurses deeply; ``render`` stays within both
limits.  A literal must be finite: ``1e999`` is rejected at its position.
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

_MAX_NODES = 128  # operand and operator tokens; each makes one tree node
_MAX_OPEN = 128  # "(" tokens
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}
_TOKEN_RE = re.compile(
    r"(?P<number>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<operator>[-+*/^()])"
    r"|(?P<space>\s+)"
    r"|(?P<bad>.)"
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) triples, ending with ("end", "", len(source));
    an operator's kind is its own character.  ExpressionError at the first
    token past either limit."""
    tokens = []
    nodes = opened = 0
    for match in _TOKEN_RE.finditer(source):
        kind, text, position = match.lastgroup, match.group(), match.start()
        if kind == "space":
            continue
        if kind == "bad":
            raise ExpressionError(f"unexpected character {text!r}", position)
        if kind == "operator":
            kind = text
        if kind == "(":
            opened += 1
            if opened > _MAX_OPEN:
                raise ExpressionError(f"more than {_MAX_OPEN} '('", position)
        elif kind != ")":
            nodes += 1
            if nodes > _MAX_NODES:
                message = f"more than {_MAX_NODES} operands and operators"
                raise ExpressionError(message, position)
        tokens.append((kind, text, position))
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self._tokens = _tokenize(source)[::-1]  # the next token is last

    @property
    def kind(self) -> str:
        return self._tokens[-1][0]

    def parse(self) -> ExpressionTree:
        tree = self._binary(1)
        kind, text, position = self._tokens[-1]
        if kind != "end":
            raise ExpressionError(f"unexpected trailing input {text!r}", position)
        return tree

    def _binary(self, level: int) -> ExpressionTree:
        """A left-associative chain of the operators of one precedence level
        (1: + and -, 2: * and /) over operands of the level above."""
        node = self._binary(2) if level == 1 else self._factor()
        while _PRECEDENCE.get(self.kind) == level:
            op = self._tokens.pop()[0]
            node = BinaryOp(op, node, self._binary(2) if level == 1 else self._factor())
        return node

    def _factor(self) -> ExpressionTree:
        node = self._unary()
        if self.kind == "^":
            self._tokens.pop()
            node = BinaryOp("^", node, self._factor())
        return node

    def _unary(self) -> ExpressionTree:
        if self.kind == "-":
            self._tokens.pop()
            return Negate(self._unary())
        return self._atom()

    def _atom(self) -> ExpressionTree:
        kind, text, position = self._tokens.pop()
        if kind == "number":
            value = float(text)
            if value == math.inf:
                raise ExpressionError(f"numeric literal {text!r} overflows", position)
            return Number(value)
        if kind == "name":
            if text in VARIABLES:
                return Variable(text)
            if self.kind != "(":
                raise ExpressionError(f"unknown identifier {text!r}", position)
            if text not in FUNCTIONS:
                raise ExpressionError(f"unknown function {text!r}", position)
            return FunctionCall(text, self._atom())  # the "(" branch below
        if kind == "(":
            node = self._binary(1)
            kind, _, position = self._tokens.pop()
            if kind != ")":
                raise ExpressionError("expected ')'", position)
            return node
        raise ExpressionError(
            "expected a number, 'q', 'n', a function call, or '('", position
        )


def parse_deformation(source: str) -> ExpressionTree:
    """Parse expression text into an immutable tree.

    Raises ExpressionError (with a character position) on malformed input,
    unknown identifiers or function names, a literal that overflows, or a
    law past either 128-token limit.
    """
    return _Parser(source).parse()


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
