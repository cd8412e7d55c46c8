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

A tree is evaluated by one recursive walk over a band of n: a subtree
free of n is one float, and a subtree in n is the list of its values,
mapped node by node with the node's operator or function, so the cost of
reading the tree is paid per node, not per value.  ``evaluate_band`` gives
the values at many n (None if any fails); ``evaluate_tree`` is the same
walk at one n, and its errors name q and n.  No law text becomes code.
``parse_deformation`` keeps one tree per text in a bounded least-recently-
used cache, so each distinct law text is parsed once while its tree is
kept; nothing caches a value of a law.

``exponential_parts`` maps a tree at one q to finite parts
d(n) = sum_j c_j n^k_j b_j^n, or to None when the law is written with
anything else; the weighted series sums such a law from its parts.  The
parts are coefficients and bases, not values of d(n).
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import Iterable, Union

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
    "evaluate_band",
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


_CACHE_SIZE = 256  # texts kept with their trees; the least recently used goes first


def parse_deformation(source: str) -> ExpressionTree:
    """Parse expression text into an immutable tree; equal texts get the
    same tree while it is among the last ``_CACHE_SIZE`` texts parsed.

    Raises ExpressionError (with a character position) on malformed input,
    unknown identifiers or function names, a literal that overflows, or a
    law past either 128-token limit.
    """
    return _parse(source)


@lru_cache(maxsize=_CACHE_SIZE)
def _parse(source: str) -> ExpressionTree:
    return _Parser(source).parse()


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def evaluate_tree(tree: ExpressionTree, q: float, n: float) -> float:
    """Evaluate a parsed expression at the point (q, n): the walk of
    ``evaluate_band``, with the one n in place of a band.

    Raises EvaluationError when the arithmetic leaves the finite reals
    (division by zero, domain errors, overflow, complex powers), and
    KeyError for a hand-built tree that names an unknown function.
    """
    try:
        value = _walk(tree, q, n)
    except ZeroDivisionError as exc:
        raise EvaluationError(f"division by zero at q={q!r}, n={n!r}") from exc
    except OverflowError as exc:
        raise EvaluationError(f"overflow at q={q!r}, n={n!r}") from exc
    except ValueError as exc:
        raise EvaluationError(f"{exc} at q={q!r}, n={n!r}") from exc
    if isinstance(value, complex) or not math.isfinite(value):
        raise EvaluationError(f"non-finite value {value!r} at q={q!r}, n={n!r}")
    return value


def evaluate_band(tree: ExpressionTree, q: float, ns: Iterable[float]) -> list[float] | None:
    """The values of a parsed expression at q and each n of ns, in order,
    from one walk of the tree; None when any of them fails, since
    ``evaluate_tree`` at each n names the first failure."""
    ns = list(ns)
    try:
        values = _walk(tree, q, ns)
    except (ArithmeticError, ValueError, KeyError):
        return None
    if not isinstance(values, list):
        values = [values] * len(ns)
    return values if all(map(math.isfinite, values)) else None


def _walk(node: ExpressionTree, q: float, ns: float | list[float]) -> float | list[float]:
    """The node's value: a float when its subtree is free of n or ns is
    one n, else the list of its values at each n of ns.  Nodes are taken
    in a walk's order: the left operand, the right operand, then the
    operator, and a function is looked up before its argument; any name
    but "q" is n, and any op but + - * / is a power."""
    if isinstance(node, Number):
        return node.value
    if isinstance(node, Variable):
        return q if node.name == "q" else ns
    if isinstance(node, Negate):
        value = _walk(node.operand, q, ns)
        return list(map(operator.neg, value)) if isinstance(value, list) else -value
    if isinstance(node, FunctionCall):
        function = FUNCTIONS[node.name]
        value = _walk(node.argument, q, ns)
        return list(map(function, value)) if isinstance(value, list) else function(value)
    left, right = _walk(node.left, q, ns), _walk(node.right, q, ns)
    op = _ARITHMETIC.get(node.op, _power)
    if isinstance(left, list):
        return list(map(op, left, right if isinstance(right, list) else repeat(right)))
    if isinstance(right, list):
        return list(map(op, repeat(left), right))
    return op(left, right)


def _power(left: float, right: float) -> float:
    value = left**right
    if isinstance(value, complex):
        raise EvaluationError(f"complex power {left!r} ^ {right!r}")
    return value


_MAX_PARTS = 16  # parts of one law once like parts are merged
_MAX_DEGREE = 8  # largest power of n in a part


class _Outside(Exception):
    """The subtree is not a finite exponential polynomial in n."""


_Parts = dict[tuple[int, float], float]  # (k, b) -> c of the parts c n^k b^n


def exponential_parts(
    tree: ExpressionTree, q: float
) -> tuple[tuple[float, int, float], ...] | None:
    """The law at q as finite parts d(n) = sum_j c_j n^k_j b_j^n, one
    (c_j, k_j, b_j) triple per part with c_j finite and nonzero and b_j
    positive and finite, like parts (equal k and b) merged; or None.

    Accepted: +, -, *, division by a subtree free of n, a subtree in n
    raised to an integer 0..8, a positive n-free base raised to an affine
    power of n (base^(a + b n) is base^a (base^b)^n), exp of an affine
    argument, and any function of an n-free subtree.  A power or exp is
    affine when its exponent's parts are alpha + beta n alone.  Every
    n-free subtree is evaluated at q with the arithmetic of a tree walk.
    None for any other construct, for an n-free value that raises or is
    complex, for more than 16 parts or a power of n above 8, and for a
    part whose coefficient or base is not finite (or whose base is 0).
    """
    try:
        parts = _parts(tree, q)
    except (_Outside, ArithmeticError, ValueError, KeyError):
        return None
    if not isinstance(parts, dict):
        parts = {(0, 1.0): parts}
    found = tuple((c, k, b) for (k, b), c in parts.items() if c != 0.0)
    if found and all(math.isfinite(c) and 0.0 < b < math.inf for c, _, b in found):
        return found
    return None


def _parts(node: ExpressionTree, q: float) -> float | _Parts:
    """The value of an n-free subtree at q, or the parts of one in n;
    _Outside, or the arithmetic's own error, when it has neither."""
    if isinstance(node, Number):
        return node.value
    if isinstance(node, Variable):
        return q if node.name == "q" else {(1, 1.0): 1.0}
    if isinstance(node, Negate):
        value = _parts(node.operand, q)
        return {key: -c for key, c in value.items()} if isinstance(value, dict) else -value
    if isinstance(node, FunctionCall):
        value = _parts(node.argument, q)
        if not isinstance(value, dict):
            return FUNCTIONS[node.name](value)
        if node.name != "exp":
            raise _Outside
        alpha, beta = _affine(value)
        return {(0, math.exp(beta)): math.exp(alpha)}
    left, right = _parts(node.left, q), _parts(node.right, q)
    op = node.op
    if not isinstance(left, dict) and not isinstance(right, dict):
        return _ARITHMETIC.get(op, _power)(left, right)
    if op in ("+", "-"):
        merged = dict(left) if isinstance(left, dict) else {(0, 1.0): left}
        addend = right if isinstance(right, dict) else {(0, 1.0): right}
        for key, c in addend.items():
            merged[key] = merged.get(key, 0.0) + (c if op == "+" else -c)
        return _bounded(merged)
    if op == "*":
        if not isinstance(left, dict):
            return {key: left * c for key, c in right.items()}
        if not isinstance(right, dict):
            return {key: c * right for key, c in left.items()}
        return _product(left, right)
    if op == "/":
        if isinstance(right, dict):
            raise _Outside
        return {key: c / right for key, c in left.items()}
    if isinstance(left, dict):  # a power of a subtree in n
        if isinstance(right, dict) or right != int(right) or not 0 <= right <= _MAX_DEGREE:
            raise _Outside
        power: _Parts = {(0, 1.0): 1.0}
        for _ in range(int(right)):
            power = _product(power, left)
        return power
    if not left > 0.0:
        raise _Outside
    alpha, beta = _affine(right)
    return {(0, left**beta): left**alpha}


def _affine(parts: _Parts) -> tuple[float, float]:
    """(alpha, beta) of parts alpha + beta n; _Outside for any other parts."""
    if not parts.keys() <= {(0, 1.0), (1, 1.0)}:
        raise _Outside
    return parts.get((0, 1.0), 0.0), parts.get((1, 1.0), 0.0)


def _product(left: _Parts, right: _Parts) -> _Parts:
    product: _Parts = {}
    for (k1, b1), c1 in left.items():
        for (k2, b2), c2 in right.items():
            key = (k1 + k2, b1 * b2)
            if key[0] > _MAX_DEGREE:
                raise _Outside
            product[key] = product.get(key, 0.0) + c1 * c2
    return _bounded(product)


def _bounded(parts: _Parts) -> _Parts:
    if len(parts) > _MAX_PARTS:
        raise _Outside
    return parts


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
