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

A tree is evaluated by generating one straight-line Python function of
(q, n) for it, with one assignment per node in a tree walk's order, so
the values and error messages are those of walking the tree.  Only fixed
text and generated names enter the generated source; literals and
functions are bound as its globals.  ``evaluate_tree`` keeps each live
tree's function, keyed by the tree's identity and dropped when the tree
is collected, so a tree is walked into source once.  ``parse_deformation``
keeps one tree per text in a bounded least-recently-used cache, so each
distinct law text is parsed and compiled once while its tree is kept;
nothing caches a value of a law.
"""

from __future__ import annotations

import math
import re
import weakref
from dataclasses import dataclass
from functools import lru_cache
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


def evaluate_tree(tree: ExpressionTree, q: float, n: float) -> float:
    """Evaluate a parsed expression at the point (q, n).

    Raises EvaluationError when the arithmetic leaves the finite reals
    (division by zero, domain errors, overflow, complex powers).  The
    first call on a tree compiles it with ``_compile``; the law is kept
    while the tree lives, and later calls on the tree only run it.
    """
    try:
        law = _LAWS[id(tree)]
    except KeyError:
        law = _compile(tree)
        # Keyed by identity, not value: Number(0.0) == Number(-0.0), and
        # hashing a tree walks it.  The entry goes with the tree, so a later
        # tree that reuses the id never finds this law.
        weakref.finalize(tree, _LAWS.pop, id(tree), None)
        _LAWS[id(tree)] = law
    return law(q, n)


_LAWS: dict[int, Callable[[float, float], float]] = {}  # id(tree) -> its law
# Spellings of BinaryOp.op: the table's own strings enter the generated
# source, never the tree's.  Any other op is a power, as in a walk of the tree.
_OPERATORS = {"+": "+", "-": "-", "*": "*", "/": "/"}


def _compile(tree: ExpressionTree) -> Callable[[float, float], float]:
    """The tree as a function of (q, n) that returns exactly what a walk
    of the tree returns and raises exactly what ``evaluate_tree`` raises;
    ``evaluate_tree`` calls it once per live tree.

    A walk of the tree writes the source of ``law(q, n)``: one assignment
    per node, in the walk's order (left operand, right operand, then the
    operator), with ``evaluate_tree``'s error mapping around them.  Only
    fixed text and generated names enter the source: literals and
    functions are bound as the globals g0, g1, ... of the namespace the
    source is executed in.
    """
    lines: list[str] = []
    bound: list = []

    def bind(value) -> str:
        bound.append(value)
        return f"g{len(bound) - 1}"

    def walk(node: ExpressionTree) -> str:
        """Write the lines that compute the node; return the name holding it."""
        if isinstance(node, Number):
            return bind(node.value)
        if isinstance(node, Variable):
            return "q" if node.name == "q" else "n"
        if isinstance(node, Negate):
            value = f"-{walk(node.operand)}"
        elif isinstance(node, FunctionCall):
            # The walk looks the function up before it evaluates the argument;
            # only a hand-built tree names a function missing from FUNCTIONS.
            if node.name in FUNCTIONS:
                function = bind(FUNCTIONS[node.name])
            else:
                function = bind(node.name)
                lines.append(f"raise KeyError({function})")
            value = f"{function}({walk(node.argument)})"
        else:
            left, right = walk(node.left), walk(node.right)
            op = _OPERATORS.get(node.op)
            if op is None:  # any other op is a power
                target = f"v{len(lines)}"
                lines.append(f"{target} = {left} ** {right}")
                lines.append(
                    f"if isinstance({target}, complex): "
                    f'raise EvaluationError(f"complex power {{{left}!r}} ^ {{{right}!r}}")'
                )
                return target
            value = f"{left} {op} {right}"
        target = f"v{len(lines)}"
        lines.append(f"{target} = {value}")
        return target

    value = walk(tree)
    body = "\n        ".join(lines) or "pass"
    source = (
        "def law(q, n):\n"
        "    try:\n"
        f"        {body}\n"
        "    except ZeroDivisionError as exc:\n"
        '        raise EvaluationError(f"division by zero at q={q!r}, n={n!r}") from exc\n'
        "    except OverflowError as exc:\n"
        '        raise EvaluationError(f"overflow at q={q!r}, n={n!r}") from exc\n'
        "    except ValueError as exc:\n"
        '        raise EvaluationError(f"{exc} at q={q!r}, n={n!r}") from exc\n'
        f"    if isinstance({value}, complex) or not isfinite({value}):\n"
        f'        raise EvaluationError(f"non-finite value {{{value}!r}} at q={{q!r}}, n={{n!r}}")\n'
        f"    return {value}\n"
    )
    namespace = {f"g{i}": value for i, value in enumerate(bound)}
    namespace.update(EvaluationError=EvaluationError, isfinite=math.isfinite)
    exec(source, namespace)
    return namespace["law"]


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
