"""Parser and evaluator tests for deformation expressions."""

import gc

import pytest
from hypothesis import given, settings, strategies as st

from qfock import expressions
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
    expressions._parse.cache_clear()  # an earlier test may have compiled the text
    compiled = []
    compile_law = expressions._compile

    def counting_compile(tree):
        compiled.append(tree)
        return compile_law(tree)

    monkeypatch.setattr(expressions, "_compile", counting_compile)
    scheme = DeformationScheme.custom(source, 1.5)
    for n in range(800):  # the last law overflows from n = 710
        got = _outcome(lambda: eval_d(scheme, n))
        assert got == _outcome(lambda: reference_evaluate_tree(scheme.expr, 1.5, float(n)))
    # a scheme of the same text at another q shares the tree and its law
    other = DeformationScheme.custom(source, 0.5)
    assert other.expr is scheme.expr
    assert eval_d(other, 2) == reference_evaluate_tree(scheme.expr, 0.5, 2.0)
    assert compiled == [scheme.expr]


def test_equal_texts_share_one_tree():
    text = "n + (q - 1)*n*(n - 1)/2"
    copy = "".join(list(text))
    assert copy is not text
    assert parse_deformation(text) is parse_deformation(text) is parse_deformation(copy)


# Hand-built trees may hold any string; the generated code must read each
# one as the walk does (an unknown op is a power, any name but "q" is n, an
# unknown function fails when looked up) and never paste it into source.
HOSTILE = "+ __import__('os').getpid() +"
HOSTILE_TREES = [
    BinaryOp(HOSTILE, Variable("n"), Number(2.0)),
    BinaryOp(HOSTILE, Number(-2.0), Number(0.5)),  # the power's complex check
    Variable(HOSTILE),
    BinaryOp("-", Variable("(q + n)"), Variable("q")),
    Negate(Variable("q\n    return 0")),
    FunctionCall(HOSTILE, Variable("n")),
    FunctionCall("exp", FunctionCall("exp(", Variable("q"))),
    # the left operand's error comes first ...
    BinaryOp("+", BinaryOp("/", Number(1.0), Number(0.0)), FunctionCall(HOSTILE, Variable("n"))),
    # ... and the lookup comes before its argument
    BinaryOp("+", FunctionCall(HOSTILE, BinaryOp("/", Number(1.0), Number(0.0))), Variable("n")),
]
_FIXED_NAMES = {
    "isinstance", "complex", "isfinite", "EvaluationError", "KeyError",
    "ZeroDivisionError", "OverflowError", "ValueError",
}  # fmt: skip


@pytest.mark.parametrize("tree", HOSTILE_TREES)
def test_hand_built_strings_evaluate_as_the_walk_reads_them(tree):
    try:  # a parsed law that renders alike goes first, so a text-keyed cache fails
        evaluate_tree(parse_deformation(render(tree)), 2.0, 3.0)
    except (ExpressionError, EvaluationError):
        pass
    for q, n in ((0.5, 0.0), (2.0, 3.0)):
        got = _outcome(lambda: evaluate_tree(tree, q, n))
        assert got == _outcome(lambda: reference_evaluate_tree(tree, q, n)), (q, n)
    names = set(expressions._compile(tree).__code__.co_names)
    assert {name for name in names if not name.lstrip("g").isdigit()} <= _FIXED_NAMES


def _zero_trees():
    return [
        Number(0.0),
        Number(-0.0),
        BinaryOp("*", Variable("n"), Number(0.0)),
        BinaryOp("*", Variable("n"), Number(-0.0)),
        parse_deformation("n*0.0"),
        parse_deformation("n*(-0.0)"),
        parse_deformation("-(0.0)"),
    ]


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "backward"])
def test_sign_of_zero_survives_the_cache(order):
    # 0.0 == -0.0, so a cache keyed on equal trees would hand one law the
    # other's code; the parsed texts differ, so each gets its own tree
    expressions._parse.cache_clear()
    for tree in _zero_trees()[::order]:
        got = evaluate_tree(tree, 2.0, 3.0)
        assert repr(got) == repr(reference_evaluate_tree(tree, 2.0, 3.0)), tree


def test_compiled_laws_are_kept_up_to_the_bound():
    expressions._parse.cache_clear()
    bound = expressions._CACHE_SIZE
    for k in range(bound + 10):
        assert evaluate_tree(parse_deformation(f"n*{k}"), 1.0, 2.0) == 2.0 * k
    info = expressions._parse.cache_info()
    assert info.currsize == info.maxsize == bound
    assert info.misses == bound + 10


def test_dropped_schemes_leave_no_law_behind():
    # the text cache keeps each parsed tree, so it is emptied to drop them
    expressions._parse.cache_clear()
    start = len(expressions._LAWS)
    for k in range(1000):
        scheme = DeformationScheme.custom(f"n + {k}*n*(n - 1)", 1.5)
        expressions._parse.cache_clear()
        assert scheme.d_values(3)[2] == 2.0 + 2.0 * k
        assert len(expressions._LAWS) == start + 1
    del scheme
    expressions._parse.cache_clear()
    gc.collect()
    assert len(expressions._LAWS) == start


def test_a_reused_id_never_finds_an_earlier_law():
    ids = set()
    for k in range(2000):
        tree = parse_deformation(f"n*{k}")
        ids.add(id(tree))
        assert evaluate_tree(tree, 1.0, 2.0) == 2.0 * k
        del tree
    assert len(ids) < 2000  # the test only means something if ids come back


# The parser bounds what it accepts: at most 128 operand/operator tokens
# (each makes one tree node) and at most 128 "(".  Each builder makes a law
# with k counted tokens; at k = 129 the error sits at the 129th of them.
TOO_MANY = "more than 128 operands and operators"
LIMIT_CASES = [
    ("parentheses", lambda k: "(" * k + "n" + ")" * k, 128, "more than 128 '('"),
    ("minus-chain", lambda k: "-" * (k - 1) + "n", 128, TOO_MANY),
    ("power-chain", lambda k: "-" * (1 - k % 2) + "n^" * ((k - 1) // 2) + "n", 128, TOO_MANY),
    ("plus-chain", lambda k: "-" * (1 - k % 2) + "n+" * ((k - 1) // 2) + "n", 128, TOO_MANY),
    ("nested-exp", lambda k: "exp(" * (k - 1) + "n" + ")" * (k - 1), 512, TOO_MANY),
    # the deepest recursion the limits allow: six parser frames per "-("
    ("negated-parentheses", lambda k: "-(" * (k - 1) + "n" + ")" * (k - 1), 256, TOO_MANY),
]


@pytest.mark.parametrize(
    "build,position,message",
    [case[1:] for case in LIMIT_CASES],
    ids=[case[0] for case in LIMIT_CASES],
)
def test_parser_accepts_128_and_rejects_129(build, position, message):
    tree = parse_deformation(build(128))
    assert parse_deformation(render(tree)) == tree
    try:
        evaluate_tree(tree, 1.5, 0.5)
    except EvaluationError:
        pass
    with pytest.raises(ExpressionError) as err:
        parse_deformation(build(129))
    assert err.value.position == position
    assert str(err.value) == f"{message} (at position {position})"


@pytest.mark.parametrize(
    "source,position",
    [("1e999", 0), ("n+0*1e999", 4), ("1.8e308", 0), ("exp( 2e400)", 5)],
)
def test_overflowing_literal_is_rejected_at_its_position(source, position):
    literal = source[position:].rstrip(")")
    with pytest.raises(ExpressionError) as err:
        parse_deformation(source)
    assert err.value.position == position
    assert str(err.value) == f"numeric literal {literal!r} overflows (at position {position})"


@pytest.mark.parametrize(
    "source,value", [("1e-999", 0.0), ("1.7976931348623157e308", 1.7976931348623157e308)]
)
def test_finite_extreme_literals_are_read(source, value):
    assert parse_deformation(source) == Number(value)


def _parseable(tree):
    """The tree with every number made nonnegative, as the parser makes them."""
    if isinstance(tree, Number):
        return Number(abs(tree.value))
    if isinstance(tree, Negate):
        return Negate(_parseable(tree.operand))
    if isinstance(tree, BinaryOp):
        return BinaryOp(tree.op, _parseable(tree.left), _parseable(tree.right))
    if isinstance(tree, FunctionCall):
        return FunctionCall(tree.name, _parseable(tree.argument))
    return tree


@settings(max_examples=400, deadline=None)
@given(tree=_TREES.map(_parseable))
def test_render_round_trips_random_trees(tree):
    assert parse_deformation(render(tree)) == tree


_TOKEN_TEXTS = [
    "q", "n", "exp", "sqrt", "ln", "sin", "x", "e", "0", "1", "2.5", "3e-2",
    "1e999", "1e-999", "+", "-", "*", "/", "^", "(", ")", "-(", "exp(", " ",
    "\t", ".", "−",
]  # fmt: skip


@settings(max_examples=400, deadline=None)
@given(source=st.lists(st.sampled_from(_TOKEN_TEXTS), max_size=400).map("".join))
def test_random_text_parses_or_fails_with_a_position(source):
    try:
        tree = parse_deformation(source)
    except ExpressionError as err:
        assert 0 <= err.position <= len(source)
        return
    assert parse_deformation(render(tree)) == tree
    for q, n in ((0.5, 0.0), (2.0, 3.0)):
        try:
            evaluate_tree(tree, q, n)
        except EvaluationError:
            pass
