"""Parser and evaluator tests for deformation expressions."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from qfock import expressions
from qfock.deformation import DeformationScheme
from qfock.expressions import (
    FUNCTIONS,
    BinaryOp,
    EvaluationError,
    ExpressionError,
    FunctionCall,
    Negate,
    Number,
    Variable,
    evaluate_band,
    evaluate_tree,
    exponential_parts,
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


# Evaluation against a reference walk of the tree: the same value, bit for
# bit, or the same exception type and message.


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


# (law, q, its parts as exponential_parts gives them, or None)
PARTS_CASES = [
    ("n", 1.0, ((1.0, 1, 1.0),)),
    ("n^2", 1.0, ((1.0, 2, 1.0),)),
    ("n + (q - 1)*n*(n - 1)/2", 1.5, ((0.75, 1, 1.0), (0.25, 2, 1.0))),
    (BM_TEXT, 2.0, ((2.0 / 3.0, 0, 2.0), (-2.0 / 3.0, 0, 0.5))),
    ("2*(1 - 0.5^n)", 1.0, ((2.0, 0, 1.0), (-2.0, 0, 0.5))),
    ("(exp(n) - 1)/(exp(1) - 1)", 1.0, ((1 / (math.e - 1), 0, math.e), (1 / (1 - math.e), 0, 1.0))),
    ("exp(2*n*ln(q) + 1)", 3.0, ((math.e, 0, math.exp(2.0 * math.log(3.0))),)),
    ("n*sinh(q)/sinh(q)", 2.0, ((1.0, 1, 1.0),)),
    ("n^8", 1.0, ((1.0, 8, 1.0),)),
    # outside the class: a function, a divisor or an exponent in n, or bounds
    ("sinh(n*ln(q))/sinh(ln(q))", 2.0, None),
    ("2*n/(3 - n)", 1.0, None),
    ("n^n", 1.0, None),
    ("n^0.5", 1.0, None),
    ("n^9", 1.0, None),
    ("exp(n^2)", 1.0, None),
    ("2^(n*n)", 1.0, None),
    ("exp(q^n)", 2.0, None),
    ("q^(n*q^n)", 2.0, None),
    ("(-2)^n", 1.0, None),
    ("n + 0*ln(2 + n)", 1.0, None),
    (" + ".join(f"{b}^n" for b in range(2, 19)), 1.0, None),  # 17 parts
]


@pytest.mark.parametrize("source, q, parts", PARTS_CASES)
def test_exponential_parts_of_a_law(source, q, parts):
    assert exponential_parts(parse_deformation(source), q) == parts


def _has_n(node):
    if isinstance(node, Variable):
        return node.name == "n"
    if isinstance(node, Number):
        return False
    if isinstance(node, (Negate, FunctionCall)):
        return _has_n(node.operand if isinstance(node, Negate) else node.argument)
    return _has_n(node.left) or _has_n(node.right)


def _integer_power(node, q):
    """The n-free exponent's value if it is an integer 0..8, else None."""
    try:
        value = reference_evaluate_tree(node, q, 0.0)
    except (EvaluationError, KeyError):
        return None
    return int(value) if value == int(value) and 0 <= value <= 8 else None


def _degree(node, q):
    """The written degree in n: n^m counts m, and exp or a power with n in
    its exponent counts 0."""
    if not _has_n(node):
        return 0
    if isinstance(node, Variable):
        return 1
    if isinstance(node, Negate):
        return _degree(node.operand, q)
    if isinstance(node, FunctionCall):
        return 0
    if node.op in "+-":
        return max(_degree(node.left, q), _degree(node.right, q))
    if node.op == "*":
        return _degree(node.left, q) + _degree(node.right, q)
    if node.op == "/":
        return _degree(node.left, q)
    if _has_n(node.left):
        return _degree(node.left, q) * (_integer_power(node.right, q) or 0)
    return 0


def _outside(node, q):
    """True when the tree holds a construct that no finite exponential
    polynomial in n is written with: a function other than exp of n, a
    divisor in n, n in both base and exponent, a base in n raised to
    anything but an integer 0..8, n in the exponent of a base that is not
    positive, or an exponent of written degree 2 or more."""
    if isinstance(node, (Number, Variable)):
        return False
    if isinstance(node, Negate):
        return _outside(node.operand, q)
    if isinstance(node, FunctionCall):
        if _has_n(node.argument) and (node.name != "exp" or _degree(node.argument, q) > 1):
            return True
        return _outside(node.argument, q)
    if _outside(node.left, q) or _outside(node.right, q):
        return True
    if node.op == "/":
        return _has_n(node.right)
    if node.op != "^" or not _has_n(node):
        return False
    if _has_n(node.left):
        return _has_n(node.right) or _integer_power(node.right, q) is None
    try:
        base = reference_evaluate_tree(node.left, q, 0.0)
    except (EvaluationError, KeyError):
        return True
    return not base > 0.0 or _degree(node.right, q) > 1


def _magnitude(node, q, n):
    """A bound on the values either evaluation rounds, at (q, n): each sum
    and product taken over magnitudes, and an exponential's value times
    the magnitude of its exponent and n, by which its rounding grows."""
    if not _has_n(node):
        return abs(reference_evaluate_tree(node, q, n))
    if isinstance(node, Variable):
        return n
    if isinstance(node, Negate):
        return _magnitude(node.operand, q, n)
    value = abs(reference_evaluate_tree(node, q, n))
    if isinstance(node, FunctionCall):  # exp
        return value * (2 + n + _magnitude(node.argument, q, n))
    left = _magnitude(node.left, q, n)
    if node.op in "+-":
        return left + _magnitude(node.right, q, n)
    if node.op == "*":
        return left * _magnitude(node.right, q, n)
    if node.op == "/":
        return left / abs(reference_evaluate_tree(node.right, q, n))
    if _has_n(node.left):
        return left ** _integer_power(node.right, q)
    base = abs(math.log(reference_evaluate_tree(node.left, q, n)))
    return value * (2 + n + base * _magnitude(node.right, q, n))


def _size(node):
    if isinstance(node, (Number, Variable)):
        return 1
    if isinstance(node, (Negate, FunctionCall)):
        return 1 + _size(node.operand if isinstance(node, Negate) else node.argument)
    return 1 + _size(node.left) + _size(node.right)


# Trees written mostly with the class's own constructs, and their misuse:
# n-free subtrees, powers of n-free bases and exps with random exponents,
# and small integer powers.
_FREE = st.recursive(
    st.one_of(st.just(Variable("q")), st.builds(Number, st.floats(-3.0, 3.0))),
    lambda children: st.one_of(
        st.builds(Negate, children),
        st.builds(BinaryOp, st.sampled_from(list("+-*/")), children, children),
        st.builds(FunctionCall, st.sampled_from(sorted(FUNCTIONS)), children),
    ),
    max_leaves=3,
)
_INTEGER = st.integers(0, 3).map(lambda k: Number(float(k)))
_CLASS_TREES = st.recursive(
    st.one_of(_FREE, st.just(Variable("n"))),
    lambda children: st.one_of(
        st.builds(Negate, children),
        st.builds(BinaryOp, st.sampled_from(list("+-*")), children, children),
        st.builds(BinaryOp, st.just("/"), children, _FREE),
        st.builds(BinaryOp, st.just("^"), children, _INTEGER),
        st.builds(BinaryOp, st.just("^"), _FREE, children),
        st.builds(FunctionCall, st.just("exp"), children),
    ),
    max_leaves=8,
)


@settings(max_examples=400, deadline=None)
@given(
    tree=st.one_of(_TREES, _CLASS_TREES),
    q=st.floats(min_value=1e-3, max_value=1e3),
    ns=st.lists(st.integers(0, 40), max_size=4),
)
def test_exponential_parts_on_random_trees(tree, q, ns):
    """None for every tree outside the class; for a recognized tree, the
    parts' value equals ``evaluate_tree``'s within a few ulps, per node of
    the tree, of the magnitudes either side rounds."""
    parts = exponential_parts(tree, q)
    if _outside(tree, q):
        assert parts is None
    if parts is None:
        return
    for n in map(float, ns):
        try:
            want = evaluate_tree(tree, q, n)
            scale = _magnitude(tree, q, n)
        except (EvaluationError, OverflowError):
            continue  # the law, or a bound on its rounding, is out of range
        got = math.fsum(c * n**k * b**n for c, k, b in parts)
        assert abs(got - want) <= 4 * _size(tree) * 2.0**-52 * scale, (n, got, want)


def test_equal_texts_share_one_tree():
    text = "n + (q - 1)*n*(n - 1)/2"
    copy = "".join(list(text))
    assert copy is not text
    assert parse_deformation(text) is parse_deformation(text) is parse_deformation(copy)


# Hand-built trees may hold any string; the evaluator must read each one as
# the reference walk does (an unknown op is a power, any name but "q" is n,
# an unknown function fails when looked up).
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


@pytest.mark.parametrize("tree", HOSTILE_TREES)
def test_hand_built_strings_evaluate_as_the_walk_reads_them(tree):
    try:  # a parsed law that renders alike goes first, so a text-keyed cache fails
        evaluate_tree(parse_deformation(render(tree)), 2.0, 3.0)
    except (ExpressionError, EvaluationError):
        pass
    for q, n in ((0.5, 0.0), (2.0, 3.0)):
        got = _outcome(lambda: evaluate_tree(tree, q, n))
        assert got == _outcome(lambda: reference_evaluate_tree(tree, q, n)), (q, n)


ORDERING_TREES = [
    parse_deformation(source) for source in COMPILED_CASES if source.startswith("ln(0 - q)")
]


def _unprobed(tree, q):
    """A custom scheme at q with any tree as its law: made on the law n,
    then given the tree, so that construction's probes let it through."""
    scheme = DeformationScheme.custom("n", q)
    object.__setattr__(scheme, "expr", tree)
    return scheme


@settings(max_examples=200, deadline=None)
@given(
    tree=st.one_of(_TREES, st.sampled_from(HOSTILE_TREES + ORDERING_TREES)),
    q=st.floats(min_value=1e-3, max_value=1e3),
    start=st.integers(0, 1100),
    length=st.integers(1, 80),
    one_at_a_time=st.booleans(),
)
# d(40) divides by zero, past the count but inside the band read ahead
@example(parse_deformation("39*n/(40 - n)"), 1.0, 0, 10, True)
@example(parse_deformation("exp(n)"), 2.0, 650, 80, False)  # overflows from n = 710
@example(ORDERING_TREES[-1], 2.0, 0, 3, True)
@example(HOSTILE_TREES[-1], 0.5, 2, 5, False)
def test_band_is_the_walk_at_each_n(tree, q, start, length, one_at_a_time):
    """A band whose values are all finite is ``evaluate_tree`` at each n,
    bit for bit, and any other band is None.  A column grown to a count,
    at once or one value at a time as the scan grows it, raises what
    ``evaluate_tree`` raises at the first failing n and keeps the values
    before it; a value it reads past the count never raises."""
    stop = start + length
    want = [_outcome(lambda: evaluate_tree(tree, q, float(n))) for n in range(stop)]
    failing = [n for n, (value, _) in enumerate(want) if not isinstance(value, float)]
    band = evaluate_band(tree, q, map(float, range(start, stop)))
    if failing and failing[-1] >= start:
        assert band is None
    else:
        assert [repr(value) for value in band] == [text for _, text in want[start:]]

    scheme = _unprobed(tree, q)

    def grow():
        for count in range(1, stop + 1) if one_at_a_time else [stop]:
            scheme.d_values(count)

    grown = _outcome(grow)
    column = [repr(value) for value in scheme.d_values(0)]
    if failing:
        assert grown == want[failing[0]]
        assert column == [text for _, text in want[: failing[0]]]
    else:
        assert grown == (None, "None")
        assert column[:stop] == [text for _, text in want]
        assert column[stop:] == [
            repr(evaluate_tree(tree, q, float(n))) for n in range(stop, len(column))
        ]


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
