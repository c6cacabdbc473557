import hashlib
import inspect
import itertools
import math
from collections import Counter

import numpy as np
import pytest

from filippov.errors import (
    DegenerateSlidingError,
    EvalDomainError,
    ExprSyntaxError,
    UnknownIdentifierError,
)
from filippov import expr
from filippov.core import (TANGENCY_TOL, FilippovSystem, boundary_data,
                           sliding_field)
from filippov.expr import (
    MAX_DEPTH,
    MAX_NESTING,
    BinOp,
    Call,
    Neg,
    Num,
    ScalarField,
    Var,
    VectorField,
    gradient_fd,
    jacobian_fd,
    parse_expr,
)
from filippov.hybrid import return_multiplier
from filippov.simulate import _rk4_tuple
from filippov.stability import Rotational, classify_equilibrium
from oracles import (
    GRADIENT_RTOL,
    GRADIENT_VALUE_RTOL,
    evaluate_tree,
    gradient_reference,
)

# expressions exercised throughout the suite; also the round-trip corpus
CORPUS = [
    "x1",
    "x1 + 2*x2^2",
    "-x1^2",
    "x1*x2 - x3/2",
    "sin(x1)*x2 + cos(x3)",
    "exp(-x1^2 - x2^2)",
    "sqrt(x1^2 + x2^2 + 1)",
    "abs(x1 - x2)",
    "2^3^2 - x1",
    "-(x1 + x2)*x3",
    "1.5e-3*x1 + 2.25",
    "x1^-2 + 1",
    "((x1))",
    "x1 - x2 - x3",
    "x1/(x2 + 10)/2",
]


def test_parse_single_variable():
    assert parse_expr("x1") == Var("x1")


def test_parse_precedence_example():
    tree = parse_expr("x1 + 2*x2^2")
    expected = BinOp("+", Var("x1"),
                     BinOp("*", Num(2.0), BinOp("^", Var("x2"), Num(2.0))))
    assert tree == expected


def test_parse_whitespace_insensitive():
    assert parse_expr(" x1+ x2 ") == parse_expr("x1+x2")


def test_power_right_associative():
    assert ScalarField(parse_expr("2^3^2"))((0, 0, 0)) == 512.0


def test_unary_minus_binds_below_power():
    assert ScalarField(parse_expr("-x1^2"))((2, 0, 0)) == -4.0
    assert ScalarField(parse_expr("2*-3"))((0, 0, 0)) == -6.0


def test_unbalanced_paren_offset():
    with pytest.raises(ExprSyntaxError) as exc_info:
        parse_expr("sin(x3")
    assert exc_info.value.offset == 7
    assert '")"' in exc_info.value.expected


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError):
        parse_expr("x1 + y2")
    with pytest.raises(UnknownIdentifierError):
        parse_expr("tan(x1)")


@pytest.mark.parametrize("opening,closing", [
    ("(", ")"), ("sin(", ")"), ("-", ""), ("2^", ""),
])
def test_nesting_limit(opening, closing):
    ok = opening * MAX_NESTING + "x1" + closing * MAX_NESTING
    parse_expr(ok)
    too_deep = opening + ok + closing
    with pytest.raises(ExprSyntaxError) as exc_info:
        parse_expr(too_deep)
    assert "nesting deeper than" in str(exc_info.value)
    # the offset points into the opening one level too deep
    assert len(opening) * MAX_NESTING < exc_info.value.offset \
        <= len(opening) * (MAX_NESTING + 1)


def test_tree_depth_limit():
    # a sum of n terms is n levels deep; evaluation walks no recursion
    total = " + ".join(["x1"] * MAX_DEPTH)
    assert ScalarField.parse(total)((1.0, 0.0, 0.0)) == MAX_DEPTH
    assert ScalarField.parse(total).compiled_gradient(1.0, 0.0, 0.0) == \
        (MAX_DEPTH, MAX_DEPTH, 0.0, 0.0)
    assert format_expr(parse_expr(total)) == total
    with pytest.raises(ExprSyntaxError) as exc_info:
        parse_expr(total + " - x2")
    assert "expression tree deeper than" in str(exc_info.value)
    assert exc_info.value.offset == 1
    product = "*".join(["x2"] * (MAX_DEPTH + 1))
    with pytest.raises(ExprSyntaxError):
        parse_expr(product)


def test_deepest_trees_compare_print_and_hash():
    # the dataclasses' own ==, repr and hash recurse once or more per
    # level; at MAX_DEPTH they stay inside the recursion limit
    total = " + ".join(f"x{1 + i % 3}" for i in range(MAX_DEPTH))
    one, two = parse_expr(total), parse_expr(total)
    assert one == two and one is not two
    assert repr(one) == repr(two)
    assert hash(one) == hash(two)


def test_empty_and_trailing_garbage():
    with pytest.raises(ExprSyntaxError):
        parse_expr("")
    with pytest.raises(ExprSyntaxError):
        parse_expr("x1 x2")


def test_eval_examples():
    assert ScalarField(parse_expr("x1+x2+x3"))((1, 2, 3)) == 6.0
    assert ScalarField(parse_expr("x1*x2"))((0, 7, -1)) == 0.0


def test_eval_domain_errors():
    with pytest.raises(EvalDomainError):
        ScalarField(parse_expr("1/x1"))((0, 0, 0))
    with pytest.raises(EvalDomainError):
        ScalarField(parse_expr("sqrt(x1)"))((-1, 0, 0))
    with pytest.raises(EvalDomainError):
        ScalarField(parse_expr("x1^0.5"))((-4, 0, 0))
    with pytest.raises(EvalDomainError):
        ScalarField(parse_expr("exp(x1)"))((1e4, 0, 0))


def test_integer_power_of_negative_base_is_fine():
    assert ScalarField(parse_expr("x1^2"))((-3, 0, 0)) == 9.0
    assert ScalarField(parse_expr("x1^3"))((-2, 0, 0)) == -8.0


def test_no_silent_nan():
    # 0 * (1/x1) at x1=0 must error out, not propagate NaN
    with pytest.raises(EvalDomainError):
        ScalarField(parse_expr("(1/x1)*x1"))((0, 0, 0))


# printing (parse -> format -> parse yields an identical tree)
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_PREC_NEG = 3
_PREC_ATOM = 5


def _prec(node) -> int:
    if isinstance(node, BinOp):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return _PREC_NEG
    return _PREC_ATOM


def format_expr(node) -> str:
    """Render a tree back to text with minimal parentheses.

    Reparsing the result reproduces the tree exactly for any tree the
    parser can produce.  (A hand-constructed negative literal formats
    with parentheses and reparses as unary minus of the positive one,
    which is the parser's representation of that value.)
    """
    if isinstance(node, Num):
        if node.value < 0.0 or math.copysign(1.0, node.value) < 0.0:
            return f"({node.value!r})"
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({format_expr(node.arg)})"
    if isinstance(node, Neg):
        inner = format_expr(node.operand)
        if _prec(node.operand) < _PREC_NEG:
            inner = f"({inner})"
        return f"-{inner}"
    assert isinstance(node, BinOp)
    left, right = format_expr(node.left), format_expr(node.right)
    if node.op == "^":
        # '^' is right-associative and binds above unary minus: the left
        # operand must be an atom, the right anything of unary rank or above.
        if _prec(node.left) < _PREC_ATOM:
            left = f"({left})"
        if _prec(node.right) < _PREC_NEG:
            right = f"({right})"
    else:
        prec = _PREC[node.op]
        if _prec(node.left) < prec:
            left = f"({left})"
        if _prec(node.right) <= prec:
            right = f"({right})"
    return f"{left} {node.op} {right}" if node.op in "+-" else f"{left}{node.op}{right}"


@pytest.mark.parametrize("text", CORPUS)
def test_roundtrip_identical_tree(text):
    tree = parse_expr(text)
    assert parse_expr(format_expr(tree)) == tree


@pytest.mark.parametrize("text", CORPUS)
def test_roundtrip_eval_agreement(text):
    tree = parse_expr(text)
    reparsed = parse_expr(format_expr(tree))
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 100:
        point = rng.uniform(-3, 3, size=3)
        try:
            want = ScalarField(tree)(point)
        except EvalDomainError:
            continue
        assert ScalarField(reparsed)(point) == want
        checked += 1


def _random_tree(rng, depth):
    # literals are non-negative, as the parser produces (a leading minus
    # always parses as a Neg node)
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Num(float(np.round(rng.uniform(0, 5), 3)))
        return Var(str(rng.choice(["x1", "x2", "x3"])))
    kind = rng.integers(0, 3)
    if kind == 0:
        return Neg(_random_tree(rng, depth - 1))
    if kind == 1:
        func = str(rng.choice(["sin", "cos", "exp", "sqrt", "abs"]))
        return Call(func, _random_tree(rng, depth - 1))
    op = str(rng.choice(["+", "-", "*", "/", "^"]))
    return BinOp(op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


def _outcome(fn, *args):
    """("value", bits) or ("error", message): equal outcomes are equal
    bit for bit, signed zeros included."""
    try:
        return ("value", float(fn(*args)).hex())
    except EvalDomainError as exc:
        return ("error", str(exc))


# points with zeros, negative coordinates and a large one
_POINTS = list(itertools.product((0.0, -1.5, 0.7, 2.0), repeat=3))
_POINTS += [(-0.0, 3.0, -2.5), (1e200, -1e-3, 0.0), (-4.0, -4.0, -4.0)]


def test_compiled_evaluation_matches_tree_walk():
    rng = np.random.default_rng(5)
    errors = 0
    for _ in range(300):
        tree = _random_tree(rng, 4)
        for point in _POINTS[::5]:
            want = _outcome(evaluate_tree, tree, point)
            assert _outcome(ScalarField(tree), point) == want
            errors += want[0] == "error"
    assert errors > 100  # the corpus reaches the domain errors too



def _call_outcome(field, point):
    """("value", the hex of each float) or ("error", type, message); a
    value that is not a Python float fails."""
    try:
        value = field(point)
    except EvalDomainError as exc:
        return ("error", type(exc), str(exc))
    values = value if isinstance(value, tuple) else (value,)
    assert all(type(v) is float for v in values)
    return ("value", tuple(v.hex() for v in values))


def test_field_calls_give_the_float_outcome_for_numpy_scalars():
    # the generated functions take Python floats (with numpy scalars
    # u ** 2.0 and _pow warn, or read inf, where a float raises
    # "overflow in power"); the fields' calls convert their points
    rng = np.random.default_rng(31)
    powers = [parse_expr(t) for t in ("x1^2.5 + x2^x3", "x1^2", "x2^x3",
                                      "exp(x1) * x2", "x1^-3")]
    scalars = powers + [_random_tree(rng, 4) for _ in range(150)]
    vectors = [(powers[0], powers[1], powers[4])] + [
        tuple(_random_tree(rng, 3) for _ in range(3)) for _ in range(50)]
    points = _POINTS[::3] + [(1e200, 2.0, 3.0), (2.0, 1e200, 3.0),
                             (2.0, 10.0, 400.0), (0.0, -2.0, 1e-300)]
    kinds = Counter()
    for field in ([ScalarField(t) for t in scalars]
                  + [VectorField(v) for v in vectors]):
        for point in points:
            want = _call_outcome(field, point)
            for numpy_point in (tuple(map(np.float64, point)),
                                np.array(point)):
                assert _call_outcome(field, numpy_point) == want, point
            kinds[want[0] if want[0] == "value" else want[2]] += 1
    assert kinds["value"] > 500 and kinds["overflow in power"] >= 6

def test_compiled_vector_field_matches_tree_walk():
    # components evaluate in order, so the first failing one names the
    # error; also where they share subtrees, whose common operations the
    # generated code does once
    rng, shared_rng = np.random.default_rng(6), np.random.default_rng(16)
    corpus = [tuple(_random_tree(rng, 3) for _ in range(3))
              for _ in range(100)]
    corpus += [_shared_subtree_trees(shared_rng) for _ in range(100)]
    shared = 0
    for trees in corpus:
        field = VectorField(trees)
        shared += len(expr._program(trees)[0][0]) < sum(
            len(expr._program((tree,))[0][0]) for tree in trees)
        for point in _POINTS[::7]:
            want = [_outcome(evaluate_tree, t, point) for t in trees]
            failed = [o for o in want if o[0] == "error"]
            try:
                got = [("value", float(v).hex()) for v in field(point)]
            except EvalDomainError as exc:
                got = [("error", str(exc))]
            assert got == (failed[:1] or want)
    assert shared > 50


def _shared_subtree_trees(rng):
    """Three components, each an operation on two of three random
    subtrees."""
    pool = [_random_tree(rng, 3) for _ in range(3)]
    return tuple(BinOp(str(rng.choice(["+", "-", "*", "/", "^"])),
                       pool[rng.integers(3)], pool[rng.integers(3)])
                 for _ in range(3))


def test_shared_powers_are_computed_once():
    # the orbit benchmark's shape: H, f_L and f_R read x2^2 and x3^2, and
    # the generated slide step computes each power once at each point it
    # evaluates them at, with a float exponent: three stages, the end
    # before its projection (H alone) and after it
    texts = ("x1 + 0.3*x2^2 - 0.1*x3^2 + 0.07*x2*x3",
             "-1.2*x1 + x2 - 0.06*x1^2 + 0.2*x2*x3",
             "-5.2*x1 + x3 + 0.25*x2^2 + 0.01*x1*x3",
             "-5*x1 + 0.2*x1*x2 + 0.3*x3^2",
             "-1 - 0.2*x2", "-0.2 + 0.003*x3^2", "-3 - 0.3*x1*x2")
    program = expr._program([parse_expr(text) for text in texts])[0]
    points = expr._source(program, "slide").split("x1, x2, x3 = ")
    for power, read_by_h in (("x1 ** 2.0", False), ("x2 ** 2.0", True),
                             ("x3 ** 2.0", True)):
        counts = [point.count(power) for point in points]
        assert max(counts) == 1, power
        assert sum(counts) == 4 + read_by_h, power


def test_shared_subtrees_keep_the_values_and_the_first_error():
    # three components read a power that overflows at x1 = 1e200 and a
    # subtree nested past _MAX_NESTED levels; each is computed once, and
    # the values, bit for bit, and the first error are the walk's
    deep = Var("x2")
    for _ in range(expr._MAX_NESTED):
        deep = BinOp("+", Call("sin", deep), Var("x3"))
    square = BinOp("^", Var("x1"), Num(2.0))
    trees = (BinOp("*", deep, Var("x3")), BinOp("-", square, deep),
             BinOp("/", deep, square))
    # each subtree's operations once, and the three roots
    assert len(expr._program(trees)[0][0]) == 2 * expr._MAX_NESTED + 4
    field = VectorField(trees)
    outcomes = set()
    for point in ((0.5, 0.3, -0.2), (1e200, 0.3, -0.2), (0.0, 0.3, -0.2),
                  (-1e-200, 1.0, 2.0)):
        want = [_outcome(evaluate_tree, tree, point) for tree in trees]
        failed = [o for o in want if o[0] == "error"]
        want = failed[:1] or want
        for fn in (field.compiled, lambda *x: field.compiled_jacobian(*x)[0]):
            try:
                got = [("value", v.hex()) for v in fn(*point)]
            except EvalDomainError as exc:
                got = [("error", str(exc))]
            assert got == want, point
        outcomes.add(want[0][1] if failed else "value")
    assert outcomes == {"value", "overflow in power", "division by zero"}


@pytest.mark.parametrize("text", [
    "x1^0", "x1^2", "x1^3", "x1^-2", "0^-1", "(1e200)^2", "1/0",
    "sqrt(-1)", "exp(1e4)", "x1^2.5", "(x1 - 1)^0.5", "sin(1e300*x1)",
])
def test_domain_errors_match_tree_walk(text):
    tree = parse_expr(text)
    outcomes = set()
    for x1 in (0.0, -0.0, -2.0, 3.0, 1e200, -1e200):
        point = (x1, 1.0, -1.0)
        want = _outcome(evaluate_tree, tree, point)
        assert _outcome(ScalarField(tree), point) == want
        outcomes.add(want[0])
    if text in ("0^-1", "(1e200)^2", "1/0", "sqrt(-1)", "exp(1e4)"):
        assert outcomes == {"error"}
    if text in ("x1^2", "x1^3", "x1^-2"):
        assert outcomes == {"value", "error"}


def test_fields_of_one_shape_share_their_code():
    # literals, negated ones included, are bound from a tuple: systems that
    # differ only in their coefficients run the same compiled code
    rng = np.random.default_rng(3)
    codes = {"left": set(), "right": set(), "switch": set(), "gradient": set(),
             "jacobian": set()}
    for _ in range(50):
        k = [repr(float(v)) for v in rng.uniform(-3.0, 3.0, size=9)]
        system = FilippovSystem.parse(
            (f"{k[0]}*x1 + x2 + {k[1]}*x1^2", f"{k[2]}*x1 + x3",
             f"{k[3]}*x1 - {k[4]}*x2*x3"),
            (k[5], f"{k[6]} + {k[7]}*sin(x2)", "-1"),
            f"x1 + {k[8]}*x2^2")
        for name in ("left", "right", "switch"):
            codes[name].add(getattr(system, name).compiled.__code__)
        codes["gradient"].add(system.switch.compiled_gradient.__code__)
        codes["jacobian"].add(system.left.compiled_jacobian.__code__)
    assert {name: len(seen) for name, seen in codes.items()} == \
        {"left": 1, "right": 1, "switch": 1, "gradient": 1, "jacobian": 1}


def test_a_shape_seen_before_writes_no_source(monkeypatch):
    # the walk keys the compiled code by the program, not by its source:
    # a system that differs from one seen before only in its coefficients
    # is compiled without writing any source text
    writes = []
    source = expr._source
    monkeypatch.setattr(expr, "_source",
                        lambda *args: writes.append(args) or source(*args))

    def compile_all(k):
        system = FilippovSystem.parse(
            (f"{k}*x1 + x2 - 0.25*x3^3", f"-{k}*x1 + sin(x3)", f"{k}/x2"),
            (f"{k}", "-1", f"exp({k}*x1)"), f"x1 + {k}*x2*x3 + 7")
        for field in (system.left, system.right, system.switch):
            field.compiled(1.0, 2.0, 3.0)
        system.left.compiled_jacobian(1.0, 2.0, 3.0)
        system.switch.compiled_gradient(1.0, 2.0, 3.0)

    expr._binder.cache_clear()
    expr._PROGRAMS.clear()
    compile_all(1.5)
    assert len(writes) == 5  # three value functions and two with derivatives
    compile_all(0.375)
    compile_all(1e-3)
    assert len(writes) == 5


def test_literal_tokens_keep_their_float():
    # a literal's float is parsed once, and the messages that quote a
    # literal show that float
    assert parse_expr("0.1") == Num(0.1)
    assert parse_expr("2.50e-3*x1") == BinOp("*", Num(0.0025), Var("x1"))
    assert parse_expr(".5 + 5.") == BinOp("+", Num(0.5), Num(5.0))
    cases = [
        ("1..2", 1, "bad numeric literal '1..2', expected a number"),
        ("1e", 2, "found 'e', expected end of input or an operator"),
        ("2 3", 3, "found '3.0', expected end of input or an operator"),
        ("x1 2.50", 4, "found '2.5', expected end of input or an operator"),
        (".", 1, "bad numeric literal '.', expected a number"),
    ]
    for text, offset, message in cases:
        with pytest.raises(ExprSyntaxError) as exc_info:
            parse_expr(text)
        assert exc_info.value.offset == offset
        assert str(exc_info.value) == \
            f"syntax error at offset {offset}: {message}"


def test_negative_literal_formats_with_parens():
    # not producible by the parser, but must stay semantically correct
    tree = BinOp("^", Num(-2.0), Num(2.0))
    assert ScalarField(parse_expr(format_expr(tree)))((0, 0, 0)) == 4.0


def test_roundtrip_random_trees():
    rng = np.random.default_rng(0)
    for _ in range(300):
        tree = _random_tree(rng, 4)
        assert parse_expr(format_expr(tree)) == tree


# --------------------------------------------------------------------------
# the skeleton set: a text of a skeleton parsed before is parsed when its
# tree is read
# --------------------------------------------------------------------------

def _with_literals(tree, values):
    """``tree`` with its literals, left to right, replaced by ``values``."""
    if isinstance(tree, Num):
        return Num(next(values))
    if isinstance(tree, Neg):
        return Neg(_with_literals(tree.operand, values))
    if isinstance(tree, Call):
        return Call(tree.func, _with_literals(tree.arg, values))
    if isinstance(tree, BinOp):
        return BinOp(tree.op, _with_literals(tree.left, values),
                     _with_literals(tree.right, values))
    return tree


def _same_tree(got, text):
    want = expr.parse_expr(text)  # the recursive-descent parser, uncached
    assert got == want and repr(got) == repr(want)


def test_cached_trees_are_the_parsers(monkeypatch):
    # a skeleton is parsed on its first sighting; every later text with
    # that skeleton, whatever its literals' values and lengths, is parsed
    # when its tree is read, to the parser's tree
    parsed = []
    parse = expr.parse_expr
    monkeypatch.setattr(expr, "parse_expr",
                        lambda text: parsed.append(text) or parse(text))
    rng = np.random.default_rng(12)
    for _ in range(200):
        expr._SKELETONS.clear()
        parsed.clear()
        tree = _random_tree(rng, 4)
        texts = [format_expr(tree)] * 3
        for _ in range(3):
            values = map(float, 10.0 ** rng.uniform(-20, 20, size=64)
                         * rng.integers(0, 2, size=64))
            texts.append(format_expr(_with_literals(tree, values)))
        fields = [ScalarField.parse(text) for text in texts]
        assert parsed == texts[:1]
        for field, text in zip(fields, texts):
            got, want = field.expr, parse(text)
            assert got == want and repr(got) == repr(want)
        assert parsed == texts
    # a tree at the depth limit too
    parsed.clear()
    total = " + ".join(["1.5*x1"] * (MAX_DEPTH - 1))
    texts = [total.replace("1.5", k) for k in ("1.5", "1.5", "2.5e-300", "7")]
    fields = [ScalarField.parse(text) for text in texts]
    assert parsed == [total]
    for field, text in zip(fields, texts):
        assert field.expr == parse(text)
    assert parsed == texts


def test_cache_keeps_the_parsers_errors():
    ScalarField.parse("x1 + 2.5*x2")
    assert "x1 + #*x2" in expr._SKELETONS
    cases = [
        ("x1 + 1.2.3*x2", 6, "bad numeric literal '1.2.3', expected a number"),
        ("x1 + .*x2", 6, "bad numeric literal '.', expected a number"),
        ("x1 + \u00b2*x2", 6, "bad numeric literal '\u00b2', expected a number"),
        ("x1 + #*x2", 6,
         "unexpected character '#', expected an operand or operator"),
    ]
    for text, offset, message in cases:
        errors = []
        for parse in (lambda text: ScalarField.parse(text).expr,
                      expr.parse_expr):
            with pytest.raises(ExprSyntaxError) as exc_info:
                parse(text)
            errors.append((exc_info.value.offset, str(exc_info.value)))
        assert errors == [(offset, f"syntax error at offset {offset}: "
                           f"{message}")] * 2
    # a non-ASCII digit that float() reads goes to the parser too
    _same_tree(ScalarField.parse("x1 + \u0663*x2").expr, "x1 + \u0663*x2")
    assert ScalarField.parse("x1 + \u0663*x2").expr == \
        ScalarField.parse("x1 + 3*x2").expr


def test_skeletons_keep_their_names():
    # the digits of a variable are part of its name, not a literal
    for _ in range(3):
        assert ScalarField.parse("x1 + x2").expr == \
            BinOp("+", Var("x1"), Var("x2"))
        assert ScalarField.parse("x1 + x3").expr == \
            BinOp("+", Var("x1"), Var("x3"))
        assert ScalarField.parse("2*x1").expr == BinOp("*", Num(2.0), Var("x1"))
        assert ScalarField.parse("2*x3").expr == BinOp("*", Num(2.0), Var("x3"))
        # nor of the program bound from the skeleton
        assert ScalarField.parse("x1 + x2").compiled(1.0, 2.0, 4.0) == 3.0
        assert ScalarField.parse("x1 + x3").compiled(1.0, 2.0, 4.0) == 5.0
    for text in ("x1 + x2", "x1 + x3", "#*x1", "#*x3"):
        assert text in expr._SKELETONS


def test_literal_scan_splits_as_the_tokenizer():
    # the scan finds each literal the tokenizer finds, at the same offset
    # and with the same text, on texts mixing names, exponents and dots
    rng = np.random.default_rng(13)
    alphabet = list("x1e.E+-5_ ")
    for _ in range(4000):
        text = "".join(rng.choice(alphabet, size=rng.integers(1, 12)))
        scanned = [(m.start() + 1, m[1]) for m in expr._LITERAL.finditer(text)]
        try:
            tokens = expr._tokenize(text)
        except ExprSyntaxError as exc:
            # only a literal that float() rejects stops the tokenizer here
            [bad] = [lit for offset, lit in scanned if offset == exc.offset]
            assert f"bad numeric literal '{bad}'" in str(exc)
            tokens = expr._tokenize(text[:exc.offset - 1])
            scanned = [(o, lit) for o, lit in scanned if o < exc.offset]
        assert [(o, float(lit)) for o, lit in scanned] == \
            [(o, value) for kind, value, o in tokens if kind == "num"]


def test_cache_is_bounded():
    # 600 skeletons, each seen twice: the oldest are dropped, and the
    # bound is a constant, with no option on the parsers
    assert list(inspect.signature(parse_expr).parameters) == ["text"]
    assert list(inspect.signature(ScalarField.parse).parameters) == ["text"]
    assert expr._MAX_SKELETONS == 512
    for k in range(600):
        text = "x1" + " " * k + "+ 1"
        for _ in range(2):
            assert ScalarField.parse(text).expr == \
                BinOp("+", Var("x1"), Num(1.0))
            assert len(expr._SKELETONS) <= expr._MAX_SKELETONS
    assert len(expr._SKELETONS) == expr._MAX_SKELETONS
    assert "x1+ #" not in expr._SKELETONS
    assert "x1" + " " * 599 + "+ #" in expr._SKELETONS


def test_a_known_skeleton_is_parsed_when_its_tree_is_read(monkeypatch):
    parsed = []
    parse = expr.parse_expr
    monkeypatch.setattr(expr, "parse_expr",
                        lambda text: parsed.append(text) or parse(text))
    ScalarField.parse("x1 - 0.5*x2^2 + 3e-2")
    VectorField.parse(("x2", "-2*x1 + x3", "sin(x1) - 0.25"))
    parsed.clear()
    scalar = ScalarField.parse("x1 - 1.5*x2^2 + 7e-3")
    texts = ("x2", "-4*x1 + x3", "sin(x1) - 2.5")
    vector = VectorField.parse(texts)
    assert parsed == []
    assert "expr" not in vars(scalar) and "components" not in vars(vector)
    tree = scalar.expr
    assert scalar.expr is tree and tree == parse("x1 - 1.5*x2^2 + 7e-3")
    assert parsed == ["x1 - 1.5*x2^2 + 7e-3"]
    trees = vector.components
    assert vector.components is trees and trees == tuple(map(parse, texts))
    assert parsed == ["x1 - 1.5*x2^2 + 7e-3", *texts]


def test_a_lazy_field_equals_the_parsers():
    # ==, hash and repr of a field not yet parsed are those of the field
    # built from the parser's trees
    for i, text in enumerate(CORPUS):
        texts = (text, CORPUS[i - 1], CORPUS[i - 2])
        ScalarField.parse(text), VectorField.parse(texts)
        for parse, built in (
                (lambda: ScalarField.parse(text),
                 ScalarField(expr.parse_expr(text))),
                (lambda: VectorField.parse(texts),
                 VectorField(tuple(map(expr.parse_expr, texts))))):
            assert not {"expr", "components"} & set(vars(parse()))
            assert parse() == built and built == parse()
            assert hash(parse()) == hash(built)
            assert repr(parse()) == repr(built)


def test_a_vector_field_mixes_new_and_known_texts(monkeypatch):
    expr._SKELETONS.clear()
    ScalarField.parse("x1*x2 - 0.5")
    parsed = []
    parse = expr.parse_expr
    monkeypatch.setattr(expr, "parse_expr",
                        lambda text: parsed.append(text) or parse(text))
    texts = ("x1*x2 - 1.5", "x3^3 - 0.75*x1", "x1*x2 - 2")
    field = VectorField.parse(texts)
    assert parsed == [texts[1]]
    assert field.compiled(1.0, 2.0, 3.0) == (0.5, 26.25, 0.0)
    assert field.components == tuple(map(parse, texts))
    assert parsed == [texts[1], texts[0], texts[2]]


def test_a_program_cache_miss_builds_the_trees(monkeypatch):
    # texts of known skeletons are parsed only when a compile misses the
    # program cache, as a toggled whole exponent makes it do
    parsed, walks = [], []
    parse, walk = expr.parse_expr, expr._program
    monkeypatch.setattr(expr, "parse_expr",
                        lambda text: parsed.append(text) or parse(text))
    monkeypatch.setattr(expr, "_program",
                        lambda *args: walks.append(args) or walk(*args))
    expr._SKELETONS.clear()
    expr._PROGRAMS.clear()
    outcomes = []
    for texts in _toggled_texts():
        parsed.clear()
        system = FilippovSystem.parse(texts[1:4], texts[4:], texts[0])
        unparsed = sorted(set(texts) - set(parsed))
        parsed.clear()
        walks.clear()
        system.slide_step
        assert sorted(parsed) == (unparsed if walks else [])
        outcomes.append((len(walks), len(unparsed)))
    assert (1, 7) in outcomes and (0, 7) in outcomes


def _rotational_texts(k):
    """f_L, f_R and H of a rotational system, (a, b, c, d) = (0.2, 5, 0.2,
    1) at the origin, with nonlinear terms of size ``k``."""
    return ((f"-0.8*x1 + x2 + {k}*x2^2", f"-4.8*x1 + x3 - {k}*x1*x3",
             f"-5*x1 + {k}*sin(x2)"),
            (f"-1 + {k}*x2", "0.2", "-1"), f"x1 + {k}*x2^2")


def test_a_known_system_is_classified_without_a_tree(monkeypatch):
    # once its skeletons parsed and its shapes compiled, a system is
    # classified, and its rates and sliding field bound, from its
    # literals alone
    def run(system):
        verdict = classify_equilibrium(boundary_data(system, (0.0, 0.0, 0.0)))
        assert isinstance(verdict, Rotational)
        return (return_multiplier(verdict.params).value,
                system.rates_and_fields(0.0, 0.0, 0.1),
                sliding_field(system, (0.0, 0.0, 0.1)))

    run(FilippovSystem.parse(*_rotational_texts(0.25)))

    def fail(text):
        raise AssertionError(f"parsed {text!r}")

    for k in (0.5, 0.125):
        system = FilippovSystem.parse(*_rotational_texts(k))
        with monkeypatch.context() as patch:
            patch.setattr(expr, "parse_expr", fail)
            outcome = run(system)
        assert "expr" not in vars(system.switch)
        assert "components" not in vars(system.left)
        assert "components" not in vars(system.right)
        assert outcome == run(FilippovSystem(
            VectorField(system.left.components),
            VectorField(system.right.components),
            ScalarField(system.switch.expr)))


# --------------------------------------------------------------------------
# the program cache: a parsed shape compiled before is bound, not walked
# --------------------------------------------------------------------------

def _bound(fn):
    """A generated function's code and the bits of the constants it reads,
    signed zeros included."""
    return fn.__code__, {name: cell.cell_contents.hex() for name, cell in
                         zip(fn.__code__.co_freevars, fn.__closure__ or ())}


def _compiled(texts):
    """Every generated function of a system parsed from seven texts
    (H, f_L, f_R), each with the bound of the walk it should equal."""
    switch = ScalarField.parse(texts[0])
    left, right = VectorField.parse(texts[1:4]), VectorField.parse(texts[4:])
    return [(switch.compiled, (switch.expr,), "values"),
             (switch.compiled_gradient, (switch.expr,), "derivatives"),
             (left.compiled, left.components, "values"),
             (left.compiled_jacobian, left.components, "derivatives"),
             (expr.compile_step(left, switch),
              (*left.components, switch.expr), "step"),
             (expr.compile_slide_step(switch, left, right, TANGENCY_TOL),
              (switch.expr, *left.components, *right.components), "slide")]


def _assert_walks_equal(cases, walk):
    for fn, roots, layout in cases:
        # the step takes H at its end with a fresh numbering, the slide
        # takes the tangency tolerance
        program, constants, _ = walk(roots, 3 if layout == "step" else None)
        bound = (TANGENCY_TOL,) if layout == "slide" else ()
        want = expr._binder(program, layout)(tuple(constants), *bound)
        assert _bound(fn) == _bound(want), (layout, roots)


# exponents that toggle the program at one skeleton position (^2, ^2.0
# and ^0 are whole, ^2.5 is not, ^-2 and ^-0 are negated constants)
_EXPONENTS = ("2", "2.0", "0", "2.5", "3", "0.0", "2")
_NEGATED_EXPONENTS = ("-2", "-0", "-2.5", "-0.0")


def _toggled_texts():
    for e, f in zip(_EXPONENTS, reversed(_EXPONENTS)):
        yield (f"x1 - 0*x2^{e}", f"x2^{e} + 1", f"-0*x1^{f}", "x3",
               f"-0 + x1^{f}", "-1", f"(x2 - 2)^{e}*x3")
    for e in _NEGATED_EXPONENTS * 2:
        yield (f"x1 + x2^{e}", f"x2^{e} - 0", "-0", "x3", "-0*x1",
               f"1 + x3^{e}", f"x1^{e}")


def test_cached_programs_are_the_walks(monkeypatch):
    # texts of one skeleton with other literals, whole exponents toggled
    # and -0 literals, on a cold and a warm cache: the same code object
    # as the walk's program, with the same constants bit for bit
    walk = expr._program
    walks = []
    monkeypatch.setattr(expr, "_program",
                        lambda *args: walks.append(args) or walk(*args))
    rng = np.random.default_rng(14)
    hits = 0
    for _ in range(60):
        expr._PROGRAMS.clear()
        trees = [_random_tree(rng, 3) for _ in range(7)]
        texts = [tuple(map(format_expr, trees))]
        for _ in range(3):
            values = map(float, np.round(10.0 ** rng.uniform(-3, 3, size=256)
                                         * rng.integers(0, 2, size=256), 1))
            texts.append(tuple(format_expr(_with_literals(t, values))
                               for t in trees))
        for system in texts:
            walks.clear()
            cases = _compiled(system)
            hits += len(cases) - len(walks)
            _assert_walks_equal(cases, walk)
    assert hits > 300  # most shapes were seen before
    expr._PROGRAMS.clear()
    counts = []
    for system in _toggled_texts():
        walks.clear()
        _assert_walks_equal(_compiled(system), walk)
        counts.append(len(walks))
    # a changed whole exponent walks again: ^2.0 after ^2 leaves H's own
    # two programs as they were; a negated exponent is a constant
    assert counts == [6, 4, 6, 6, 6, 6, 6] + [6] + [0] * 7


def test_fields_built_from_trees_walk(monkeypatch):
    walk = expr._program
    walks = []
    monkeypatch.setattr(expr, "_program",
                        lambda *args: walks.append(args) or walk(*args))
    text = "2.5*x1 + x2^2 - 3"
    ScalarField.parse(text).compiled
    known = dict(expr._PROGRAMS)
    walks.clear()
    field = ScalarField(parse_expr(text))
    vector = VectorField((parse_expr(text),) * 3)
    assert field.compiled(1.0, 2.0, 3.0) == 3.5
    assert vector.compiled_jacobian(1.0, 2.0, 3.0)[0] == (3.5,) * 3
    assert len(walks) == 2 and expr._PROGRAMS == known


def test_a_shape_seen_before_is_bound_without_a_walk(monkeypatch):
    # a seen shape neither walks a tree nor hashes a program; a new one is
    # walked once per generated function, so a one-shot run pays nothing
    # more than the walk
    def system_texts(k):
        return (f"x1 - {k}*x2^2 + 1e-3*x3", f"-{k}*x1 + x2", f"x3^3 - {k}",
                f"{k}*x1", f"{k}", "-1", f"-0.5*x2^{k}")

    walk, binder = expr._program, expr._binder
    walks = []
    monkeypatch.setattr(expr, "_program",
                        lambda *args: walks.append(args) or walk(*args))
    cases = _compiled(system_texts(1.5))
    assert len(walks) == len(cases) == 6
    _assert_walks_equal(cases, walk)

    def fail(*args):
        raise AssertionError("walked or hashed a program")

    monkeypatch.setattr(expr, "_program", fail)
    monkeypatch.setattr(expr, "_binder", fail)
    for k in (0.25, 3.5, 7.125):  # the exponent k stays a constant
        cases = _compiled(system_texts(k))
        assert cases[0][0](1.0, 2.0, 3.0) == 1.0 - k * 4.0 + 1e-3 * 3.0
    # a one-shot system through the public path: one walk per function
    monkeypatch.setattr(expr, "_program",
                        lambda *args: walks.append(args) or walk(*args))
    monkeypatch.setattr(expr, "_binder", binder)
    walks.clear()
    system = FilippovSystem.parse(("x2 + 0.125", "x3", "-x1^5"),
                                  ("0.5", "x1", "x3^5"), "x1 + 7e-3*x2")
    system.left.compiled_jacobian, system.switch.compiled_gradient
    system.right.compiled
    system.left_step, system.right_step, system.slide_step
    assert len(walks) == 6


def test_program_cache_is_bounded():
    # 600 skeletons: the oldest are dropped, and the bound is a constant
    assert expr._MAX_PROGRAMS == 512
    for k in range(600):
        text = "x1" + " " * k + "+ 1"
        assert ScalarField.parse(text).compiled(2.0, 0.0, 0.0) == 3.0
        assert len(expr._PROGRAMS) <= expr._MAX_PROGRAMS
    assert len(expr._PROGRAMS) == expr._MAX_PROGRAMS
    assert ("values", ("x1+ #",)) not in expr._PROGRAMS
    assert ("values", ("x1" + " " * 599 + "+ #",)) in expr._PROGRAMS


# --------------------------------------------------------------------------
# exact gradients
# --------------------------------------------------------------------------

def _gradient_outcome(field, point):
    """The four floats of compiled_gradient, or its error message."""
    try:
        return field.compiled_gradient(*(float(v) for v in point))
    except EvalDomainError as exc:
        return str(exc)


def _ulp_sensitivity(tree, point, want) -> float:
    """How far the reference gradient moves when one coordinate of the
    point moves by one ulp.  A float evaluation's values carry rounding
    errors of that size, so an ill-conditioned case (cos of 1e200) may
    differ from the reference by as much."""
    moved = 0.0
    for i in range(3):
        nudged = list(point)
        nudged[i] = math.nextafter(float(nudged[i]), math.inf)
        other = gradient_reference(tree, nudged)
        if other is None:
            return math.inf
        moved = max(moved, *(abs(a - b) for a, b in zip(other, want)))
    return moved


def test_gradient_matches_reference_on_random_trees():
    # the value is compiled's bit for bit, errors are compiled's, and the
    # partials agree with sympy's derivatives (30 digits) to 1e-13 of the
    # largest one, beyond what the point's own rounding moves them
    # (without sympy, with central differences, to their accuracy)
    rng = np.random.default_rng(8)
    compared = undefined = not_finite = 0
    for _ in range(300):
        tree = _random_tree(rng, 4)
        field = ScalarField(tree)
        for point in _POINTS[::5]:
            value = _outcome(field, point)
            got = _gradient_outcome(field, point)
            if value[0] == "error":
                assert got == value[1]
                continue
            if isinstance(got, str):
                assert got == "derivative is not finite"
                not_finite += 1
                continue
            assert float(got[0]).hex() == value[1]
            want = gradient_reference(tree, point)
            if want is None:  # e.g. sympy's form of (-x3)^2.167 at 0
                undefined += 1
                continue
            scale = max(1.0, *map(abs, want))
            tol = (GRADIENT_RTOL * scale + GRADIENT_VALUE_RTOL * abs(got[0])
                   + 8.0 * _ulp_sensitivity(tree, point, want))
            assert max(abs(a - b) for a, b in zip(got[1:], want)) <= tol, \
                (format_expr(tree), point)
            compared += 1
    assert compared > 2000 and not_finite > 20 and undefined < 300


# (text, point, exact gradient): general powers, with hand derivatives
_POWER_CASES = [
    ("(1 + x2^2)^-1", (0.3, -0.7, 2.0),
     (0.0, 1.4 / (1 + 0.49) ** 2, 0.0)),
    ("abs(x1)^1.5", (-0.64, 0.0, 1.0), (-1.5 * 0.8, 0.0, 0.0)),
    ("abs(x1)^1.5", (0.0, 1.0, 1.0), (0.0, 0.0, 0.0)),
    ("x1^-2", (-0.5, 0.0, 0.0), (16.0, 0.0, 0.0)),
    ("x1^2.5", (4.0, 0.0, 0.0), (20.0, 0.0, 0.0)),
    ("x1^3 - x2^0 + x3^1", (-2.0, 5.0, 7.0), (12.0, 0.0, 1.0)),
    ("2^x1", (3.0, 0.0, 0.0), (8.0 * math.log(2.0), 0.0, 0.0)),
    ("(x1 + 3)^x2", (-1.0, 2.0, 0.0), (4.0, 4.0 * math.log(2.0), 0.0)),
    ("x1^(2*x2)", (-3.0, 1.0, 0.0), None),  # d/dx2 needs log(-3)
    ("sqrt(x1)", (0.0, 1.0, 1.0), None),  # 1 / (2 sqrt(0))
    ("x1^0.5", (0.0, 1.0, 1.0), None),
    # sqrt(u) at u = 0, times a tangent of u that is 0 there, gives 0, as
    # abs's derivative at 0 does: the product is C^1 with zero partials
    ("x1*sqrt(x1^2 + x2^2)", (0.0, 0.0, 1.0), (0.0, 0.0, 0.0)),
    ("x2*(x1^2 + x2^2)^0.5", (0.0, 0.0, 1.0), (0.0, 0.0, 0.0)),
    ("sqrt(x1^2)", (0.0, 0.0, 1.0), (0.0, 0.0, 0.0)),
    ("sqrt(x1^2 + x2)", (0.0, 0.0, 1.0), None),  # a tangent of 1 in x2
]


@pytest.mark.parametrize("text, point, want", _POWER_CASES)
def test_gradient_of_general_powers(text, point, want):
    field = ScalarField.parse(text)
    got = _gradient_outcome(field, point)
    if want is None:  # the value is defined, a partial derivative is not
        field(point)
        assert got == "derivative is not finite"
        return
    assert got[0] == field(point)
    assert max(abs(a - b) for a, b in zip(got[1:], want)) <= \
        1e-14 * max(1.0, *map(abs, want))
    reference = gradient_reference(parse_expr(text), point)
    if reference is not None:
        assert max(abs(a - b) for a, b in zip(got[1:], reference)) <= \
            GRADIENT_RTOL * max(1.0, *map(abs, want))


def test_gradient_of_literals_and_variables_costs_no_line():
    # zero and unit tangents are propagated while generating: c*x1 + x2
    # has the tangent (c, 1, 0), and no tangent assignment is emitted
    code = ScalarField.parse("2.5*x1 + x2 - 3").compiled_gradient.__code__
    assert not any(name.startswith("d") for name in code.co_varnames)
    assert ScalarField.parse("2.5*x1 + x2 - 3").compiled_gradient(
        1.0, 2.0, 3.0) == (1.5, 2.5, 1.0, 0.0)


def test_sliding_field_takes_its_tolerance():
    # the tolerance is bound, not compiled: two tolerances share one code
    switch = ScalarField.parse("x1")
    left = VectorField.parse(("1 + x2", "x2", "0"))
    right = VectorField.parse(("1", "0", "0"))
    loose, tight = (expr.compile_slide_step(switch, left, right, tol)
                    for tol in (1e-3, TANGENCY_TOL))
    assert loose.__code__ is tight.__code__
    # at the end of a step the field is None where degenerate; a stage
    # raises
    assert tight(0.0, 1e-6, 0.0)[5:] == (0.0, pytest.approx(-1.0), 0.0)
    assert loose(0.0, 1e-6, 0.0)[5:] == (None, None, None)
    with pytest.raises(DegenerateSlidingError,
                       match=r"normal rates coincide \(1\.000e\+00 vs "
                             r"1\.000e\+00\)"):
        loose(0.0, 1e-6, 0.0, 0.1, 0.0, 0.0, 0.0)


def _step_composition(system, x, h):
    """The regular step as Python composes it: _rk4_tuple of the left
    field's compiled function, then H at the end."""
    end = _rk4_tuple(system.left.compiled, x, h)
    return (*end, system.switch.compiled(*end))


def _slide_composition(system, x, h=0.0, *k1):
    """The slide step as Python composes it: _rk4_tuple of the sliding
    field with the first stage k1 (none for h = 0), projected along
    grad H, then the rates at the projected point and the sliding field
    there, or three Nones where it is degenerate."""
    if h:
        first = [k1]
        x = _rk4_tuple(lambda *y: first.pop() if first else
                       sliding_field(system, y), x, h)
    value, g1, g2, g3 = system.switch.compiled_gradient(*x)
    gg = g1 * g1 + g2 * g2 + g3 * g3
    if gg != 0.0:
        s = value / gg
        x = (x[0] - s * g1, x[1] - s * g2, x[2] - s * g3)
    rates = system.rates_and_fields(*x)
    try:
        field = sliding_field(system, x)
    except DegenerateSlidingError:
        field = (None,) * 3
    return (*x, *rates[:2], *field)


def _step_outcome(step, *args):
    """("value", the hex of each float, None kept) or (error type,
    message)."""
    try:
        return "value", tuple(v if v is None else float(v).hex()
                              for v in step(*args))
    except (EvalDomainError, DegenerateSlidingError) as exc:
        return type(exc).__name__, str(exc)


def test_steps_are_the_compositions_bit_for_bit():
    # the generated regular and slide steps return what the Python
    # compositions of the generated fields return, bit for bit, and raise
    # the first error they raise, with its message; for systems built from
    # trees, and for the same systems parsed from text twice
    rng = np.random.default_rng(17)
    outcomes = Counter()
    for _ in range(80):
        trees = [_random_tree(rng, 3) for _ in range(7)]
        texts = [format_expr(tree) for tree in trees]
        systems = [FilippovSystem(VectorField(trees[1:4]),
                                  VectorField(trees[4:]), ScalarField(trees[0])),
                   *(FilippovSystem.parse(texts[1:4], texts[4:], texts[0])
                     for _ in range(2))]
        for system in systems:
            for point in _POINTS[::3]:
                point = tuple(map(float, point))
                want = _step_outcome(_step_composition, system, point, 0.05)
                assert _step_outcome(system.left_step, *point, 0.05) == want
                outcomes["step", want[0]] += 1
                k1 = tuple(map(float, rng.uniform(-2.0, 2.0, size=3)))
                for args in ((), (0.05, *k1)):
                    want = _step_outcome(_slide_composition, system, point,
                                         *args)
                    assert _step_outcome(system.slide_step, *point,
                                         *args) == want
                    outcomes["slide", want[0] if want[0] != "value" else
                             "degenerate" if want[1][-1] is None
                             else "value"] += 1
    # the corpus reaches every outcome: a value, a domain error, a
    # degenerate stage and a degenerate end
    assert min(outcomes["step", "value"], outcomes["slide", "value"],
               outcomes["step", "EvalDomainError"],
               outcomes["slide", "EvalDomainError"],
               outcomes["slide", "DegenerateSlidingError"],
               outcomes["slide", "degenerate"]) > 1000, outcomes


def _deepest_trees():
    """Trees of MAX_DEPTH levels: a chain of every operation, a sum
    nested to the left, and a chain of cos and products."""
    chain = Var("x1")
    for i in range(MAX_DEPTH - 1):
        kind = i % 7
        chain = (Neg(chain) if kind == 0 else
                 Call("sin", chain) if kind == 1 else
                 BinOp("*", Num(1.25), chain) if kind == 2 else
                 BinOp("+", chain, Var("x2")) if kind == 3 else
                 BinOp("/", chain, Num(1.5)) if kind == 4 else
                 BinOp("^", chain, Num(1.0)) if kind == 5 else
                 BinOp("-", Var("x3"), chain))
    left = right = Var("x2")
    for i in range(MAX_DEPTH - 1):
        left = BinOp("+", left, Var(f"x{1 + i % 3}"))
        right = BinOp("*", Num(1.001), right) if i % 2 else Call("cos", right)
    return chain, left, right


def test_deepest_trees_compile_in_every_layout():
    # a MAX_DEPTH tree nests no deeper than CPython allows in any layout,
    # and its value is the recursive walk's
    trees = _deepest_trees()
    assert [expr._depth(tree) for tree in trees] == [MAX_DEPTH] * 3
    point = (0.3, -0.7, 0.4)
    want = [evaluate_tree(tree, point) for tree in trees]
    switch = ScalarField(BinOp("+", Var("x1"), trees[0]))
    left, right = VectorField(trees), VectorField(trees[::-1])
    for tree, value in zip(trees, want):
        assert ScalarField(tree).compiled(*point) == value
        assert ScalarField(tree).compiled_gradient(*point)[0] == value
    assert left.compiled(*point) == tuple(want)
    assert left.compiled_jacobian(*point)[0] == tuple(want)
    system = FilippovSystem(left, right, switch)
    rates = system.rates_and_fields(*point)
    assert rates[2] == tuple(want) and rates[3] == tuple(want[::-1])
    assert rates[4][0] == point[0] + want[0]
    assert system.left_step(*point, 1e-3) == \
        _step_composition(system, point, 1e-3)
    k1 = sliding_field(system, point)
    assert system.slide_step(*point, 1e-3, *k1) == \
        _slide_composition(system, point, 1e-3, *k1)


# the SHA-256 of the generated source of every layout over
# _source_corpus(): a change to the generator that moves any line of it
# updates this pin on purpose
_SOURCE_SHA256 = \
    "e8babe434b22b8d62c6e984f350cda891034cf303e20d38c536473fbb73c3bf3"


def _source_corpus():
    """(switch, left, right) trees: CORPUS in turn, seeded random trees,
    and the deepest trees."""
    trees = [parse_expr(text) for text in CORPUS]
    n = len(trees)
    systems = [(trees[i], tuple(trees[(i + j) % n] for j in (1, 2, 3)),
                tuple(trees[(i + j) % n] for j in (4, 5, 6)))
               for i in range(n)]
    rng = np.random.default_rng(11)
    for _ in range(40):
        switch, *rest = (_random_tree(rng, 4) for _ in range(7))
        systems.append((switch, tuple(rest[:3]), tuple(rest[3:])))
    chain, left, right = _deepest_trees()
    systems.append((chain, (chain, left, right), (right, left, chain)))
    return systems


def test_generated_source_is_pinned():
    # the four layouts write, line for line, what they wrote when pinned
    digest = hashlib.sha256()
    for switch, left, right in _source_corpus():
        for roots, layout, fresh in (
                ((switch,), "values", None), (left, "values", None),
                ((switch,), "derivatives", None), (left, "derivatives", None),
                ((*left, switch), "step", 3),
                ((switch, *left, *right), "slide", None)):
            program = expr._program(roots, fresh)[0]
            digest.update(expr._source(program, layout).encode())
    assert digest.hexdigest() == _SOURCE_SHA256


def test_a_line_runs_after_the_operations_the_walk_does_first():
    # x1^-1.5 waits to be added, x3^1.5 is kept by the tangent of its
    # product: the first error at x1 = 0, x3 < 0 is the power the walk
    # takes first
    field = ScalarField.parse("x1^-1.5 + x2*x3^1.5")
    for fn in (field.compiled, field.compiled_gradient):
        with pytest.raises(EvalDomainError,
                           match="^0.0 cannot be raised to a negative power$"):
            fn(0.0, 1.0, -1.0)


def test_generated_programs_have_their_own_labels():
    # a profile keys its entries on (file, line, name): each program is
    # compiled under its own file name, which names its layout
    system = FilippovSystem.parse(("x2", "-x1 + 0.5*x1^2", "x3"),
                                  ("-1", "sin(x2)", "x1"), "x1 + x2*x3")
    functions = {"values": (system.left.compiled, system.switch.compiled),
                 "derivatives": (system.left.compiled_jacobian,
                                 system.switch.compiled_gradient),
                 "step": (system.left_step, system.right_step),
                 "slide": (system.slide_step,)}
    labels = set()
    for layout, fns in functions.items():
        for fn in fns:
            code = fn.__code__
            assert code.co_name == layout
            assert code.co_filename.startswith(f"<filippov.expr:{layout}:")
            labels.add((code.co_filename, code.co_firstlineno, code.co_name))
    assert len(labels) == 7


# --------------------------------------------------------------------------
# finite differences
# --------------------------------------------------------------------------

def test_gradient_linear_exact():
    field = ScalarField.parse("x1")
    grad = gradient_fd(field, (0, 0, 0))
    assert np.max(np.abs(grad - [1, 0, 0])) <= 1e-9
    affine = ScalarField.parse("2*x1 - 3*x2 + 0.5*x3 + 7")
    grad = gradient_fd(affine, (0.3, -1.2, 4.0))
    assert np.max(np.abs(grad - [2, -3, 0.5])) <= 1e-9


def test_gradient_square():
    grad = gradient_fd(ScalarField.parse("x1^2"), (3, 0, 0))
    assert abs(grad[0] - 6.0) <= 1e-6 * 6.0


def test_gradient_product_vs_hand_derivative():
    # d/dx (sin(x1) x2) = (x2 cos x1, sin x1, 0); at (0, 2, 0) -> (2, 0, 0)
    grad = gradient_fd(ScalarField.parse("sin(x1)*x2"), (0, 2, 0))
    assert np.max(np.abs(grad - [2, 0, 0])) <= 1e-6


def test_gradient_domain_error_near_boundary():
    with pytest.raises(EvalDomainError):
        gradient_fd(ScalarField.parse("sqrt(x1)"), (0, 0, 0))


def test_jacobian_identity_and_shift():
    jac = jacobian_fd(VectorField.parse(["x1", "x2", "x3"]), (0.2, -0.4, 1.0))
    assert np.max(np.abs(jac - np.eye(3))) <= 1e-9
    jac = jacobian_fd(VectorField.parse(["x2", "x3", "0"]), (1, 2, 3))
    want = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0.0]])
    assert np.max(np.abs(jac - want)) <= 1e-9


# polynomial fields with hand-written Jacobians (the symbolic oracle)
_POLY_CASES = [
    (
        ["x1^2 + x2*x3", "x1*x2 - x3^2", "x2^3"],
        lambda x: np.array([
            [2 * x[0], x[2], x[1]],
            [x[1], x[0], -2 * x[2]],
            [0.0, 3 * x[1] ** 2, 0.0],
        ]),
    ),
    (
        ["x1*x2*x3", "x1^3 - x2", "x1 + x2^2*x3"],
        lambda x: np.array([
            [x[1] * x[2], x[0] * x[2], x[0] * x[1]],
            [3 * x[0] ** 2, -1.0, 0.0],
            [1.0, 2 * x[1] * x[2], x[1] ** 2],
        ]),
    ),
    (
        ["2*x1 - x3^3", "x2^2 + x1*x3", "x3"],
        lambda x: np.array([
            [2.0, 0.0, -3 * x[2] ** 2],
            [x[2], 2 * x[1], x[0]],
            [0.0, 0.0, 1.0],
        ]),
    ),
]


@pytest.mark.parametrize("exprs,jac_fn", _POLY_CASES)
def test_jacobian_polynomial_vs_symbolic(exprs, jac_fn):
    field = VectorField.parse(exprs)
    rng = np.random.default_rng(11)
    for _ in range(25):
        point = rng.uniform(-2, 2, size=3)
        want = jac_fn(point)
        got = jacobian_fd(field, point)
        scale = max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) <= 1e-6 * scale
        values, exact = field.compiled_jacobian(*map(float, point))
        assert values == field.compiled(*map(float, point))
        assert np.max(np.abs(np.array(exact) - want)) <= 1e-13 * scale


def _jacobian_outcome(field, point):
    """compiled_jacobian's values and rows, or its error message."""
    try:
        return field.compiled_jacobian(*(float(v) for v in point))
    except EvalDomainError as exc:
        return str(exc)


def test_jacobian_matches_reference_on_random_trees():
    # the values are compiled's bit for bit and its errors are compiled's;
    # each row is the component's compiled gradient bit for bit, and
    # agrees with sympy's partial derivatives to 1e-13 of the row's
    # largest entry, beyond what the point's own rounding moves them
    rng = np.random.default_rng(12)
    compared = not_finite = 0
    for _ in range(100):
        trees = tuple(_random_tree(rng, 3) for _ in range(3))
        field = VectorField(trees)
        for point in _POINTS[::7]:
            got = _jacobian_outcome(field, point)
            try:
                values = field.compiled(*map(float, point))
            except EvalDomainError as exc:
                assert got == str(exc)
                continue
            gradients = [_gradient_outcome(ScalarField(tree), point)
                         for tree in trees]
            if isinstance(got, str):
                assert got == "derivative is not finite"
                assert "derivative is not finite" in gradients
                not_finite += 1
                continue
            assert got[0] == values
            for tree, row, gradient in zip(trees, got[1], gradients):
                assert (gradient[0], *row) == gradient
                want = gradient_reference(tree, point)
                if want is None:
                    continue
                tol = (GRADIENT_RTOL * max(1.0, *map(abs, want))
                       + GRADIENT_VALUE_RTOL * abs(gradient[0])
                       + 8.0 * _ulp_sensitivity(tree, point, want))
                assert max(abs(a - b) for a, b in zip(row, want)) <= tol, \
                    (format_expr(tree), point)
                compared += 1
    assert compared > 300 and not_finite > 5


def test_jacobian_derivative_not_finite():
    # the values are defined, a partial derivative is not
    field = VectorField.parse(["x1", "sqrt(x2)", "x3^0.5"])
    assert field.compiled(1.0, 0.0, 4.0) == (1.0, 0.0, 2.0)
    for point in ((1.0, 0.0, 4.0), (1.0, 4.0, 0.0)):
        with pytest.raises(EvalDomainError,
                           match="^derivative is not finite$"):
            field.compiled_jacobian(*point)
    assert field.compiled_jacobian(1.0, 4.0, 4.0) == ((1.0, 2.0, 2.0), (
        (1.0, 0.0, 0.0), (0.0, 0.25, 0.0), (0.0, 0.0, 0.25)))


def test_fields_reject_bad_shapes():
    with pytest.raises(ValueError):
        VectorField.parse(["x1", "x2"])


@pytest.mark.parametrize("point", [(1.0, 2.0), (1.0, 2.0, 0.0, 7.0)],
                         ids=["two", "four"])
def test_a_point_has_three_coordinates(point):
    # the fields and the stencil refuse a point of another length rather
    # than read its first three coordinates
    scalar = ScalarField.parse("x1 + x2")
    vector = VectorField.parse(["x1", "x2", "x1*x2"])
    for call in (scalar, vector, lambda p: gradient_fd(scalar, p),
                 lambda p: gradient_fd(lambda q: q[0] * q[1], p),
                 lambda p: jacobian_fd(vector, p),
                 lambda p: jacobian_fd(tuple, p)):
        with pytest.raises(ValueError):
            call(point)
        with pytest.raises(ValueError):
            call(np.array(point))


def test_scalar_field_is_callable():
    f = ScalarField.parse("x1 + x2*x3")
    assert f((1.0, 2.0, 3.0)) == 7.0
    assert f(np.array([1.0, 2.0, 3.0])) == 7.0


def test_trees_are_hashable_and_reusable():
    tree = parse_expr("x1 + x2")
    assert hash(tree) == hash(parse_expr("x1 + x2"))
    assert ScalarField(tree)((1, 1, 0)) == 2.0
    assert ScalarField(tree)((2, 2, 0)) == 4.0
