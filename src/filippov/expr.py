"""Small expression language over the state variables x1, x2, x3.

Vector fields and switching functions are written as plain text, e.g.
``"x2 - 0.5*x1^2"``.  The grammar supports numeric literals, the three
variables, ``+ - * / ^`` (``^`` binds tightest and is right-associative,
then unary minus, then ``* /``, then ``+ -``), parentheses, and the
functions sin, cos, exp, sqrt, abs.  Whitespace is ignored.  Parentheses,
calls, unary minus and ``^`` nest at most :data:`MAX_NESTING` levels, and
a tree is at most :data:`MAX_DEPTH` levels deep (a sum of n terms is n
deep); deeper text is an :class:`~filippov.errors.ExprSyntaxError`.  At
that depth the trees' own recursive ``==``, ``repr`` and ``hash`` stay
well inside Python's recursion limit (they fail from about 320 levels
under pytest, 340 in a bare process).

A field parsed from text builds its tree only when the tree is read.
The tree depends on the tokens' kinds, and on a literal's value only
through the ``Num`` node it becomes, so a text's *skeleton* -- the text
with each numeric literal replaced by ``#`` -- decides whether it parses.
:meth:`ScalarField.parse` and :meth:`VectorField.parse` keep a text
whose skeleton parsed before (a bounded set of the last 512) and whose
literals ``float`` all takes, and parse it on the first read of ``expr``
or ``components``.  Every other text -- one with ``#`` or a non-ASCII
character, a literal that ``float`` rejects, a new skeleton -- is parsed
at once, so the trees and the errors are the parser's.
:func:`parse_expr`, the recursive-descent parser, makes every tree and error.

Parsed expressions are immutable trees.  A field is evaluated by one
generated Python function of (x1, x2, x3): straight-line code that does
the operations in the order a recursive walk of the tree would, so its
results and its first error are bit for bit those of the walk.  An
operation whose value only its parent reads is nested in the parent's
expression; the others are assigned to names.
The function's source holds generated names only.  Literals are bound
from a tuple, so fields that differ only in their coefficients share one
compiled code object.  Evaluation either returns a finite float or
raises :class:`~filippov.errors.EvalDomainError` -- NaN and infinity
never propagate silently.  There are four layouts: a field's values,
alone or with exact first derivatives, and the simulator's two steps
(:func:`compile_step`, :func:`compile_slide_step`), which repeat that
code at each RK4 stage point.

A shape compiled before is not walked again.  Each literal becomes a
constant, in the order of the text, negated where it sits directly under
a ``Neg``, except a literal exponent that is a whole non-negative number,
which becomes part of the code.  So the program of a field parsed from
text is fixed by its layout, its texts' skeletons and those whole
exponents.  :meth:`ScalarField.parse` and :meth:`VectorField.parse` keep
the literal scan of the parse, outside ``==``, ``repr`` and ``hash``;
the first compile of a shape walks its trees and records where each
constant comes from, and every later field with those skeletons and
whole exponents is bound straight from its literals' floats, without
reading its trees (a bounded cache of 512 shapes).  A field built from
trees is walked.

First derivatives are exact: the generator differentiates the same
straight-line code in forward mode, emitting tangent assignments after
the value assignments (:attr:`ScalarField.compiled_gradient`,
:attr:`VectorField.compiled_jacobian`).  One central-difference stencil,
:func:`jacobian_fd`, with :func:`gradient_fd` its one-row case, remains
only for second derivatives and tests.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .errors import (DegenerateSlidingError, EvalDomainError, ExprSyntaxError,
                     UnknownIdentifierError)

__all__ = [
    "Expr", "Num", "Var", "Neg", "BinOp", "Call",
    "parse_expr",
    "ScalarField", "VectorField", "compile_step", "compile_slide_step",
    "gradient_fd", "jacobian_fd", "FD_REL_STEP", "MAX_NESTING", "MAX_DEPTH",
]

VARIABLES = ("x1", "x2", "x3")
FUNCTIONS = ("sin", "cos", "exp", "sqrt", "abs")

# Input limits, so that the recursive parser and the dataclasses'
# ``==``/``repr``/``hash`` stay well inside Python's recursion limit: one
# nesting level costs the parser up to six frames, one tree level costs
# ``==`` or ``repr`` about three.  (Evaluation walks trees without
# recursion.)
MAX_NESTING = 100
MAX_DEPTH = 250

# Relative step for central differences: ~cbrt(eps) scaled, balancing
# truncation against round-off for twice-differentiable fields.
FD_REL_STEP = 6e-6


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str  # one of VARIABLES


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str  # one of FUNCTIONS
    arg: "Expr"


# ``|``, not ``typing.Union``, as for every union of the package's
# classes: typing caches its unions, and a cached one would keep the
# classes of an earlier import of the package, and through them all its
# modules, alive
Expr = Num | Var | Neg | BinOp | Call
# trees are immutable, so every parsed variable can be one of these
_VAR_NODES = {name: Var(name) for name in VARIABLES}


# --------------------------------------------------------------------------
# tokenizer / parser
# --------------------------------------------------------------------------

_OPERATOR_CHARS = "+-*/^()"


# a name's characters: ``\w`` is str.isalnum() or "_"
_NAME = re.compile(r"\w*")


def _tokenize(text: str) -> list[tuple[str, str | float, int]]:
    """Return (kind, value, offset) triples; offsets are 1-based.  A
    literal's value is its float."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPERATOR_CHARS:
            tokens.append(("op", ch, i + 1))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lit = text[i:j]
            try:
                value = float(lit)
            except ValueError:
                raise ExprSyntaxError(f"bad numeric literal '{lit}'", i + 1,
                                      expected="a number") from None
            tokens.append(("num", value, i + 1))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = _NAME.match(text, i).end()
            tokens.append(("ident", text[i:j], i + 1))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i + 1,
                              expected="an operand or operator")
    tokens.append(("eof", "", n + 1))
    return tokens


def _too_deep(what: str, limit: int, offset: int) -> ExprSyntaxError:
    return ExprSyntaxError(f"{what} deeper than {limit} levels", offset,
                           expected="a shallower expression")


class _Parser:
    """Recursive descent; ``level`` counts the recursions under way."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.level = 0

    def expect_op(self, op: str) -> None:
        kind, value, offset = self.tokens[self.pos]
        if kind == "op" and value == op:
            self.pos += 1
            return
        found = "end of input" if kind == "eof" else f"'{value}'"
        raise ExprSyntaxError(f"found {found}", offset, expected=f'"{op}"')

    def nested(self, rule, offset: int) -> Expr:
        """``rule()``, one level deeper."""
        if self.level == MAX_NESTING:
            raise _too_deep("nesting", MAX_NESTING, offset)
        self.level += 1
        node = rule()
        self.level -= 1
        return node

    # expr := term (('+'|'-') term)*
    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, value, _ = self.tokens[self.pos]
            if kind == "op" and value in "+-":
                self.pos += 1
                node = BinOp(value, node, self.term())
            else:
                return node

    # term := unary (('*'|'/') unary)*
    def term(self) -> Expr:
        node = self.unary()
        while True:
            kind, value, _ = self.tokens[self.pos]
            if kind == "op" and value in "*/":
                self.pos += 1
                node = BinOp(value, node, self.unary())
            else:
                return node

    # unary := '-' unary | power
    def unary(self) -> Expr:
        kind, value, offset = self.tokens[self.pos]
        if kind == "op" and value == "-":
            self.pos += 1
            return Neg(self.nested(self.unary, offset))
        return self.power()

    # power := atom ('^' unary)?   -- right-associative, allows x^-2
    def power(self) -> Expr:
        node = self.atom()
        kind, value, offset = self.tokens[self.pos]
        if kind == "op" and value == "^":
            self.pos += 1
            return BinOp("^", node, self.nested(self.unary, offset))
        return node

    def atom(self) -> Expr:
        kind, value, offset = self.tokens[self.pos]
        self.pos += 1
        if kind == "num":
            return Num(value)
        if kind == "ident":
            if value in _VAR_NODES:
                return _VAR_NODES[value]
            if value in FUNCTIONS:
                self.expect_op("(")
                arg = self.nested(self.expr, offset)
                self.expect_op(")")
                return Call(value, arg)
            raise UnknownIdentifierError(value, offset)
        if kind == "op" and value == "(":
            node = self.nested(self.expr, offset)
            self.expect_op(")")
            return node
        found = "end of input" if kind == "eof" else f"'{value}'"
        raise ExprSyntaxError(f"found {found}", offset,
                              expected="a number, variable, or '('")


def _depth(root: Expr) -> int:
    """The number of levels of a tree, counted without recursion."""
    deepest, todo = 0, [(root, 1)]
    while todo:
        node, depth = todo.pop()
        deepest = max(deepest, depth)
        if isinstance(node, BinOp):
            todo += ((node.left, depth + 1), (node.right, depth + 1))
        elif isinstance(node, (Neg, Call)):
            todo.append((node.arg if isinstance(node, Call) else node.operand,
                         depth + 1))
    return deepest


def parse_expr(text: str) -> Expr:
    """Parse expression text into an immutable tree, by recursive
    descent."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 1, expected="an expression")
    parser = _Parser(text)
    node = parser.expr()
    kind, value, offset = parser.tokens[parser.pos]
    if kind != "eof":
        raise ExprSyntaxError(f"found '{value}'", offset,
                              expected="end of input or an operator")
    # every level of a tree takes at least one token
    if len(parser.tokens) > MAX_DEPTH and _depth(node) > MAX_DEPTH:
        raise _too_deep("expression tree", MAX_DEPTH, 1)
    return node


# A numeric literal, split as _tokenize splits it: it starts at "." or at
# a digit that does not continue a name (the lookbehind keeps the digits
# of ``x1`` in the name).  Leading with a character class, rather than an
# alternation with a name pattern, more than halves the time of the scan
# (3.4 instead of 8.3 us on an 80-character field).
_LITERAL = re.compile(r"([0-9.](?<!\w[0-9])[0-9.]*(?:[eE][+-]?[0-9]+)?)",
                      re.ASCII)
_MAX_SKELETONS = 512
# the skeletons of texts that parsed, as a set in insertion order, oldest
# first: a text with one of them parses, whatever its literals' floats
_SKELETONS: dict[str, None] = {}
# numbers the generated code's file names, <filippov.expr:kind:n>, so
# that a profile keeps one entry per generated function
_LABELS = itertools.count()


def _scanned(text: str) -> tuple[Expr | str, tuple | None]:
    """The tree of ``text``, or ``text`` itself if its skeleton parsed
    before and so will parse again; and its literal scan ``((skeleton,),
    floats)``: the floats of its literals in the order of the text, which
    is the order of their ``Num`` nodes in a left-to-right walk.  The scan
    is None for a text with ``#`` or a non-ASCII character."""
    if not (isinstance(text, str) and text.isascii() and "#" not in text):
        return parse_expr(text), None
    parts = _LITERAL.split(text)  # text, literal, text, ..., text
    skeleton = "#".join(parts[::2])
    try:
        scan = ((skeleton,), list(map(float, parts[1::2])))
    except ValueError:  # a bad literal such as "1.2.3": the parser's error
        return parse_expr(text), None
    if skeleton in _SKELETONS:
        return text, scan
    node = parse_expr(text)
    if len(_SKELETONS) >= _MAX_SKELETONS:
        del _SKELETONS[next(iter(_SKELETONS))]
    _SKELETONS[skeleton] = None
    return node, scan


def _tree(part: Expr | str) -> Expr:
    """A part of :func:`_scanned`'s result as a tree, parsed now if it is
    a text."""
    return parse_expr(part) if type(part) is str else part


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def _pow(base: float, exponent: float) -> float:
    if float(exponent).is_integer():
        try:
            return base ** int(exponent)
        except ZeroDivisionError:
            raise EvalDomainError("zero raised to a negative power") from None
        except OverflowError:
            raise EvalDomainError("overflow in power") from None
    if base < 0.0:
        raise EvalDomainError(
            "negative base with non-integer exponent is undefined over the reals")
    try:
        return base ** exponent
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise EvalDomainError(str(exc)) from None


def _div(num: float, den: float) -> float:
    if den == 0.0:
        raise EvalDomainError("division by zero")
    return num / den


def _sqrt(value: float) -> float:
    if value < 0.0:
        raise EvalDomainError("square root of a negative number")
    return math.sqrt(value)


def _exp(value: float) -> float:
    try:
        return math.exp(value)
    except OverflowError:
        raise EvalDomainError("overflow in exp") from None


def _dpow(base: float, exponent: float) -> float:
    """d(base ^ exponent) / d base where ``_pow(base, exponent)`` is
    defined; raises ZeroDivisionError or OverflowError where it is not
    finite."""
    if exponent == 0.0:
        return 0.0
    if float(exponent).is_integer():
        return exponent * base ** (int(exponent) - 1)
    return exponent * base ** (exponent - 1.0)


def _sign(value: float) -> float:
    """d abs(u) / du, taken as 0 at u = 0, where central differences
    also give 0."""
    return 1.0 if value > 0.0 else -1.0 if value < 0.0 else 0.0


# The generated code reaches the helpers by these names; every name in
# its source comes from these tables or from the generator itself.
_NAMESPACE = {"_pow": _pow, "_div": _div, "_sqrt": _sqrt, "_exp": _exp,
              "_dpow": _dpow, "_sign": _sign, "log": math.log,
              "sin": math.sin, "cos": math.cos, "abs": abs,
              "isfinite": math.isfinite, "EvalDomainError": EvalDomainError,
              "DegenerateSlidingError": DegenerateSlidingError}
_VAR_NAMES = {"x1": "x1", "x2": "x2", "x3": "x3"}
# the code of each operation but ``u ** n``, from its operands' names
_UNARY_FORMATS = {"neg": "-{}", "sin": "sin({})", "cos": "cos({})",
                  "exp": "_exp({})", "sqrt": "_sqrt({})", "abs": "abs({})"}
_BINOP_FORMATS = {"+": "{} + {}", "-": "{} - {}", "*": "{} * {}",
                  "/": "_div({}, {})", "^": "_pow({}, {})"}


def _whole(value: float) -> int | None:
    """A literal exponent's value if it is a non-negative integer: ``b **
    n`` then computes what ``_pow(b, n)`` does, and cannot divide by
    zero."""
    return int(value) if value >= 0.0 and float(value).is_integer() else None


def _whole_exponent(node: BinOp) -> int | None:
    """:func:`_whole` of the right operand of ``^`` if it is a literal."""
    if node.op == "^" and type(node.right) is Num:
        return _whole(node.right.value)
    return None


def _program(roots, fresh: int | None = None) -> tuple[tuple, list, tuple]:
    """A hashable program computing every root, the constants it reads, and
    where they come from.

    The program is ``(ops, results, n_constants)``: one ``(name, operation,
    operand names)`` per operation, in the post-order of a recursive walk,
    so the results and the first error raised are the walk's; and each
    root's name with the number of operations done once it is known.  An
    operation on operands already met together reuses the name of their
    first result (value numbering: Cocke, *Global common subexpression
    elimination*, 1970): the value is the same, and it was computed
    earlier in the walk, so any error it raises comes no later.  The roots
    from index ``fresh`` on reuse no operation of the ones before, so that
    code can compute them at another point.
    Literals, negated ones too, become the constants c0, c1, ..., so
    fields that differ only in their coefficients share a program.  The
    walk is iterative, so no depth of tree exhausts the stack.

    The walk counts the ``Num`` nodes it visits, left to right, which is
    the order of the literals of a parsed text.  The recipe is
    ``(sources, exponents)``: each constant's ``(literal index,
    negated)``, and each literal exponent's ``(literal index, whole)``,
    ``whole`` as :func:`_whole` gives it."""
    constants, ops, results = [], [], []
    sources, exponents, literals = [], [], 0
    known = {}  # (operation, operand names) -> the name of its result
    for i, root in enumerate(roots):
        if i == fresh:
            known.clear()
        names = []  # the operands computed so far
        todo = [root]  # a node to visit, or (node, operation) to compute
        while todo:
            node = todo.pop()
            kind = type(node)
            if kind is Num:
                names.append(f"c{len(constants)}")
                sources.append((literals, False))
                literals += 1
                constants.append(node.value)
            elif kind is Var:
                names.append(_VAR_NAMES[node.name])
            elif kind is Neg and type(node.operand) is Num:
                names.append(f"c{len(constants)}")
                sources.append((literals, True))
                literals += 1
                constants.append(-node.operand.value)
            elif kind is BinOp:
                whole = _whole_exponent(node)
                todo.append((node, node.op if whole is None else whole))
                if whole is None:
                    todo.append(node.right)
                todo.append(node.left)
            elif kind is not tuple:
                todo.append((node, node.func if kind is Call else "neg"))
                todo.append(node.arg if kind is Call else node.operand)
            else:
                node, op = node
                if type(op) is int:  # u ** n: n is the literal after u's
                    exponents.append((literals, op))
                    literals += 1
                    operands = (names.pop(),)
                elif type(node) is BinOp:
                    if op == "^" and type(node.right) is Num:
                        exponents.append((literals - 1, None))
                    operands = (names[-2], names[-1])
                    del names[-2:]
                else:
                    operands = (names.pop(),)
                name = known.get((op, operands))
                if name is None:
                    name = known[op, operands] = f"t{len(ops)}"
                    ops.append((name, op, operands))
                names.append(name)
        results.append((names.pop(), len(ops)))
    return ((tuple(ops), tuple(results), len(constants)), constants,
            (tuple(sources), tuple(exponents)))


_NOT_FINITE = "EvalDomainError('derivative is not finite')"
_ZERO = (0, 0, 0)
# the factor d op(u) / du of each function, in terms of u's name and the
# result's
_CALL_DERIVATIVES = {"sin": "cos({u})", "cos": "-sin({u})", "exp": "{w}",
                     "sqrt": "0.5 / {w}", "abs": "_sign({u})"}


def _tangent_lines(ops: tuple, roots) -> tuple[tuple, tuple]:
    """Forward-mode tangent assignments for the value assignments ``ops``
    (Griewank & Walther, *Evaluating Derivatives*, 2008, ch. 3), and for
    each of the ``roots`` the three names or literals holding its partial
    derivatives.

    A tangent is three entries, one per partial derivative: 0 or 1 when
    it is known to be that, else the name of a value or of a tangent
    assignment.  Zeros and ones are propagated without emitting code, so
    literals and variables cost no line, and ``c * x1`` costs none.  The
    lines only read values that the value assignments computed, so they
    can follow them."""
    tangents = {"x1": (1, 0, 0), "x2": (0, 1, 0), "x3": (0, 0, 1)}
    lines = []

    def emit(code: str) -> str:
        lines.append(f"d{len(lines)} = {code}")
        return f"d{len(lines) - 1}"

    def text(entry) -> str:
        return entry if isinstance(entry, str) else f"{entry}.0"

    def add(a, b):
        if a == 0:
            return b
        return a if b == 0 else emit(f"{text(a)} + {text(b)}")

    def sub(a, b):
        if b == 0:
            return a
        return emit(f"-{text(b)}" if a == 0 else f"{text(a)} - {text(b)}")

    def mul(factor: str, entry):
        if entry == 0:
            return 0
        return factor if entry == 1 else emit(f"{factor} * {entry}")

    def chain(factor_code: str, du, guarded: bool = False):
        """The tangent factor * du, the factor's line emitted only if used.
        A ``guarded`` factor may be infinite where u = 0 (that of sqrt(u)
        or u^v); each entry then takes factor * 0 as 0, as abs's
        derivative at 0 does, so ``x1*sqrt(x1^2 + x2^2)`` has the
        gradient 0 at the origin."""
        if du == _ZERO:
            return _ZERO
        if guarded:
            return tuple(0 if e == 0 else emit(factor_code) if e == 1 else
                         emit(f"0.0 if {e} == 0.0 else {factor_code} * {e}")
                         for e in du)
        factor = factor_code if factor_code.isidentifier() else emit(factor_code)
        return tuple(mul(factor, e) for e in du)

    for name, op, operands in ops:
        u = operands[0]
        du = tangents.get(u, _ZERO)
        if op == "neg":
            tangent = tuple(sub(0, e) for e in du)
        elif op in _CALL_DERIVATIVES:
            tangent = chain(_CALL_DERIVATIVES[op].format(u=u, w=name), du,
                            guarded=op == "sqrt")
        elif type(op) is int:  # u ** n
            tangent = (_ZERO if op == 0 else du if op == 1 else
                       chain(f"2.0 * {u}" if op == 2 else
                             f"{float(op)!r} * {u} ** {float(op - 1)!r}", du))
        else:
            v = operands[1]
            dv = tangents.get(v, _ZERO)
            if op == "+":
                tangent = tuple(map(add, du, dv))
            elif op == "-":
                tangent = tuple(map(sub, du, dv))
            elif op == "*":
                tangent = tuple(add(mul(v, a), mul(u, b))
                                for a, b in zip(du, dv))
            elif op == "/":  # (du - w dv) / v; v != 0 once w is computed
                nums = [sub(a, mul(name, b)) for a, b in zip(du, dv)]
                tangent = tuple(0 if num == 0 else emit(f"{text(num)} / {v}")
                                for num in nums)
            else:  # u ^ v: v u^(v-1) du
                tangent = chain(f"_dpow({u}, {v})", du, guarded=True)
                if dv != _ZERO:  # + w log(u) dv, defined for u > 0 only
                    tangent = tuple(map(add, tangent,
                                        chain(f"{name} * log({u})", dv)))
        if tangent != _ZERO:
            tangents[name] = tangent
    return tuple(lines), tuple(
        tuple(text(e) for e in tangents.get(root, _ZERO)) for root in roots)


# Operations nest at most this deep in one generated expression: CPython
# refuses more than 200 nested parentheses, and a MAX_DEPTH tree has 250
# levels.
_MAX_NESTED = 32


def _value_lines(ops: tuple, results, done: int, keep) -> list:
    """One try statement computing the roots ``results`` of a program of
    :func:`_program` from operation ``done`` on, each value checked in
    turn.

    An operation that is not in ``keep`` (the roots, the names read more
    than once, and those other code reads) is written into the expression
    of its one user, parenthesised, up to :data:`_MAX_NESTED` levels;
    every other one is assigned as its own line.  Python evaluates
    an expression's operands left to right before its operation, so the
    nested code does the walk's operations in the walk's order; and
    before any line is written, every operation still waiting for its
    user is written out as a line, so that no line runs ahead of an
    operation the walk does first, and the first error is the walk's."""
    body = []
    pending = {}  # name -> (code, levels) of an operation awaiting its user
    for result, end in results:
        for name, op, operands in ops[done:end]:
            args, levels = [], 1
            for u in operands:
                if u in pending:
                    code, level = pending.pop(u)
                    args.append(f"({code})")
                    levels = max(levels, level + 1)
                else:
                    args.append(u)
            formats = _BINOP_FORMATS if len(args) == 2 else _UNARY_FORMATS
            code = (f"{args[0]} ** {float(op)!r}" if type(op) is int
                    else formats[op].format(*args))
            if name in keep or levels == _MAX_NESTED:
                body += [f"{p} = {c}" for p, (c, _) in pending.items()]
                pending.clear()
                body.append(f"{name} = {code}")
            else:
                pending[name] = (code, levels)
        done = end
        body.append(f"if not isfinite({result}): "
                    "raise EvalDomainError('expression value is not finite')")
    # only ``b ** n`` lets an OverflowError through
    return ["        try:", *(f"            {line}" for line in body),
            "        except OverflowError:",
            "            raise EvalDomainError('overflow in power') from None",
            "        except (ValueError, ZeroDivisionError) as exc:",
            "            raise EvalDomainError(str(exc)) from None"]


def _rk4_lines(stage: list, slope, first: int) -> list:
    """RK4 stages ``first`` to 4 from (x1, x2, x3), as ``_rk4_tuple`` of
    :mod:`filippov.simulate` takes them: each runs ``stage`` at its point
    and keeps ``slope`` as k<i>1..3; then (x1, x2, x3) is the end."""
    lines = ["        half, sixth = 0.5 * h, h / 6.0",
             "        y1, y2, y3 = x1, x2, x3"]
    for i in range(first, 5):
        if i > 1:
            scale = "h" if i == 4 else "half"
            lines.append("        x1, x2, x3 = " + ", ".join(
                f"y{j} + {scale} * k{i - 1}{j}" for j in (1, 2, 3)))
        lines += stage
        lines.append(f"        k{i}1, k{i}2, k{i}3 = {', '.join(slope)}")
    lines.append("        x1, x2, x3 = " + ", ".join(
        f"y{j} + sixth * (k1{j} + 2.0 * (k2{j} + k3{j}) + k4{j})"
        for j in (1, 2, 3)))
    return lines


def _source(program: tuple, layout: str) -> str:
    """The source of ``_bind(constants)`` for a program of
    :func:`_program`; ``_bind`` returns a function of (x1, x2, x3),
    straight-line code whose operations nest as :func:`_value_lines`
    writes them.

    With ``layout`` "values" it returns one root's value, or the tuple of
    several.  With "derivatives" the tangent assignments of
    :func:`_tangent_lines` follow the value assignments, and one root's
    value comes with its three partials, several roots' values with their
    gradients' rows.

    The step layouts are those of :func:`compile_step` (roots: a field's
    components, then H numbered afresh) and :func:`compile_slide_step`
    (roots: H and the components of f_L and f_R; ``_bind(constants,
    tol)`` takes its tolerance too).  At each point of a "slide" step,
    H's tangent assignments precede the fields' values, so the first
    error is the one that H's gradient, f_L and f_R, called in turn,
    would raise; a stage is the sliding field of the normal rates
    grad H . f_L and grad H . f_R, none is taken for h = 0, and it
    projects by -H / |grad H|^2 unless grad H = 0."""
    ops, results, n_constants = program
    values = [result for result, _ in results]
    split = (1 if layout == "slide" else 3 if layout == "step"
             else len(results))
    head_end = results[split - 1][1]  # the operations of the first roots
    reads = Counter(u for _, _, operands in ops for u in operands)
    keep = {u for u, n in reads.items() if n > 1}.union(values)
    head = []
    if layout not in ("values", "step"):
        tangent_lines, partials = _tangent_lines(ops[:head_end],
                                                 values[:split])
        keep.update(re.findall(r"\bt\d+\b", " ".join(
            [*tangent_lines, *(p for row in partials for p in row)])))
        if tangent_lines:
            head += ["        try:",
                     *(f"            {line}" for line in tangent_lines),
                     "        except (ArithmeticError, ValueError):",
                     f"            raise {_NOT_FINITE} from None"]
        checked = " and ".join(f"isfinite({p})" for row in partials
                               for p in row if p.isidentifier())
        if checked:
            head.append(f"        if not ({checked}): raise {_NOT_FINITE}")
    lines = head = _value_lines(ops, results[:split], 0, keep) + head
    if layout == "slide":
        lines = head + _value_lines(ops, results[1:], head_end, keep)
        grad, f_left, f_right = partials[0], values[1:4], values[4:]
        # grad H . f; a unit partial multiplies nothing (a zero one still
        # does: 0.0 * v can be -0.0 or NaN)
        rates = [" + ".join(v if g == "1.0" else f"{g} * {v}"
                            for g, v in zip(grad, f))
                 for f in (f_left, f_right)]
        lines += [f"        rl = {rates[0]}", f"        rr = {rates[1]}",
                  "        gap = rl - rr"]
        degenerate = "if abs(gap) <= tol * (abs(rl) + abs(rr) + 1.0):"
        combination = [f"(rl * {r} - rr * {l}) / gap"
                       for l, r in zip(f_left, f_right)]
        stage = lines + [f"        {degenerate}"
                         " raise DegenerateSlidingError(rl, rr)"]
        g1, g2, g3 = grad
        lines = ["        if h:",
                 *("    " + line
                   for line in _rk4_lines(stage, combination, 2)),
                 *head,
                 f"        gg = {g1} * {g1} + {g2} * {g2} + {g3} * {g3}",
                 "        if gg != 0.0:",
                 f"            s = {values[0]} / gg",
                 f"            x1, x2, x3 = x1 - s * {g1}, "
                 f"x2 - s * {g2}, x3 - s * {g3}",
                 *lines, f"        {degenerate}",
                 "            return x1, x2, x3, rl, rr, None, None, None"]
        values = ["x1", "x2", "x3", "rl", "rr", *combination]
    elif layout == "derivatives":
        rows = ", ".join(f"({', '.join(row)})" for row in partials)
        values = ([values[0], *partials[0]] if len(values) == 1 else
                  [f"({', '.join(values)})", f"({rows})"])
    elif layout == "step":
        lines = (_rk4_lines(head, values[:3], 1)
                 + _value_lines(ops, results[3:], head_end, keep))
        values = ["x1", "x2", "x3", values[3]]
    unpack = ", ".join(f"c{i}" for i in range(n_constants))
    bound = ", tol" if layout == "slide" else ""
    extra = {"step": ", h", "slide": ", h=0.0, k11=0.0, k12=0.0, k13=0.0"}
    return "\n".join([f"def _bind(_c{bound}):",
                      f"    {unpack}, = _c" if n_constants else "    pass",
                      f"    def {layout}(x1, x2, x3{extra.get(layout, '')}):",
                      *lines,
                      f"        return {', '.join(values)}",
                      f"    return {layout}"])


@lru_cache(maxsize=512)
def _binder(program: tuple, layout: str):
    """Compile a program once; a tree of a shape seen before costs a walk
    and a bind."""
    namespace = dict(_NAMESPACE)
    label = f"<filippov.expr:{layout}:{next(_LABELS)}>"
    exec(compile(_source(program, layout), label, "exec"), namespace)
    return namespace["_bind"]


_MAX_PROGRAMS = 512
# (layout, skeletons) -> (binder, sources, exponents) of the last program
# compiled from texts with those skeletons, the recipe as _program gives
# it; oldest first
_PROGRAMS: dict[tuple, tuple] = {}


def _compile(trees, layout: str = "values", scan=None, *bound):
    """The generated function of the roots ``trees()`` returns, bound with
    the further arguments ``bound`` of its layout.  Given the literal
    ``scan`` of the texts they were parsed from, a shape compiled before
    with the same whole exponents is bound from the scan's floats, with no
    walk and without calling ``trees``."""
    if scan is not None:
        key, floats = (layout, scan[0]), scan[1]
        known = _PROGRAMS.get(key)
        if known is not None:
            bind, sources, exponents = known
            if all([_whole(floats[i]) == whole for i, whole in exponents]):
                return bind(tuple([-floats[i] if negated else floats[i]
                                   for i, negated in sources]), *bound)
    program, constants, recipe = _program(trees(),
                                          3 if layout == "step" else None)
    bind = _binder(program, layout)
    if scan is not None:
        if key not in _PROGRAMS and len(_PROGRAMS) >= _MAX_PROGRAMS:
            del _PROGRAMS[next(iter(_PROGRAMS))]
        _PROGRAMS[key] = (bind, *recipe)
    return bind(tuple(constants), *bound)


def _joined(scans) -> tuple | None:
    """The scan of several texts in turn, or None unless each has one."""
    if None in scans:
        return None
    return (tuple(skeleton for scan in scans for skeleton in scan[0]),
            [value for scan in scans for value in scan[1]])


# --------------------------------------------------------------------------
# field wrappers
# --------------------------------------------------------------------------

class _Field:
    """The parse, bind and call code of the two fields.  A field made by
    ``parse`` holds ``_part``, a part of :func:`_scanned`'s result or a
    tuple of them, and ``_scan``; it builds the trees of its dataclass
    field, which ``_ROOTS`` names, on their first read."""

    _scan = None  # the literal scan of ``parse``; not a field

    @classmethod
    def _parsed(cls, part, scan):
        field = object.__new__(cls)
        field.__dict__["_part"], field.__dict__["_scan"] = part, scan
        return field

    def __getattr__(self, name: str):
        if name != self._ROOTS or "_part" not in self.__dict__:
            raise AttributeError(name)
        part = self._part
        trees = self.__dict__[name] = (tuple(map(_tree, part))
                                       if type(part) is tuple else _tree(part))
        return trees

    def _roots(self) -> tuple:
        trees = getattr(self, self._ROOTS)
        return trees if type(trees) is tuple else (trees,)

    @cached_property
    def compiled(self) -> Callable:
        """One function of Python floats (x1, x2, x3) -> the field's value,
        or its three components, evaluated in order: the first component
        that fails names the error."""
        return _compile(self._roots, "values", self._scan)

    def __call__(self, point):
        """``compiled`` at a point of three coordinates; a point of any
        other length raises ValueError."""
        x1, x2, x3 = point
        return self.compiled(float(x1), float(x2), float(x3))


@dataclass(frozen=True)
class ScalarField(_Field):
    """A scalar function of (x1, x2, x3) defined by an expression."""

    expr: Expr
    _ROOTS = "expr"

    @classmethod
    def parse(cls, text: str) -> "ScalarField":
        return cls._parsed(*_scanned(text))

    @cached_property
    def compiled_gradient(self) -> Callable[[float, float, float],
                                            tuple[float, float, float, float]]:
        """One function (x1, x2, x3) -> (h, dh/dx1, dh/dx2, dh/dx3).

        Its value is ``compiled``'s, bit for bit, and it raises where
        ``compiled`` raises; it also raises
        :class:`~filippov.errors.EvalDomainError` where a partial
        derivative is not finite (``sqrt(x1)`` at 0) or not defined
        (``x1^x2`` at x1 <= 0).  It takes Python floats."""
        return _compile(self._roots, "derivatives", self._scan)


@dataclass(frozen=True)
class VectorField(_Field):
    """Three scalar components forming a vector field on R^3."""

    components: tuple[Expr, Expr, Expr]
    _ROOTS = "components"

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) != 3:
            raise ValueError("a vector field needs exactly 3 components")

    @classmethod
    def parse(cls, texts) -> "VectorField":
        texts = tuple(texts)
        if len(texts) != 3:
            raise ValueError("a vector field needs exactly 3 component strings")
        parsed = [_scanned(text) for text in texts]
        return cls._parsed(tuple(part for part, _ in parsed),
                           _joined([scan for _, scan in parsed]))

    @cached_property
    def compiled_jacobian(self) -> Callable[[float, float, float], tuple]:
        """One function (x1, x2, x3) -> ((f1, f2, f3), J): row i of the
        exact Jacobian J is the gradient of component i.  It raises as
        :attr:`ScalarField.compiled_gradient` does, and takes floats."""
        return _compile(self._roots, "derivatives", self._scan)


def compile_step(field: VectorField, switch: ScalarField):
    """One function (x1, x2, x3, h) -> (y1, y2, y3, H(y)): one RK4 step
    along ``field`` and H = ``switch`` at its end y, with the floats and
    the first error of ``field.compiled``'s stages and ``switch.compiled``
    at y.  Like every generated function, it takes Python floats: with
    numpy scalars it computes in numpy, which warns or reads inf where a
    float raises."""
    return _compile(lambda: (*field.components, switch.expr), "step",
                    _joined([field._scan, switch._scan]))


def compile_slide_step(switch: ScalarField, left: VectorField,
                       right: VectorField, tol: float):
    """One function (x1, x2, x3, h, k11, k12, k13) -> (y1, y2, y3, r_L,
    r_R, s1, s2, s3): one RK4 step along the sliding field (r_L f_R -
    r_R f_L) / (r_L - r_R) with the first stage k1, projected onto H = 0
    (x alone is just projected), then the normal rates r = grad H . f and
    the sliding field s at that y, s None where degenerate.  A stage
    raises :class:`~filippov.errors.DegenerateSlidingError` where
    |r_L - r_R| <= ``tol`` (|r_L| + |r_R| + 1).  At each point its floats
    and first error are those of ``switch.compiled_gradient``,
    ``left.compiled`` and ``right.compiled``, called in turn, and of the
    rates and the combination formed from them in Python (as
    :mod:`filippov.core` forms them); it takes floats."""
    return _compile(lambda: (switch.expr, *left.components,
                             *right.components),
                    "slide", _joined([switch._scan, left._scan,
                                      right._scan]), tol)


# --------------------------------------------------------------------------
# finite differences
# --------------------------------------------------------------------------

def jacobian_fd(field, point) -> np.ndarray:
    """Central-difference Jacobian of a vector field at a point of three
    coordinates; row i holds the gradient of component i.

    ``field`` is called at lists of three floats.  Component steps are
    ``FD_REL_STEP * max(1, |point_j|)``.  Raises ValueError for a point of
    any other length, and :class:`EvalDomainError` if any stencil point is
    not evaluable."""
    x1, x2, x3 = point
    point = [float(x1), float(x2), float(x3)]
    columns = []
    for j, x in enumerate(point):
        h = FD_REL_STEP * max(1.0, abs(x))
        plus, minus = point.copy(), point.copy()
        plus[j] += h
        minus[j] -= h
        columns.append([(a - b) / (2.0 * h)
                        for a, b in zip(field(plus), field(minus))])
    return np.array(list(zip(*columns)))


def gradient_fd(field, point):
    """Central-difference gradient of a scalar field at a point of three
    coordinates, as an array: the one row of :func:`jacobian_fd`."""
    return jacobian_fd(lambda p: (field(p),), point)[0]
