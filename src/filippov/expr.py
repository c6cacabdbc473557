"""Small expression language over the state variables x1, x2, x3.

Vector fields and switching functions are written as plain text, e.g.
``"x2 - 0.5*x1^2"``.  The grammar supports numeric literals, the three
variables, ``+ - * / ^`` (``^`` binds tightest and is right-associative,
then unary minus, then ``* /``, then ``+ -``), parentheses, and the
functions sin, cos, exp, sqrt, abs.  Whitespace is ignored.  Parentheses,
calls, unary minus and ``^`` nest at most :data:`MAX_NESTING` levels, and
a tree is at most :data:`MAX_DEPTH` levels deep (a sum of n terms is n
deep); deeper text is an :class:`~filippov.errors.ExprSyntaxError`.

Parsed expressions are immutable trees.  A field is evaluated by one
generated Python function of (x1, x2, x3): straight-line code with one
assignment per operation, in the order a recursive walk of the tree
would evaluate them, so its results are bit for bit those of the walk.
The function's source holds generated names only.  Literals are bound
from a tuple, so fields that differ only in their coefficients share one
compiled code object.  Evaluation either returns a finite float or
raises :class:`~filippov.errors.EvalDomainError` -- NaN and infinity
never propagate silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Union

import numpy as np

from .errors import EvalDomainError, ExprSyntaxError, UnknownIdentifierError

__all__ = [
    "Expr", "Num", "Var", "Neg", "BinOp", "Call",
    "parse_expr", "format_expr", "evaluate", "compile_expr",
    "ScalarField", "VectorField",
    "gradient_fd", "jacobian_fd", "FD_REL_STEP", "MAX_NESTING", "MAX_DEPTH",
]

VARIABLES = ("x1", "x2", "x3")
FUNCTIONS = ("sin", "cos", "exp", "sqrt", "abs")

# Input limits, so that the recursive parser and format_expr stay well
# inside Python's recursion limit: one nesting level costs the parser up
# to six frames, one tree level costs format_expr one.  (Evaluation walks
# trees without recursion.)
MAX_NESTING = 100
MAX_DEPTH = 500

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


Expr = Union[Num, Var, Neg, BinOp, Call]


# --------------------------------------------------------------------------
# tokenizer / parser
# --------------------------------------------------------------------------

_OPERATOR_CHARS = "+-*/^()"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Return (kind, value, offset) triples; offsets are 1-based."""
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
            tokens.append(("num", repr(value), i + 1))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
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

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, value, offset = self.peek()
        if kind == "op" and value == op:
            self.advance()
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
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                node = BinOp(value, node, self.term())
            else:
                return node

    # term := unary (('*'|'/') unary)*
    def term(self) -> Expr:
        node = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                node = BinOp(value, node, self.unary())
            else:
                return node

    # unary := '-' unary | power
    def unary(self) -> Expr:
        kind, value, offset = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Neg(self.nested(self.unary, offset))
        return self.power()

    # power := atom ('^' unary)?   -- right-associative, allows x^-2
    def power(self) -> Expr:
        node = self.atom()
        kind, value, offset = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return BinOp("^", node, self.nested(self.unary, offset))
        return node

    def atom(self) -> Expr:
        kind, value, offset = self.advance()
        if kind == "num":
            return Num(float(value))
        if kind == "ident":
            if value in VARIABLES:
                return Var(value)
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
    """Parse expression text into an immutable tree."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 1, expected="an expression")
    parser = _Parser(text)
    node = parser.expr()
    kind, value, offset = parser.peek()
    if kind != "eof":
        raise ExprSyntaxError(f"found '{value}'", offset,
                              expected="end of input or an operator")
    # every level of a tree takes at least one token
    if len(parser.tokens) > MAX_DEPTH and _depth(node) > MAX_DEPTH:
        raise _too_deep("expression tree", MAX_DEPTH, 1)
    return node


# --------------------------------------------------------------------------
# printing (parse -> format -> parse yields an identical tree)
# --------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_PREC_NEG = 3
_PREC_ATOM = 5


def _prec(node: Expr) -> int:
    if isinstance(node, BinOp):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return _PREC_NEG
    return _PREC_ATOM


def format_expr(node: Expr) -> str:
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


# The generated code reaches the helpers by these names; every name in
# its source comes from these tables or from the generator itself.
_NAMESPACE = {"_pow": _pow, "_div": _div, "_sqrt": _sqrt, "_exp": _exp,
              "sin": math.sin, "cos": math.cos, "abs": abs,
              "isfinite": math.isfinite, "EvalDomainError": EvalDomainError}
_VAR_NAMES = {"x1": "x1", "x2": "x2", "x3": "x3"}
_CALL_NAMES = {"sin": "sin", "cos": "cos", "exp": "_exp", "sqrt": "_sqrt",
               "abs": "abs"}
_BINOP_FORMATS = {"+": "{} + {}", "-": "{} - {}", "*": "{} * {}",
                  "/": "_div({}, {})", "^": "_pow({}, {})"}


def _whole_exponent(node: BinOp) -> int | None:
    """A literal exponent that is a non-negative integer: ``b ** n`` then
    computes what ``_pow(b, n)`` does, and cannot divide by zero."""
    right = node.right
    if (node.op == "^" and type(right) is Num and right.value >= 0.0
            and float(right.value).is_integer()):
        return int(right.value)
    return None


def _straight_line(roots) -> tuple[str, list]:
    """The source of ``_bind(constants)``, which returns a function of
    (x1, x2, x3) computing every root, and the constants it binds.

    Each operation is one assignment, in the post-order of a recursive
    walk (left operand, right operand, then the node), so the results
    and the first error raised are the walk's.  Literals, and negated
    ones (negation is exact), become constants.  The walk is iterative,
    so no depth of tree exhausts the stack."""
    constants, body, results = [], [], []
    temps = 0
    for root in roots:
        names = []  # the operands computed so far
        todo = [root]  # a node to visit, or (node,) to compute it
        while todo:
            node = todo.pop()
            kind = type(node)
            if kind is Num:
                names.append(f"c{len(constants)}")
                constants.append(node.value)
            elif kind is Var:
                names.append(_VAR_NAMES[node.name])
            elif kind is Neg and type(node.operand) is Num:
                names.append(f"c{len(constants)}")
                constants.append(-node.operand.value)
            elif kind is not tuple:
                todo.append((node,))
                if kind is BinOp:
                    if _whole_exponent(node) is None:
                        todo.append(node.right)
                    todo.append(node.left)
                else:
                    todo.append(node.arg if kind is Call else node.operand)
            else:
                node, = node
                kind = type(node)
                if kind is Neg:
                    code = f"-{names.pop()}"
                elif kind is Call:
                    code = f"{_CALL_NAMES[node.func]}({names.pop()})"
                elif (power := _whole_exponent(node)) is not None:
                    code = f"{names.pop()} ** {power}"
                else:
                    right = names.pop()
                    code = _BINOP_FORMATS[node.op].format(names.pop(), right)
                names.append(f"t{temps}")
                body.append(f"t{temps} = {code}")
                temps += 1
        results.append(names.pop())
        body.append(f"if not isfinite({results[-1]}): "
                    "raise EvalDomainError('expression value is not finite')")
    unpack = ", ".join(f"c{i}" for i in range(len(constants)))
    lines = ["def _bind(_c):",
             f"    {unpack}, = _c" if constants else "    pass",
             "    def field(x1, x2, x3):",
             "        try:",
             *(f"            {line}" for line in body),
             # only ``b ** n`` lets an OverflowError through
             "        except OverflowError:",
             "            raise EvalDomainError('overflow in power') from None",
             "        except (ValueError, ZeroDivisionError) as exc:",
             "            raise EvalDomainError(str(exc)) from None",
             f"        return {', '.join(results)}",
             "    return field"]
    return "\n".join(lines), constants


@lru_cache(maxsize=512)
def _binder(source: str):
    """Compile generated source once; fields of one shape share it."""
    namespace = dict(_NAMESPACE)
    exec(compile(source, "<filippov.expr>", "exec"), namespace)
    return namespace["_bind"]


def _compile(roots):
    source, constants = _straight_line(roots)
    return _binder(source)(tuple(constants))


def compile_expr(node: Expr) -> Callable[[float, float, float], float]:
    """Compile a tree to a callable (x1, x2, x3) -> float with the same
    domain-error behaviour as :func:`evaluate`."""
    return _compile((node,))


def evaluate(node: Expr, point) -> float:
    """Evaluate a tree at a 3-vector point."""
    x1, x2, x3 = (float(point[0]), float(point[1]), float(point[2]))
    for coord in (x1, x2, x3):
        if not math.isfinite(coord):
            raise EvalDomainError("evaluation point is not finite")
    return compile_expr(node)(x1, x2, x3)


# --------------------------------------------------------------------------
# field wrappers
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarField:
    """A scalar function of (x1, x2, x3) defined by an expression."""

    expr: Expr

    @classmethod
    def parse(cls, text: str) -> "ScalarField":
        return cls(parse_expr(text))

    @cached_property
    def compiled(self) -> Callable[[float, float, float], float]:
        return compile_expr(self.expr)

    def __call__(self, point) -> float:
        return self.compiled(float(point[0]), float(point[1]), float(point[2]))


@dataclass(frozen=True)
class VectorField:
    """Three scalar components forming a vector field on R^3."""

    components: tuple[Expr, Expr, Expr]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) != 3:
            raise ValueError("a vector field needs exactly 3 components")

    @classmethod
    def parse(cls, texts) -> "VectorField":
        texts = tuple(texts)
        if len(texts) != 3:
            raise ValueError("a vector field needs exactly 3 component strings")
        return cls(tuple(parse_expr(t) for t in texts))

    @cached_property
    def compiled(self) -> Callable[[float, float, float],
                                   tuple[float, float, float]]:
        """One function returning the three components, evaluated in
        order: the first component that fails names the error."""
        return _compile(self.components)

    def __call__(self, point) -> np.ndarray:
        return np.array(self.compiled(float(point[0]), float(point[1]),
                                      float(point[2])))


# --------------------------------------------------------------------------
# finite differences
# --------------------------------------------------------------------------

def _as_scalar_callable(field):
    if isinstance(field, ScalarField):
        return lambda p: field(p)
    return field


def gradient_fd(field, point) -> np.ndarray:
    """Central-difference gradient of a scalar field at a 3-vector point.

    Component steps are ``FD_REL_STEP * max(1, |point_i|)``.  Raises
    :class:`EvalDomainError` if any stencil point is not evaluable.
    """
    f = _as_scalar_callable(field)
    point = np.asarray(point, dtype=float)
    grad = np.empty(3)
    for i in range(3):
        h = FD_REL_STEP * max(1.0, abs(point[i]))
        plus = point.copy()
        minus = point.copy()
        plus[i] += h
        minus[i] -= h
        grad[i] = (f(plus) - f(minus)) / (2.0 * h)
    return grad


def jacobian_fd(field, point) -> np.ndarray:
    """Central-difference Jacobian of a vector field at a 3-vector point;
    row i holds the gradient of component i."""
    if isinstance(field, VectorField):
        f = lambda p: field(p)
    else:
        f = field
    point = np.asarray(point, dtype=float)
    jac = np.empty((3, 3))
    for j in range(3):
        h = FD_REL_STEP * max(1.0, abs(point[j]))
        plus = point.copy()
        minus = point.copy()
        plus[j] += h
        minus[j] -= h
        jac[:, j] = (np.asarray(f(plus)) - np.asarray(f(minus))) / (2.0 * h)
    return jac
