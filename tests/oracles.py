"""Test oracles, not part of the package: reference linear flows and
return multipliers (mpmath's ``expm`` at 30 and 50 digits, or, where
mpmath is not installed, a high-accuracy Dormand-Prince 5(4) integrator
with adaptive steps), the hybrid system's matrices and its sliding flow
in closed form, a plain recursive tree walk for the compiled
expressions, reference gradients (sympy's derivatives at 30 digits,
or central differences where sympy is not installed), and the local
data and trichotomy branch by numpy's array arithmetic and eigenvalues,
and the closed-form decay orbit of Appendix B: the companion system with
three distinct negative eigenvalues, started at (0, 0, -1), never
re-crosses the switching plane (the lemma ``StableNode`` rests on); and
the translate of a system spec; and the d at which a return multiplier
crosses 1.
"""

from __future__ import annotations

import contextlib
import functools
import math
import re
from typing import Callable

import numpy as np

from filippov.core import PBH_TOL
from filippov.errors import EvalDomainError, NonFiniteStateError
from filippov.expr import (
    FD_REL_STEP,
    BinOp,
    Call,
    Neg,
    Num,
    ScalarField,
    Var,
    gradient_fd,
)
from filippov.hybrid import HybridParams, return_multiplier
from filippov.spectrum import DISC_TOL, ZERO_EIG_TOL
from filippov.stability import DISTINCT_GAP_TOL, SIGN_TOL

try:
    import mpmath as mp
except ImportError:  # the adaptive integrator stands in
    mp = None

try:
    import sympy
except ImportError:  # central differences stand in
    sympy = None

try:
    from hypothesis import given, settings
    from hypothesis import strategies
except ImportError:  # a seeded numpy loop stands in
    given = None

# Relative accuracy of return_reference: a 50-digit value rounded to a
# float, or the adaptive integrator's (rtol 1e-12 on two segments)
REFERENCE_RTOL = 1e-16 if mp is not None else 1e-9

_DP_A = np.zeros((7, 7))
_DP_A[1, :1] = (1 / 5,)
_DP_A[2, :2] = (3 / 40, 9 / 40)
_DP_A[3, :3] = (44 / 45, -56 / 15, 32 / 9)
_DP_A[4, :4] = (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729)
_DP_A[5, :5] = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                -5103 / 18656)
_DP_A[6, :6] = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784,
                   11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])


def integrate_adaptive(f: Callable[[float, np.ndarray], np.ndarray], y0,
                       t_end: float, rtol: float = 1e-12,
                       atol: float = 1e-14) -> np.ndarray:
    """Integrate dy/dt = f(t, y) from t = 0 to t_end with adaptive
    5th/4th-order embedded steps; returns the final state."""
    y = np.asarray(y0, dtype=float).copy()
    t = 0.0
    if t_end == 0.0:
        return y
    if t_end < 0.0:
        raise ValueError("t_end must be non-negative")
    h = min(1e-2, t_end)
    stages = np.zeros((7, y.size))
    while t < t_end:
        h = min(h, t_end - t)
        stages[0] = f(t, y)
        for i in range(1, 7):
            yi = y + h * (_DP_A[i, :i] @ stages[:i])
            stages[i] = f(t + _DP_C[i] * h, yi)
        y5 = y + h * (_DP_B5 @ stages)
        err = h * ((_DP_B5 - _DP_B4) @ stages)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        err_norm = float(np.sqrt(np.mean((err / scale) ** 2)))
        if err_norm <= 1.0 or h <= 1e-14:
            t += h
            y = y5
            if not np.all(np.isfinite(y)):
                raise NonFiniteStateError("adaptive integration blew up")
        factor = 0.9 * err_norm ** -0.2 if err_norm > 0.0 else 5.0
        h *= min(5.0, max(0.2, factor))
    return y


def _flow_at(M, y0):
    """t -> (exp(M t) y0, M exp(M t) y0): mpmath's ``expm`` at the
    working precision, or ``integrate_adaptive`` when mpmath is missing.
    M holds floats, or mpmath numbers for mpmath."""
    if mp is None:
        M = np.asarray(M, dtype=float)

        def at(t):
            y = integrate_adaptive(lambda s, v: M @ v, y0, t)
            return y, M @ y
        return at
    A = mp.matrix(np.asarray(M).tolist())
    y_start = mp.matrix([mp.mpf(v) for v in y0])
    first = []  # (t0, exp(M t0) y0) of the first call

    def at(t):
        # later times step from the first one by the Taylor series of
        # exp(M (t - t0)) applied to a vector, summed to the working
        # precision: the events lie within a short step of it
        if not first:
            first.append((t, mp.expm(A * t) * y_start))
        t0, y = first[0]
        term, k = y, 0
        while mp.mnorm(term, 1) > mp.eps * mp.mnorm(y, 1):
            k += 1
            term = A * term * ((t - t0) / k)
            y = y + term
        return y, A * y
    return at


def _precision(dps: int):
    return mp.workdps(dps) if mp is not None else contextlib.nullcontext()


def flow_reference(M, y0, t: float, dps: int = 30) -> np.ndarray:
    """exp(M t) y0 for a square matrix M, at ``dps`` digits (or by the
    adaptive integrator)."""
    with _precision(dps):
        y = _flow_at(M, y0)(t if mp is None else mp.mpf(t))[0]
        return np.array([float(v) for v in y])


def _reference_root(flow, t_guess: float, dps: int):
    """The root of the first coordinate of ``flow`` next to t_guess.  It
    must change sign across t_guess +/- 1e-6 (relative, at most 1 time
    unit: the mpmath flow steps from the bracket's start by a Taylor
    series, whose terms grow as e^{|M| step}); Newton's method from
    t_guess then runs to ``dps`` digits.  With the adaptive integrator,
    one Newton step from t_guess already reaches its accuracy."""
    width = min(1e-6 * max(1.0, t_guess), 1.0)
    if mp is not None:
        t_guess, width = mp.mpf(t_guess), mp.mpf(width)
    before, after = flow(t_guess - width)[0][0], flow(t_guess + width)[0][0]
    assert before < 0 < after or after < 0 < before, \
        "no sign change around the given root"
    t = t_guess
    for _ in range(1 if mp is None else 20):
        y, slope = flow(t)
        step = y[0] / slope[0]
        t -= step
        if mp is None or abs(step) <= mp.mpf(10) ** -dps * max(1, abs(t)):
            return t
    raise AssertionError("Newton's method did not converge")


def _left_rows(a: float, b: float):
    """The regular piece's matrix [[a - 1, 1, 0], [a - b, 0, 1],
    [-b, 0, 0]], its entries exact at the working precision (floats for
    the adaptive integrator): rounding a - 1 and a - b to floats moves a
    slow rotation's spectrum far more than their own rounding."""
    if mp is not None:
        a, b = mp.mpf(a), mp.mpf(b)
    return [[a - 1, 1, 0], [a - b, 0, 1], [-b, 0, 0]]


def left_matrix(a: float, b: float) -> np.ndarray:
    """The hybrid system's regular piece in floats: eigenvalues -1 and
    (a +/- i*w)/2 with w = sqrt(4b - a^2), eigenvector (1, -a, b) for
    -1."""
    return np.array([[a - 1.0, 1.0, 0.0], [a - b, 0.0, 1.0],
                     [-b, 0.0, 0.0]])


def slide_block(c: float, d: float) -> np.ndarray:
    """The 2x2 block governing (y2, y3) on the switching plane."""
    return np.array([[c, 1.0], [-d, 0.0]])


def flow_slide(params, y0, t: float) -> np.ndarray:
    """The hybrid system's sliding flow at time t >= 0, in closed form;
    y0 must lie on the switching plane (first component zero) and the
    first component of the result is exactly zero.  It shares no code
    with the slide of ``filippov.hybrid``, which it checks.

    With p = c/2 and N = [[c, 1], [-d, 0]] - p I, N^2 = (p^2 - d) I, so
    exp(N t) = C I + S N: C = cos(qt), S = sin(qt)/q for a complex pair
    p +/- iq, C = cosh(kt), S = sinh(kt)/k for a real pair p +/- k, and
    C = 1, S = t for a double root."""
    if t < 0.0:
        raise ValueError("t must be non-negative")
    y1, y2, y3 = map(float, y0)
    if abs(y1) > 1e-9 * math.hypot(y1, y2, y3):
        raise ValueError("y0 is not on the switching plane (y1 != 0)")
    c, d, t = params.c, params.d, float(t)
    p = c / 2.0
    disc = c * c - 4.0 * d
    half = math.sqrt(abs(disc)) / 2.0
    if disc < 0.0:
        co, si = math.cos(half * t), math.sin(half * t) / half
    elif disc > 0.0:
        co, si = math.cosh(half * t), math.sinh(half * t) / half
    else:
        co, si = 1.0, t
    e = math.exp(p * t)
    return np.array([0.0, e * (co * y2 + si * (p * y2 + y3)),
                     e * (co * y3 - si * (d * y2 + p * y3))])


def _reference_return(params, t_plane: float, t_line: float, dps: int):
    """Minus the third coordinate of the return from (0, 0, -1), as an
    mpmath number (a float with the adaptive integrator)."""
    regular = _flow_at(_left_rows(params.a, params.b), (0.0, 0.0, -1.0))
    y = regular(_reference_root(regular, t_plane, dps))[0]
    slide = _flow_at(slide_block(params.c, params.d), (y[1], y[2]))
    return -slide(_reference_root(slide, t_line, dps))[0][1]


def return_reference(params, t_plane: float, t_line: float,
                     dps: int = 50) -> float:
    """The return multiplier from (0, 0, -1) of the hybrid system with
    parameters ``params``, independently of the closed forms: each flow
    is ``expm`` at ``dps`` digits (or the adaptive integrator), and each
    event the root of its monitor next to the time the package found,
    t_plane for the plane hit and t_line for the slide's return (see
    :func:`_reference_root`).  Agrees with the exact value to
    REFERENCE_RTOL relative."""
    with _precision(dps + 10):
        return float(_reference_return(params, t_plane, t_line, dps))


def log_return_reference(params, t_plane: float, t_line: float,
                         dps: int = 50) -> float:
    """log of :func:`return_reference`, to REFERENCE_RTOL absolute.  With
    mpmath it holds where the multiplier lies beyond the float range too;
    the adaptive integrator raises NonFiniteStateError there."""
    with _precision(dps + 10):
        value = _reference_return(params, t_plane, t_line, dps)
        return float(mp.log(value)) if mp is not None else math.log(value)


def marginal_d(a: float, b: float, c: float, lo: float, hi: float) -> float:
    """The d in (lo, hi) at which the package's scalar log Lambda of
    (a, b, c, d) changes sign, by bisection to adjacent floats: the lower
    one."""
    def log_value(d):
        return return_multiplier(HybridParams(a, b, c, d)).log_value
    assert log_value(lo) < 0.0 < log_value(hi)
    while (mid := (lo + hi) / 2.0) not in (lo, hi):
        lo, hi = (mid, hi) if log_value(mid) < 0.0 else (lo, mid)
    return lo


def for_all(examples: int, seed: int, strategy, draw):
    """Run a property test, a function of one case, over ``examples``
    cases: drawn by hypothesis from ``strategy(strategies)`` where it is
    installed (derandomized, no example database), else by ``draw(rng)``
    from a numpy generator seeded with ``seed``."""
    def decorate(check):
        if given is not None:
            return settings(max_examples=examples, deadline=None,
                            derandomize=True, database=None)(
                given(strategy(strategies))(check))

        def run():
            rng = np.random.default_rng(seed)
            for _ in range(examples):
                check(draw(rng))
        run.__name__ = run.__qualname__ = check.__name__
        return run
    return decorate


def translated_spec(spec: dict, shift) -> dict:
    """A system spec moved by ``shift``: x_i becomes (x_i - shift_i) in
    both fields and in H, and x_star is ``shift``."""
    def move(text):
        return re.sub(r"x([123])",
                      lambda m: f"(x{m[1]} - {shift[int(m[1]) - 1]!r})", text)
    return {"fL": [move(t) for t in spec["fL"]],
            "fR": [move(t) for t in spec["fR"]],
            "H": move(spec["H"]), "x_star": list(shift)}


def evaluate_tree(node, point) -> float:
    """Evaluate an expression tree by walking it recursively, with the
    domain rules and messages that the package documents: an integral
    exponent is raised as an integer, a non-integral one needs a
    non-negative base, division by zero, the square root of a negative
    number, an overflow and a non-finite result are errors."""
    x = dict(zip(("x1", "x2", "x3"), (float(v) for v in point)))

    def power(base, exponent):
        if float(exponent).is_integer():
            try:
                return base ** int(exponent)
            except ZeroDivisionError:
                raise EvalDomainError(
                    "zero raised to a negative power") from None
            except OverflowError:
                raise EvalDomainError("overflow in power") from None
        if base < 0.0:
            raise EvalDomainError("negative base with non-integer exponent "
                                  "is undefined over the reals")
        return base ** exponent

    def call(func, value):
        if func == "sqrt":
            if value < 0.0:
                raise EvalDomainError("square root of a negative number")
            return math.sqrt(value)
        if func == "exp":
            try:
                return math.exp(value)
            except OverflowError:
                raise EvalDomainError("overflow in exp") from None
        return {"sin": math.sin, "cos": math.cos, "abs": abs}[func](value)

    def walk(node):
        if isinstance(node, Num):
            return node.value
        if isinstance(node, Var):
            return x[node.name]
        if isinstance(node, Neg):
            return -walk(node.operand)
        if isinstance(node, Call):
            return call(node.func, walk(node.arg))
        assert isinstance(node, BinOp)
        left, right = walk(node.left), walk(node.right)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            if right == 0.0:
                raise EvalDomainError("division by zero")
            return left / right
        return power(left, right)

    try:
        value = walk(node)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise EvalDomainError(str(exc)) from None
    if not math.isfinite(value):
        raise EvalDomainError("expression value is not finite")
    return value


# Accuracy of gradient_reference: relative to its largest component, and
# a round-off relative to the function's value.  At 30 digits the first
# is a float's rounding and the second nil; central differences add
# truncation, and about eps / FD_REL_STEP of the value in round-off.
GRADIENT_RTOL = 1e-13 if sympy is not None else 1e-4
GRADIENT_VALUE_RTOL = 0.0 if sympy is not None else 1e-10


def _sympy_tree(node, symbols):
    """A tree as a sympy expression over real symbols; literals exactly
    (integral ones as integers, so that negative bases keep integral
    powers real)."""
    if isinstance(node, Num):
        value = node.value
        return (sympy.Integer(int(value)) if value.is_integer()
                else sympy.Rational(value))
    if isinstance(node, Var):
        return symbols[node.name]
    if isinstance(node, Neg):
        return -_sympy_tree(node.operand, symbols)
    if isinstance(node, Call):
        func = {"sin": sympy.sin, "cos": sympy.cos, "exp": sympy.exp,
                "sqrt": sympy.sqrt, "abs": sympy.Abs}[node.func]
        return func(_sympy_tree(node.arg, symbols))
    left = _sympy_tree(node.left, symbols)
    right = _sympy_tree(node.right, symbols)
    return {"+": sympy.Add, "-": lambda a, b: a - b, "*": sympy.Mul,
            "/": lambda a, b: a / b, "^": sympy.Pow}[node.op](left, right)


def gradient_reference(node, point):
    """The gradient of a tree at a point, as three floats, or None where
    a partial derivative is not a finite real number.  With sympy, each
    partial derivative is differentiated symbolically and evaluated at
    30 digits at the exact point; without it, central differences
    (:func:`filippov.expr.gradient_fd`) stand in, and a stencil point
    outside the domain, an estimate that halving the step moves, or a
    coordinate beyond 1e8 gives None.  Agrees with the exact gradient to
    GRADIENT_RTOL relative to its largest component (or to 1), plus
    GRADIENT_VALUE_RTOL of the function's value."""
    if sympy is None:
        # a step of 6e-6 |x| does not resolve sin(x) at x = 1e200: the
        # estimates at both steps read about 0
        if max(abs(float(v)) for v in point) > 1e8:
            return None
        field = ScalarField(node)
        try:
            coarse = gradient_fd(field, point)
            fine = _central_differences(field, point, FD_REL_STEP / 2.0)
        except EvalDomainError:
            return None
        # where halving the step moves the estimate, differences do not
        # resolve the function (cos(exp(exp(x))) at x = 2)
        scale = max(1.0, *map(abs, fine))
        if max(abs(a - b) for a, b in zip(coarse, fine)) > 1e-6 * scale:
            return None
        return tuple(float(v) for v in coarse)
    with mp.workdps(30):
        try:
            partials = [mp.mpmathify(v) for v in _sympy_gradient(node)(
                *(mp.mpf(float(v)) for v in point))]
        except (ArithmeticError, ValueError):  # a division by zero
            return None
        # sympy's forms of a real function may pass through complex
        # intermediates, e.g. (-x)^2.5 as (-1)^2.5 x^2.5
        partials = [v.real if isinstance(v, mp.mpc) and v.imag == 0 else v
                    for v in partials]
        if not all(isinstance(v, mp.mpf) and mp.isfinite(v)
                   for v in partials):
            return None
        return tuple(float(v) for v in partials)


def _central_differences(field, point, rel_step: float):
    grad = []
    for i in range(3):
        step = rel_step * max(1.0, abs(float(point[i])))
        plus, minus = list(map(float, point)), list(map(float, point))
        plus[i] += step
        minus[i] -= step
        grad.append((field(plus) - field(minus)) / (2.0 * step))
    return grad


@functools.lru_cache(maxsize=None)
def _sympy_gradient(node):
    """sympy's three partial derivatives of a tree, as one mpmath
    function of (x1, x2, x3)."""
    symbols = {name: sympy.Symbol(name, real=True)
               for name in ("x1", "x2", "x3")}
    expr = _sympy_tree(node, symbols)
    args = [symbols[name] for name in ("x1", "x2", "x3")]
    return sympy.lambdify(args, [sympy.diff(expr, x) for x in args], "mpmath")


def local_data_reference(p, q, A):
    """(p^T q, B, phi, det phi) by numpy's array arithmetic, the
    determinant by LU (``np.linalg.det``): the formulas the package used
    before it computed the local data on floats."""
    p, q, A = (np.asarray(v, dtype=float) for v in (p, q, A))
    ptq = float(p @ q)
    B = (np.eye(3) - np.outer(q, p) / ptq) @ A
    phi = np.vstack([p, p @ A, p @ A @ A])
    return ptq, B, phi, float(np.linalg.det(phi))


def branch_reference(p, q, A) -> str:
    """The branch of the trichotomy, as the name of the verdict class of
    ``filippov.stability``, from :func:`local_data_reference` and numpy's
    eigenvalues (``np.linalg.eigvals``) in place of ``eig3``: the same
    tests and tolerances, none of the package's arithmetic."""
    ptq, B, phi, det_phi = local_data_reference(p, q, A)
    if ptq > 0.0:
        return "UnstableRightward"
    if abs(det_phi) <= PBH_TOL * np.prod(np.linalg.norm(phi, axis=1)):
        return "Degenerate"
    A = np.asarray(A, dtype=float)
    norm_a, norm_b = float(np.linalg.norm(A)), float(np.linalg.norm(B))
    ztol_a = SIGN_TOL * norm_a
    ztol_b = SIGN_TOL * norm_b
    lams = np.linalg.eigvals(A / norm_a)
    # the discriminant of the norm-scaled characteristic cubic
    disc = ((lams[0] - lams[1]) * (lams[0] - lams[2])
            * (lams[1] - lams[2])) ** 2
    if abs(disc) <= DISC_TOL:
        return "Degenerate"
    if abs(np.linalg.det(B)) > ZERO_EIG_TOL * norm_b ** 3:
        return "Degenerate"
    mu = np.linalg.eigvals(B)
    pair_sum = float(np.sum(mu).real)
    pair_product = float((mu[0] * mu[1] + mu[0] * mu[2]
                          + mu[1] * mu[2]).real)
    real = sorted(float(v.real) * norm_a for v in lams if v.imag == 0.0)
    top = real[-1]
    if top > ztol_a:
        return "UnstableEigenvalue"
    if pair_sum * pair_sum - 4.0 * pair_product >= 0.0:
        top_b = max(np.roots([1.0, -pair_sum, pair_product]).real)
        if top_b > ztol_b:
            return "UnstableEigenvalue"
        if top_b >= -ztol_b:
            return "Degenerate"
    if len(real) == 3:
        if min(real[1] - real[0], real[2] - real[1]) <= \
                DISTINCT_GAP_TOL * norm_a or top >= -ztol_a:
            return "Degenerate"
        return "StableNode"
    if abs(top) <= ztol_a:
        return "Degenerate"
    return "Rotational"


# --------------------------------------------------------------------------
# closed-form decay orbit for three distinct negative eigenvalues
# --------------------------------------------------------------------------

def companion_matrix(tau: float, sigma: float, delta: float) -> np.ndarray:
    """The 3x3 companion-form matrix with characteristic polynomial
    lambda^3 - tau*lambda^2 + sigma*lambda - delta."""
    return np.array([[tau, 1.0, 0.0],
                     [-sigma, 0.0, 1.0],
                     [delta, 0.0, 0.0]])


def companion_from_eigs(lams) -> np.ndarray:
    l1, l2, l3 = (float(v) for v in lams)
    return companion_matrix(l1 + l2 + l3,
                            l1 * l2 + l1 * l3 + l2 * l3,
                            l1 * l2 * l3)


def _check_ordered_negative(lams) -> tuple[float, float, float]:
    l1, l2, l3 = (float(v) for v in lams)
    if not (l1 < l2 < l3 < 0.0):
        raise ValueError(
            f"eigenvalues must satisfy l1 < l2 < l3 < 0, got {(l1, l2, l3)}")
    return l1, l2, l3


def decay_eigvectors(lams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvectors of the companion matrix for the given triple: the
    vector for eigenvalue l_i is (1, -(l_j + l_k), l_j * l_k) with j, k
    the complementary indices."""
    l1, l2, l3 = _check_ordered_negative(lams)
    v1 = np.array([1.0, -(l2 + l3), l2 * l3])
    v2 = np.array([1.0, -(l3 + l1), l3 * l1])
    v3 = np.array([1.0, -(l1 + l2), l1 * l2])
    return v1, v2, v3


def eig_gap_product(lams) -> float:
    """(l1 - l2)(l2 - l3)(l3 - l1); positive for an ordered triple."""
    l1, l2, l3 = _check_ordered_negative(lams)
    return (l1 - l2) * (l2 - l3) * (l3 - l1)


def decay_coefficients(lams) -> tuple[float, float, float]:
    """Expansion coefficients of the orbit started at (0, 0, -1) in the
    eigenvector basis of :func:`decay_eigvectors`."""
    l1, l2, l3 = _check_ordered_negative(lams)
    gap = eig_gap_product(lams)
    return (l2 - l3) / gap, (l3 - l1) / gap, (l1 - l2) / gap


def companion_orbit(lams, t):
    """Closed-form forward orbit, from (0, 0, -1), of the companion
    system whose eigenvalues are the given strictly ordered negative
    triple.  ``t`` may be a scalar (returns shape (3,)) or an array
    (returns shape (3, n)).

    Evaluated as (0, 0, -1) + sum_i k_i expm1(l_i t) v_i, which is the
    eigenbasis expansion with the exact initial condition pulled out;
    this avoids the cancellation the plain exponential form suffers for
    clustered eigenvalues and small t.
    """
    l1, l2, l3 = _check_ordered_negative(lams)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("t must be non-negative")
    k1, k2, k3 = decay_coefficients(lams)
    v1, v2, v3 = decay_eigvectors(lams)
    e1 = np.expm1(l1 * t)
    e2 = np.expm1(l2 * t)
    e3 = np.expm1(l3 * t)
    out = (k1 * np.multiply.outer(v1, e1)
           + k2 * np.multiply.outer(v2, e2)
           + k3 * np.multiply.outer(v3, e3))
    out[2] -= 1.0
    # the first component is sign-critical at both ends of the t range:
    # the factored form is exact at t = 0 and keeps the (negative) sign
    # where the expm1 expansion would leave only cancellation residue
    out[0] = np.exp(l3 * t) * _indicator(l1, l2, l3, t) / eig_gap_product(lams)
    return out if t.ndim else out.reshape(3)


def _indicator(l1: float, l2: float, l3: float, t):
    a = l1 - l3
    b = l2 - l3
    return b * np.expm1(a * t) - a * np.expm1(b * t)


def crossing_indicator(lams, t):
    """The gap product times the first orbit component, with the positive
    decay prefactor exp(l3 t) removed: b*expm1(a t) - a*expm1(b t) for
    a = l1 - l3, b = l2 - l3.  Its sign decides whether the decay orbit
    can re-cross the switching plane: for an ordered negative triple it
    vanishes at t = 0 and is strictly negative for t > 0.  Cannot
    underflow on bounded t, so strict-sign checks stay honest where the
    orbit itself is denormal."""
    l1, l2, l3 = _check_ordered_negative(lams)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("t must be non-negative")
    out = _indicator(l1, l2, l3, t)
    return out if t.ndim else float(out)
