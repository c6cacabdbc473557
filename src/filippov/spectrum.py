"""Closed-form eigen-analysis of 3x3 matrices.

Everything here is exact-arithmetic-style: the characteristic cubic is
solved by the depressed-cubic discriminant method (trigonometric form for
three real roots, Cardano for one real root plus a complex pair), and the
known zero eigenvalue of a sliding Jacobian is deflated analytically from
the trace and the sum of principal 2x2 minors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NearDegenerateError, NoZeroEigenvalueError

__all__ = [
    "ThreeReal", "RealPlusPair", "EigTriple", "eig3", "det3",
    "pair_sum_product", "pair_from_sum_product",
    "DISC_TOL", "ZERO_EIG_TOL",
]

# Discriminant threshold for root-type classification, applied to the
# norm-scaled matrix so the test is invariant under M -> s*M.
DISC_TOL = 1e-10
# Relative tolerance for "has a zero eigenvalue".
ZERO_EIG_TOL = 1e-8


@dataclass(frozen=True)
class ThreeReal:
    """Three real eigenvalues in ascending order."""

    lams: tuple[float, float, float]


@dataclass(frozen=True)
class RealPlusPair:
    """One real eigenvalue and a complex pair alpha +/- i*beta, beta > 0."""

    real_eig: float
    alpha: float
    beta: float


EigTriple = ThreeReal | RealPlusPair


def _entries(M) -> tuple[float, ...]:
    """The nine entries of a 3x3 array-like, row by row, as floats."""
    (a, b, c), (d, e, f), (g, h, i) = M
    return (float(a), float(b), float(c), float(d), float(e), float(f),
            float(g), float(h), float(i))


def _finite_entries(M) -> tuple[float, ...]:
    """:func:`_entries`, refusing a NaN or an infinity."""
    entries = _entries(M)
    if not all(map(math.isfinite, entries)):
        raise ValueError("matrix has non-finite entries")
    return entries


def det3(M) -> float:
    """Determinant of a 3x3 matrix by cofactor expansion along row one."""
    return _coeffs(*_entries(M))[2]


def _coeffs(a, b, c, d, e, f, g, h, i) -> tuple[float, float, float]:
    """Coefficients (tr, m, det) of det(lambda I - M) =
    lambda^3 - tr*lambda^2 + m*lambda - det for M = [[a, b, c], [d, e,
    f], [g, h, i]], where m is the sum of the principal 2x2 minors."""
    return (a + e + i,
            e * i - f * h + a * i - c * g + a * e - b * d,
            a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g))


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _newton_polish(root: float, tr: float, m: float, det: float) -> float:
    for _ in range(2):
        val = ((root - tr) * root + m) * root - det
        slope = (3.0 * root - 2.0 * tr) * root + m
        if slope == 0.0:
            break
        root -= val / slope
    return root


def eig3(M) -> EigTriple:
    """Eigenvalues of a 3x3 real matrix by the depressed-cubic method.

    Classification by the sign of the cubic discriminant of the
    norm-scaled matrix; magnitudes below DISC_TOL raise
    :class:`NearDegenerateError` (repeated roots -- the caller decides).
    """
    entries = _finite_entries(M)
    norm = math.hypot(*entries)
    scale = norm if norm > 0.0 else 1.0
    tr, m, det = _coeffs(*(v / scale for v in entries))

    # depressed cubic t^3 + p t + q via lambda = t + tr/3
    p = m - tr * tr / 3.0
    q = -2.0 * tr ** 3 / 27.0 + tr * m / 3.0 - det
    disc = -4.0 * p ** 3 - 27.0 * q * q

    if abs(disc) <= DISC_TOL:
        raise NearDegenerateError(
            f"characteristic cubic has (nearly) repeated roots "
            f"(scaled discriminant {disc:.3e})")

    if disc > 0.0:
        # three distinct real roots (trigonometric form)
        r = 2.0 * math.sqrt(-p / 3.0)
        arg = 3.0 * q / (2.0 * p) * math.sqrt(-3.0 / p)
        arg = min(1.0, max(-1.0, arg))
        theta = math.acos(arg)
        roots = sorted(
            _newton_polish(r * math.cos((theta - 2.0 * math.pi * k) / 3.0)
                           + tr / 3.0, tr, m, det)
            for k in range(3)
        )
        return ThreeReal(tuple(lam * scale for lam in roots))

    # one real root plus a complex pair (Cardano, cancellation-safe branch)
    s_d = math.sqrt(q * q / 4.0 + p ** 3 / 27.0)
    if q <= 0.0:
        u = _cbrt(-q / 2.0 + s_d)
        v = -p / (3.0 * u) if u != 0.0 else 0.0
    else:
        v = _cbrt(-q / 2.0 - s_d)
        u = -p / (3.0 * v) if v != 0.0 else 0.0
    real_root = _newton_polish(u + v + tr / 3.0, tr, m, det)

    # deflate: quotient quadratic lambda^2 + b1*lambda + b0
    b1 = real_root - tr
    b0 = m + real_root * b1
    rad = 4.0 * b0 - b1 * b1
    if rad <= 0.0:
        raise NearDegenerateError("deflated quadratic is not clearly complex")
    alpha = -b1 / 2.0
    beta = math.sqrt(rad) / 2.0
    return RealPlusPair(real_root * scale, alpha * scale, beta * scale)


def pair_sum_product(M) -> tuple[float, float]:
    """Sum and product of the two eigenvalues left after deflating the
    zero eigenvalue of M (these equal the trace and the sum of principal
    2x2 minors when one eigenvalue is zero).

    The test |det M| <= ZERO_EIG_TOL * |M|^3 runs on M scaled by a power
    of two into a norm in [1, 2) (below 1 if |M| is subnormal).  Such a
    scaling is exact, so the sum and product are those of M itself, and
    the test neither overflows nor underflows.  A NaN or infinite entry
    raises ValueError, as in :func:`eig3`.
    """
    entries = _finite_entries(M)
    norm = math.hypot(*entries)
    if norm == 0.0:
        return 0.0, 0.0
    k = max(-1022, math.frexp(norm)[1] - 1)  # 2**-k stays finite
    scale, inv = math.ldexp(1.0, k), math.ldexp(1.0, -k)
    tr, m, det = _coeffs(*(v * inv for v in entries))
    ratio = abs(det) / (norm * inv) ** 3
    if ratio > ZERO_EIG_TOL:
        raise NoZeroEigenvalueError(
            "matrix determinant is not zero to tolerance "
            f"(|det M| / |M|^3 = {ratio:.3e})")
    return tr * scale, m * scale * scale


def pair_from_sum_product(s: float, pr: float) -> tuple[complex, complex]:
    """The roots of lambda^2 - s*lambda + pr, in descending order of real
    part (then imaginary part)."""
    disc = s * s - 4.0 * pr
    if disc >= 0.0:
        root = math.sqrt(disc)
        return (complex((s + root) / 2.0), complex((s - root) / 2.0))
    beta = math.sqrt(-disc) / 2.0
    return (complex(s / 2.0, beta), complex(s / 2.0, -beta))
