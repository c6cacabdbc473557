"""Closed-form eigen-analysis of 3x3 matrices.

Everything here is exact-arithmetic-style: the characteristic cubic is
solved by the depressed-cubic discriminant method (trigonometric form for
three real roots, Cardano for one real root plus a complex pair), and the
known zero eigenvalue of a sliding Jacobian is deflated analytically from
the trace and the sum of principal 2x2 minors.

The module also houses the closed-form forward orbit of the companion
system with three distinct negative eigenvalues started at (0, 0, -1),
used to verify that such orbits never re-cross the switching plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    EigenvalueOrderViolationError,
    NearDegenerateError,
    NoZeroEigenvalueError,
)

__all__ = [
    "ThreeReal", "RealPlusPair", "EigTriple", "eig3", "det3",
    "char_poly_coeffs", "pair_sum_product", "pair_from_sum_product",
    "companion_matrix", "companion_from_eigs",
    "decay_eigvectors", "decay_coefficients", "eig_gap_product",
    "companion_orbit", "crossing_indicator",
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


EigTriple = Union[ThreeReal, RealPlusPair]


def _entries(M) -> tuple[float, ...]:
    """The nine entries of a 3x3 array-like, row by row, as floats."""
    (a, b, c), (d, e, f), (g, h, i) = M.tolist() if hasattr(M, "tolist") else M
    return (float(a), float(b), float(c), float(d), float(e), float(f),
            float(g), float(h), float(i))


def det3(M) -> float:
    """Determinant of a 3x3 matrix by cofactor expansion along row one."""
    return _coeffs(*_entries(M))[2]


def char_poly_coeffs(M) -> tuple[float, float, float]:
    """Coefficients (tr, m, det) of det(lambda I - M) =
    lambda^3 - tr*lambda^2 + m*lambda - det, where m is the sum of the
    principal 2x2 minors."""
    return _coeffs(*_entries(M))


def _coeffs(a, b, c, d, e, f, g, h, i) -> tuple[float, float, float]:
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
    entries = _entries(M)
    if not all(map(math.isfinite, entries)):
        raise ValueError("matrix has non-finite entries")
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

    The test |det M| <= ZERO_EIG_TOL * max(1, |M|)^3 runs on M scaled by
    a power of two into a norm below 2.  Such a scaling is exact, so the
    sum and product are those of M itself, and the test cannot overflow.
    """
    entries = _entries(M)
    norm = math.hypot(*entries)
    k = max(0, math.frexp(norm)[1] - 1)
    scale, inv = math.ldexp(1.0, k), math.ldexp(1.0, -k)
    tr, m, det = _coeffs(*(v * inv for v in entries))
    ratio = abs(det) / max(inv, norm * inv) ** 3
    if ratio > ZERO_EIG_TOL:
        raise NoZeroEigenvalueError(
            "matrix determinant is not zero to tolerance "
            f"(|det M| / max(1, |M|)^3 = {ratio:.3e})")
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


# --------------------------------------------------------------------------
# closed-form decay orbit for three distinct negative eigenvalues
# --------------------------------------------------------------------------

def _check_ordered_negative(lams) -> tuple[float, float, float]:
    l1, l2, l3 = (float(v) for v in lams)
    if not (l1 < l2 < l3 < 0.0):
        raise EigenvalueOrderViolationError(
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
