"""Eigenvalue trichotomy for a boundary equilibrium.

Given the local data (p, q, A, B, observability matrix) the verdict is:
unstable when the right field points away from the surface or when A or
B has a positive real eigenvalue; asymptotically stable when A has three
distinct negative real eigenvalues and the non-zero eigenvalues of B are
complex or both negative; and in the rotational case (A has a complex
pair and a negative real eigenvalue) the question is delegated to the
return multiplier of the associated piecewise-linear hybrid system.
Sign patterns outside these hypotheses, and (nearly) repeated
eigenvalues, yield a Degenerate verdict rather than a guess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import BoundaryData, is_observable
from .errors import NearDegenerateError, NoZeroEigenvalueError
from .hybrid import HybridParams
from .spectrum import (
    ThreeReal,
    eig3,
    pair_from_sum_product,
    pair_sum_product,
)

__all__ = [
    "UnstableRightward", "UnstableEigenvalue", "StableNode", "Rotational",
    "Degenerate", "StabilityVerdict",
    "classify_equilibrium", "hybrid_params_from_spectrum",
    "SIGN_TOL", "DISTINCT_GAP_TOL",
]

# Eigenvalue sign calls use this tolerance, scaled by the matrix norm;
# values inside the band give Degenerate verdicts.
SIGN_TOL = 1e-10
# Relative pairwise gap below which three real eigenvalues do not count
# as distinct.
DISTINCT_GAP_TOL = 1e-8


@dataclass(frozen=True)
class UnstableRightward:
    """The right field is directed away from the surface (p.q > 0)."""

    ptq: float


@dataclass(frozen=True)
class UnstableEigenvalue:
    """A positive real eigenvalue of the left or sliding Jacobian."""

    matrix: str  # "left" | "sliding"
    eigenvalue: float


@dataclass(frozen=True)
class StableNode:
    """Three distinct negative real eigenvalues of the left Jacobian,
    with the sliding pair complex or both negative: asymptotically
    stable with no return map needed."""

    left_eigs: tuple[float, float, float]
    sliding_pair: tuple[complex, complex]


@dataclass(frozen=True)
class Rotational:
    """The rotational case: stability is decided by the return
    multiplier of the hybrid system with these parameters."""

    params: HybridParams
    alpha: float
    beta: float
    gamma: float
    sliding_pair: tuple[complex, complex]


@dataclass(frozen=True)
class Degenerate:
    """Hypotheses of the trichotomy are not met."""

    reason: str


StabilityVerdict = (UnstableRightward | UnstableEigenvalue | StableNode
                    | Rotational | Degenerate)


def hybrid_params_from_spectrum(alpha: float, beta: float, gamma: float,
                                pair_sum: float, pair_product: float,
                                ) -> HybridParams:
    """Hybrid-system parameters from the spectral data of the rotational
    case: a = 2*alpha/gamma, b = (alpha^2 + beta^2)/gamma^2,
    c = pair_sum/gamma, d = pair_product/gamma^2.

    Homogeneous of degree zero in the time scale: multiplying
    (alpha, beta, gamma) by s and (pair_sum, pair_product) by (s, s^2)
    leaves the result unchanged.  Each quantity is divided by gamma
    before it is squared, so no square of a time-scaled quantity
    overflows or loses digits below the normal floats.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    ra, rb = alpha / gamma, beta / gamma
    return HybridParams(
        a=2.0 * ra,
        b=ra * ra + rb * rb,
        c=pair_sum / gamma,
        d=pair_product / gamma / gamma,
    )


def classify_equilibrium(bd: BoundaryData) -> StabilityVerdict:
    """Apply the trichotomy to boundary-equilibrium data, on the float
    tuples that :class:`BoundaryData` holds."""
    if bd.ptq > 0.0:
        return UnstableRightward(bd.ptq)

    # observability (genericity) requirement
    if not is_observable(bd.phi):
        return Degenerate(
            "observability matrix is singular (an eigenvector of the left "
            "Jacobian is orthogonal to the surface normal)")

    A, B = bd.A, bd.B
    norm_a = math.hypot(*A[0], *A[1], *A[2])
    norm_b = math.hypot(*B[0], *B[1], *B[2])
    # the verdict and (a, b, c, d) do not depend on the time scale.  So
    # far from time scale 1, where the pair product, of order |B|^2, may
    # be subnormal, the pair and its signs are taken with time scaled by
    # 2^k, the multiple of 2^256 nearest 1/|B| (exact), and the pair is
    # scaled back after
    k = -256 * round(math.frexp(norm_b)[1] / 256)
    if k:
        B = [[math.ldexp(v, k) for v in row] for row in B]
    ztol_a, ztol_b = SIGN_TOL * norm_a, SIGN_TOL * math.ldexp(norm_b, k)

    try:
        eigs_a = eig3(A)
    except NearDegenerateError:
        return Degenerate("left Jacobian has (nearly) repeated eigenvalues")
    try:
        s_sum, s_prod = pair_sum_product(B)
    except NoZeroEigenvalueError as exc:
        return Degenerate(f"sliding Jacobian lacks its zero eigenvalue: {exc}")
    scaled = pair_from_sum_product(s_sum, s_prod)
    pair = scaled if not k else tuple(
        complex(math.ldexp(z.real, -k), math.ldexp(z.imag, -k))
        for z in scaled)

    # a positive real eigenvalue of either matrix settles instability
    if isinstance(eigs_a, ThreeReal):
        if eigs_a.lams[2] > ztol_a:
            return UnstableEigenvalue("left", eigs_a.lams[2])
    elif eigs_a.real_eig > ztol_a:
        return UnstableEigenvalue("left", eigs_a.real_eig)
    if scaled[0].imag == 0.0:
        top = scaled[0].real
        if top > ztol_b:
            return UnstableEigenvalue("sliding", math.ldexp(top, -k))
        if top >= -ztol_b:
            return Degenerate(
                "a non-zero eigenvalue of the sliding Jacobian is zero to "
                "tolerance")

    if isinstance(eigs_a, ThreeReal):
        l1, l2, l3 = eigs_a.lams
        if min(l2 - l1, l3 - l2) <= DISTINCT_GAP_TOL * norm_a:
            return Degenerate(
                "left-Jacobian eigenvalues are not distinct to tolerance")
        if l3 >= -ztol_a:
            return Degenerate(
                "a left-Jacobian eigenvalue is zero to tolerance")
        return StableNode((l1, l2, l3), pair)

    if abs(eigs_a.real_eig) <= ztol_a:
        return Degenerate(
            "the real eigenvalue of the left Jacobian is zero to tolerance")
    gamma = -eigs_a.real_eig
    params = hybrid_params_from_spectrum(
        math.ldexp(eigs_a.alpha, k), math.ldexp(eigs_a.beta, k),
        math.ldexp(gamma, k), s_sum, s_prod)
    return Rotational(params, eigs_a.alpha, eigs_a.beta, gamma, pair)
