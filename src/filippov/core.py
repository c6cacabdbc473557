"""Local analysis of a 3D Filippov system at and near a boundary equilibrium.

A Filippov system is a pair of vector fields separated by the zero set of
a switching function H: the left field governs H < 0, the right field
H > 0, and on the surface the standard Filippov convention applies.  This
module derives, at a user-supplied boundary equilibrium of the left field,
the quantities that decide stability (surface normal p, right-field value
q, the two Jacobians A and B, and the observability matrix), and provides
the pointwise machinery used by the simulator: surface-region
classification, fold classification, and the sliding vector field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateGradientError,
    DegenerateSlidingError,
    FilippovError,
    NotAnEquilibriumError,
    NotOnSurfaceError,
    NotOnTangencyCurveError,
    TangentRightFieldError,
)
from .expr import ScalarField, VectorField, gradient_fd, jacobian_fd

__all__ = [
    "EQ_TOL", "TANGENCY_TOL",
    "FilippovSystem", "SystemSpec", "load_system_spec", "system_spec_from_dict",
    "BoundaryData", "boundary_data",
    "RegionKind", "FoldKind",
    "normal_rates", "classify_region", "fold_curvature", "classify_fold",
    "sliding_field",
]

# Absolute tolerance for "is an equilibrium" / "is on the surface" checks.
EQ_TOL = 1e-8
# Base tolerance for sign classifications, scaled by local magnitudes.
TANGENCY_TOL = 1e-9


@dataclass(frozen=True)
class FilippovSystem:
    """Two smooth vector fields and the switching function separating them."""

    left: VectorField
    right: VectorField
    switch: ScalarField

    @classmethod
    def parse(cls, left, right, switch: str) -> "FilippovSystem":
        return cls(VectorField.parse(left), VectorField.parse(right),
                   ScalarField.parse(switch))


@dataclass(frozen=True)
class SystemSpec:
    """A system together with its candidate boundary equilibrium."""

    system: FilippovSystem
    x_star: tuple[float, float, float]


_SPEC_FIELDS = {"fL", "fR", "H", "x_star"}


def system_spec_from_dict(data: dict) -> SystemSpec:
    """Build a SystemSpec from a parsed JSON document.

    Schema: ``{"fL": [s,s,s], "fR": [s,s,s], "H": s, "x_star": [r,r,r]}``
    with each ``s`` an expression string.  Unknown fields are rejected.
    """
    if not isinstance(data, dict):
        raise FilippovError("system spec must be a JSON object")
    unknown = set(data) - _SPEC_FIELDS
    if unknown:
        raise FilippovError(
            f"unknown system-spec fields: {', '.join(sorted(unknown))}")
    missing = _SPEC_FIELDS - set(data)
    if missing:
        raise FilippovError(
            f"missing system-spec fields: {', '.join(sorted(missing))}")
    for key in ("fL", "fR"):
        if not (isinstance(data[key], list) and len(data[key]) == 3
                and all(isinstance(s, str) for s in data[key])):
            raise FilippovError(f"field '{key}' must be a list of 3 strings")
    if not isinstance(data["H"], str):
        raise FilippovError("field 'H' must be a string")
    xs = data["x_star"]
    if not (isinstance(xs, list) and len(xs) == 3
            and all(isinstance(v, (int, float)) for v in xs)):
        raise FilippovError("field 'x_star' must be a list of 3 numbers")
    system = FilippovSystem.parse(data["fL"], data["fR"], data["H"])
    return SystemSpec(system, tuple(float(v) for v in xs))


def load_system_spec(path) -> SystemSpec:
    with open(Path(path), "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FilippovError(f"{path}: not valid JSON ({exc})") from exc
    return system_spec_from_dict(data)


# --------------------------------------------------------------------------
# boundary-equilibrium quantities
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryData:
    """Derived quantities at a boundary equilibrium.

    p is the switching-function gradient (surface normal), q the value of
    the right field, A the Jacobian of the left field, and
    B = (I - q p^T / p^T q) A the Jacobian of the sliding field; the
    observability matrix phi stacks p^T, p^T A, p^T A^2.  p^T B = 0
    structurally, so 0 is always an eigenvalue of B.
    """

    x_star: tuple[float, float, float]
    p: np.ndarray
    q: np.ndarray
    A: np.ndarray
    B: np.ndarray
    phi: np.ndarray
    det_phi: float
    ptq: float

    @classmethod
    def from_local_data(cls, x_star, p, q, A) -> "BoundaryData":
        """Assemble derived quantities from the raw local data.

        Performs the degeneracy checks on p and p^T q but does not (and
        cannot) verify that x_star is an equilibrium; use
        :func:`boundary_data` for the full construction from a system.
        """
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        A = np.asarray(A, dtype=float)
        norm_p = float(np.linalg.norm(p))
        norm_q = float(np.linalg.norm(q))
        if norm_p <= TANGENCY_TOL:
            raise DegenerateGradientError(
                "switching-function gradient vanishes at the equilibrium")
        ptq = float(p @ q)
        if abs(ptq) <= TANGENCY_TOL * norm_p * norm_q:
            raise TangentRightFieldError(
                "right field is tangent to the surface at the equilibrium "
                f"(p.q = {ptq:.3e})")
        B = (np.eye(3) - np.outer(q, p) / ptq) @ A
        phi = np.vstack([p, p @ A, p @ A @ A])
        det_phi = float(np.linalg.det(phi))
        return cls(tuple(float(v) for v in np.asarray(x_star, dtype=float)),
                   p, q, A, B, phi, det_phi, ptq)


def boundary_data(system: FilippovSystem, x_star) -> BoundaryData:
    """Compute the boundary-equilibrium quantities of a system at x_star.

    x_star must be a zero of the left field lying on the surface (both to
    EQ_TOL); it is verified, not solved for.
    """
    x_star = np.asarray(x_star, dtype=float)
    f_left = system.left(x_star)
    if np.linalg.norm(f_left) > EQ_TOL:
        raise NotAnEquilibriumError(
            f"left field at x_star has norm {np.linalg.norm(f_left):.3e} "
            f"(tolerance {EQ_TOL:g})")
    h_val = system.switch(x_star)
    if abs(h_val) > EQ_TOL:
        raise NotAnEquilibriumError(
            f"|H(x_star)| = {abs(h_val):.3e} exceeds {EQ_TOL:g}")
    p = gradient_fd(system.switch, x_star)
    q = system.right(x_star)
    A = jacobian_fd(system.left, x_star)
    return BoundaryData.from_local_data(x_star, p, q, A)


# --------------------------------------------------------------------------
# pointwise surface classification
# --------------------------------------------------------------------------

class RegionKind(Enum):
    CROSSING = "crossing"
    ATTRACTING_SLIDING = "attracting-sliding"
    REPELLING_SLIDING = "repelling-sliding"
    TANGENCY = "tangency"


class FoldKind(Enum):
    VISIBLE = "visible"
    INVISIBLE = "invisible"
    DEGENERATE = "degenerate"


def _rates_and_fields(system: FilippovSystem, x):
    """(grad H . f_L, grad H . f_R, f_L, f_R, grad H) at x: the package's
    one computation of the normal rates."""
    x = np.asarray(x, dtype=float)
    grad = gradient_fd(system.switch, x)
    f_left, f_right = system.left(x), system.right(x)
    return (float(grad @ f_left), float(grad @ f_right), f_left, f_right,
            grad)


def normal_rates(system: FilippovSystem, x) -> tuple[float, float]:
    """Rates of change of H along the left and right fields at x
    (grad H . f for each field)."""
    return _rates_and_fields(system, x)[:2]


def _rate_scale(grad: np.ndarray, field_value: np.ndarray) -> float:
    return max(1.0, float(np.linalg.norm(grad) * np.linalg.norm(field_value)))


def classify_region(system: FilippovSystem, x) -> RegionKind:
    """Classify a surface point by the signs of the two normal rates."""
    x = np.asarray(x, dtype=float)
    if abs(system.switch(x)) > EQ_TOL:
        raise NotOnSurfaceError(
            f"|H(x)| = {abs(system.switch(x)):.3e} exceeds {EQ_TOL:g}")
    rate_l, rate_r, f_left, f_right, grad = _rates_and_fields(system, x)
    tol_l = TANGENCY_TOL * _rate_scale(grad, f_left)
    tol_r = TANGENCY_TOL * _rate_scale(grad, f_right)
    if abs(rate_l) <= tol_l or abs(rate_r) <= tol_r:
        return RegionKind.TANGENCY
    if rate_l * rate_r > 0.0:
        return RegionKind.CROSSING
    if rate_l > 0.0:
        return RegionKind.ATTRACTING_SLIDING
    return RegionKind.REPELLING_SLIDING


def fold_curvature(system: FilippovSystem, x) -> float:
    """Second derivative of H in time along the left flow at x: the rate of
    change of the left normal rate along the left field.  Its sign on the
    tangency curve separates visible from invisible folds."""
    x = np.asarray(x, dtype=float)
    grad_rate = gradient_fd(lambda point: normal_rates(system, point)[0], x)
    return float(grad_rate @ system.left(x))


def classify_fold(system: FilippovSystem, x) -> FoldKind:
    """Classify a tangency-curve point by the sign of the fold curvature."""
    x = np.asarray(x, dtype=float)
    rate_l, _, f_left, _, grad = _rates_and_fields(system, x)
    scale_l = _rate_scale(grad, f_left)
    if abs(rate_l) > TANGENCY_TOL * scale_l:
        raise NotOnTangencyCurveError(
            f"left normal rate {rate_l:.3e} is not zero to tolerance")
    curv = fold_curvature(system, x)
    # Curvature is a second derivative; scale its tolerance accordingly.
    scale = max(1.0, scale_l ** 2)
    if curv < -TANGENCY_TOL * scale:
        return FoldKind.VISIBLE
    if curv > TANGENCY_TOL * scale:
        return FoldKind.INVISIBLE
    return FoldKind.DEGENERATE


def sliding_field(system: FilippovSystem, x) -> np.ndarray:
    """Filippov sliding vector field at x: the convex combination of the
    two fields that is tangent to the surface."""
    rate_l, rate_r, f_left, f_right, _ = _rates_and_fields(system, x)
    gap = rate_l - rate_r
    if abs(gap) <= TANGENCY_TOL * (abs(rate_l) + abs(rate_r) + 1.0):
        raise DegenerateSlidingError(
            f"normal rates coincide ({rate_l:.3e} vs {rate_r:.3e})")
    return (rate_l * f_right - rate_r * f_left) / gap
