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
import math
from dataclasses import dataclass
from functools import cached_property
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateGradientError,
    DegenerateSlidingError,
    FilippovError,
    NonFiniteDataError,
    NotAnEquilibriumError,
    NotOnSurfaceError,
    NotOnTangencyCurveError,
    TangentRightFieldError,
)
from .expr import (ScalarField, VectorField, compile_rates_and_fields,
                   gradient_fd)
from .expr import jacobian_fd  # not called; perfbench/spans.py wraps it here
from .spectrum import det3

__all__ = [
    "EQ_TOL", "TANGENCY_TOL", "PBH_TOL",
    "FilippovSystem", "SystemSpec", "load_system_spec", "system_spec_from_dict",
    "BoundaryData", "boundary_data", "is_observable",
    "RegionKind", "FoldKind",
    "normal_rates", "classify_region", "fold_curvature", "classify_fold",
    "sliding_field",
]

# Absolute tolerance for "is an equilibrium" / "is on the surface" checks.
EQ_TOL = 1e-8
# Base tolerance for sign classifications, scaled by local magnitudes.
TANGENCY_TOL = 1e-9
# |det phi| at or below PBH_TOL times the product of its row norms fails
# the observability (genericity) requirement.
PBH_TOL = 1e-9


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

    @cached_property
    def rates_and_fields(self):
        """:func:`filippov.expr.compile_rates_and_fields` of the system:
        the package's one computation of the normal rates."""
        return compile_rates_and_fields(self.switch, self.left, self.right)

    @cached_property
    def sliding(self):
        """The Filippov sliding vector field as one function (x1, x2, x3)
        -> 3-tuple: the convex combination of the two fields that is
        tangent to the surface.  Raises DegenerateSlidingError where the
        two normal rates coincide."""
        rates_and_fields = self.rates_and_fields

        def sliding(x1: float, x2: float, x3: float):
            rate_l, rate_r, (l1, l2, l3), (r1, r2, r3), _ = \
                rates_and_fields(x1, x2, x3)
            gap = rate_l - rate_r
            if abs(gap) <= TANGENCY_TOL * (abs(rate_l) + abs(rate_r) + 1.0):
                raise DegenerateSlidingError(
                    f"normal rates coincide ({rate_l:.3e} vs {rate_r:.3e})")
            return ((rate_l * r1 - rate_r * l1) / gap,
                    (rate_l * r2 - rate_r * l2) / gap,
                    (rate_l * r3 - rate_r * l3) / gap)
        return sliding


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
    structurally, so 0 is always an eigenvalue of B.  det_phi is reported
    but not tested: it scales as s^3 when both fields are scaled by s, and
    can leave the float range; :func:`is_observable` decides instead.
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
        Computes on floats, with B formed as A - (q / p^T q)(p^T A), and
        builds the arrays once at the end.  Raises NonFiniteDataError
        when p, q, A, p^T q, B or p^T A^2 is not finite.
        """
        p = p1, p2, p3 = _floats(p)
        q = q1, q2, q3 = _floats(q)
        (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = A = \
            tuple(_floats(row) for row in (A.tolist() if hasattr(A, "tolist")
                                           else A))
        _require_finite("p", p)
        _require_finite("q", q)
        _require_finite("A", A[0] + A[1] + A[2])
        norm_p = math.hypot(*p)
        if norm_p <= TANGENCY_TOL:
            raise DegenerateGradientError(
                "switching-function gradient vanishes at the equilibrium")
        ptq = p1 * q1 + p2 * q2 + p3 * q3
        _require_finite("p^T q", (ptq,))
        if abs(ptq) <= TANGENCY_TOL * norm_p * math.hypot(*q):
            raise TangentRightFieldError(
                "right field is tangent to the surface at the equilibrium "
                f"(p.q = {ptq:.3e})")
        pa = r1, r2, r3 = (p1 * a11 + p2 * a21 + p3 * a31,
                           p1 * a12 + p2 * a22 + p3 * a32,
                           p1 * a13 + p2 * a23 + p3 * a33)
        pa2 = (r1 * a11 + r2 * a21 + r3 * a31,
               r1 * a12 + r2 * a22 + r3 * a32,
               r1 * a13 + r2 * a23 + r3 * a33)
        w = (q1 / ptq, q2 / ptq, q3 / ptq)
        B = tuple((a1 - wi * r1, a2 - wi * r2, a3 - wi * r3)
                  for (a1, a2, a3), wi in zip(A, w))
        _require_finite("p^T A^2", pa2)
        _require_finite("B", B[0] + B[1] + B[2])
        phi = (p, pa, pa2)
        return cls(_floats(x_star), np.array(p), np.array(q), np.array(A),
                   np.array(B), np.array(phi), det3(phi), ptq)


def _require_finite(name: str, values) -> None:
    if not all(map(math.isfinite, values)):
        raise NonFiniteDataError(f"{name} is not finite at the equilibrium")


def is_observable(phi) -> bool:
    """The observability (genericity) requirement on phi (rows p^T,
    p^T A, p^T A^2): |det phi| exceeds PBH_TOL times the product of its
    row norms.  Scaling a row scales both sides alike, so the test runs
    on unit rows: it cannot overflow, and scaling the fields in time
    does not change it."""
    unit = []
    for row in phi.tolist() if hasattr(phi, "tolist") else phi:
        norm = math.hypot(*row)
        if norm == 0.0:
            return False
        unit.append([v / norm for v in row])
    return abs(det3(unit)) > PBH_TOL


def _floats(x) -> tuple[float, float, float]:
    return float(x[0]), float(x[1]), float(x[2])


def boundary_data(system: FilippovSystem, x_star) -> BoundaryData:
    """Compute the boundary-equilibrium quantities of a system at x_star.

    x_star must be a zero of the left field lying on the surface (both to
    EQ_TOL); it is verified, not solved for.  A is exact, from the same
    call as the check on the left field.
    """
    x_star = _floats(x_star)
    f_left, A = system.left.compiled_jacobian(*x_star)
    norm = math.hypot(*f_left)
    if norm > EQ_TOL:
        raise NotAnEquilibriumError(
            f"left field at x_star has norm {norm:.3e} "
            f"(tolerance {EQ_TOL:g})")
    h_val, *p = system.switch.compiled_gradient(*x_star)
    if abs(h_val) > EQ_TOL:
        raise NotAnEquilibriumError(
            f"|H(x_star)| = {abs(h_val):.3e} exceeds {EQ_TOL:g}")
    q = system.right.compiled(*x_star)
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
    """(grad H . f_L, grad H . f_R, f_L, f_R, grad H) at x, from
    :attr:`FilippovSystem.rates_and_fields`."""
    rate_l, rate_r, f_left, f_right, h_grad = \
        system.rates_and_fields(*_floats(x))
    return rate_l, rate_r, f_left, f_right, h_grad[1:]


def normal_rates(system: FilippovSystem, x) -> tuple[float, float]:
    """Rates of change of H along the left and right fields at x
    (grad H . f for each field)."""
    return _rates_and_fields(system, x)[:2]


def _rate_scale(grad, field_value) -> float:
    return max(1.0, math.hypot(*grad) * math.hypot(*field_value))


def classify_region(system: FilippovSystem, x) -> RegionKind:
    """Classify a surface point by the signs of the two normal rates."""
    rate_l, rate_r, f_left, f_right, (h_val, *grad) = \
        system.rates_and_fields(*_floats(x))
    if abs(h_val) > EQ_TOL:
        raise NotOnSurfaceError(f"|H(x)| = {abs(h_val):.3e} exceeds {EQ_TOL:g}")
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
    """Filippov sliding vector field at x (:attr:`FilippovSystem.sliding`)."""
    return np.array(system.sliding(*_floats(x)))
