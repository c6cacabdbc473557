"""The four-parameter piecewise-linear hybrid system and its return map.

Orbits alternate between a 3D linear flow in the half-space y1 <= 0
(switching to the sliding piece when they reach the plane y1 = 0) and a
planar linear flow on that plane (switching back when they reach the line
y1 = y2 = 0).  Both flows are evaluated from explicit spectral formulas,
never by numerical integration.  The sliding segment's return is the
exact first root of its closed form, for every eigenstructure of the
planar block.  The regular segment's event is located by fixed stepping
tied to the rotation period plus secant refinement (with a bisection
fallback).

The multiplier of the first-return map to the line decides stability:
values below 1 (or an orbit that never returns and decays) mean the
origin attracts, values above 1 mean it repels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .errors import (
    ConstraintViolationError,
    FilippovError,
    NearDegenerateError,
    NotRotationalError,
)
from .spectrum import (
    NormalFormParams,
    RealPlusPair,
    ThreeReal,
    companion_matrix,
    eig3,
)

__all__ = [
    "HybridParams", "EventConfig", "DEFAULT_EVENT_CONFIG",
    "LambdaStatus", "LambdaResult", "MARGINAL_TOL",
    "SegmentEvent", "Termination", "ReturnOutcome",
    "left_matrix", "slide_block",
    "flow_left", "flow_slide",
    "first_hit_plane", "first_hit_line", "first_return",
    "return_multiplier", "return_map", "LambdaArrays", "slide_domain",
    "return_multiplier_normal_form",
]

# A return multiplier within this distance of 1 makes no stability claim.
MARGINAL_TOL = 1e-9


def _marginal(value):
    """Whether a multiplier (a float or an array) is within MARGINAL_TOL
    of 1."""
    return abs(value - 1.0) <= MARGINAL_TOL


@dataclass(frozen=True)
class HybridParams:
    """Parameters (a, b, c, d) of the piecewise-linear hybrid system.

    Validity requires b > a^2/4 (the regular piece must rotate), d > 0,
    and d > c^2/4 whenever c > 0 (the sliding eigenvalues are complex or
    both negative).
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        a, b, c, d = self.a, self.b, self.c, self.d
        for name, value in (("a", a), ("b", b), ("c", c), ("d", d)):
            if not math.isfinite(value):
                raise ConstraintViolationError(f"parameter {name} is not finite")
        if b <= a * a / 4.0:
            raise ConstraintViolationError(
                f"b = {b:g} must exceed a^2/4 = {a * a / 4.0:g}")
        if d <= 0.0:
            raise ConstraintViolationError(f"d = {d:g} must be positive")
        if c > 0.0 and d <= c * c / 4.0:
            raise ConstraintViolationError(
                f"with c = {c:g} > 0, d = {d:g} must exceed c^2/4 = {c * c / 4.0:g}")


@dataclass(frozen=True)
class EventConfig:
    """Tuning knobs for event location.

    The sliding return is exact, so ``steps_per_rotation``,
    ``max_secant_iters``, ``norm_floor`` and ``max_segments`` apply to the
    regular segment only; ``norm_ceiling`` also bounds the return point of
    the slide.  ``max_segments`` bounds the stepping iterations of the
    regular segment; exceeding it is treated as divergence, with a
    diagnostic.
    """

    steps_per_rotation: int = 256
    secant_tol: float = 1e-12
    max_secant_iters: int = 60
    norm_floor: float = 1e-6
    norm_ceiling: float = 1e6
    max_segments: int = 10000

    def __post_init__(self):
        if self.steps_per_rotation <= 0 or self.max_secant_iters <= 0 \
                or self.max_segments <= 0:
            raise ValueError("iteration counts must be positive")
        if self.secant_tol <= 0.0:
            raise ValueError("secant_tol must be positive")
        if not (0.0 < self.norm_floor < 1.0 < self.norm_ceiling):
            raise ValueError("need 0 < norm_floor < 1 < norm_ceiling")


DEFAULT_EVENT_CONFIG = EventConfig()


class LambdaStatus(Enum):
    DEFINED = "defined"
    MARGINAL = "marginal"
    UNDEFINED_CONVERGED = "undefined-converged"
    UNDEFINED_DIVERGED = "undefined-diverged"


@dataclass(frozen=True)
class LambdaResult:
    """Outcome of a return-multiplier computation."""

    status: LambdaStatus
    value: Optional[float] = None
    detail: str = ""

    @property
    def defined(self) -> bool:
        return self.status in (LambdaStatus.DEFINED, LambdaStatus.MARGINAL)

    @property
    def stable(self) -> Optional[bool]:
        """True when the origin attracts (a multiplier below 1, or an
        orbit that decays without returning), False when it repels, None
        for a marginal multiplier."""
        if self.status is LambdaStatus.MARGINAL:
            return None
        if self.status is LambdaStatus.DEFINED:
            return self.value < 1.0
        return self.status is LambdaStatus.UNDEFINED_CONVERGED

    def __post_init__(self):
        if self.status in (LambdaStatus.DEFINED, LambdaStatus.MARGINAL):
            if self.value is None or not math.isfinite(self.value) \
                    or self.value <= 0.0:
                raise FilippovError(
                    f"a defined multiplier must be finite and positive, "
                    f"got {self.value!r}")
            if (self.status is LambdaStatus.MARGINAL) != \
                    _marginal(self.value):
                raise FilippovError("marginal status inconsistent with value")

    @classmethod
    def from_value(cls, value: float, detail: str = "") -> "LambdaResult":
        """A computed multiplier: marginal within MARGINAL_TOL of 1,
        defined otherwise."""
        status = (LambdaStatus.MARGINAL if _marginal(value)
                  else LambdaStatus.DEFINED)
        return cls(status, value, detail)


class LambdaArrays(NamedTuple):
    """Return multipliers over arrays of (c, d), from :func:`return_map`:
    the :class:`LambdaStatus` of each (dtype object) and its value (NaN
    where undefined)."""

    status: np.ndarray
    value: np.ndarray

    @property
    def stable(self) -> np.ndarray:
        """:attr:`LambdaResult.stable` of each multiplier, False where it
        is marginal (test ``status`` for those)."""
        return ((self.status == LambdaStatus.UNDEFINED_CONVERGED)
                | ((self.status == LambdaStatus.DEFINED) & (self.value < 1.0)))


@dataclass(frozen=True)
class SegmentEvent:
    """A located switching event: the first positive time at which the
    monitored coordinate of the current flow reaches zero."""

    t_hit: float
    y_hit: tuple[float, float, float]
    transition: str  # "regular-to-slide" | "slide-to-return"


@dataclass(frozen=True)
class Termination:
    """A flow segment ended without an event (norm threshold, step
    limit, or a non-oscillatory slide with no root)."""

    status: LambdaStatus  # one of the UNDEFINED_* values
    detail: str


@dataclass(frozen=True)
class ReturnOutcome:
    """Result of composing regular and sliding segments from (0, 0, z)."""

    status: str  # "returned" | "converged" | "diverged"
    zeta: Optional[float]  # third coordinate of the return point
    detail: str = ""
    events: tuple[SegmentEvent, ...] = ()


# --------------------------------------------------------------------------
# matrices and closed-form flows
# --------------------------------------------------------------------------

def left_matrix(a: float, b: float) -> np.ndarray:
    """Matrix of the regular piece; eigenvalues -1 and (a +/- i*w)/2
    with w = sqrt(4b - a^2), eigenvector (1, -a, b) for -1."""
    return np.array([[a - 1.0, 1.0, 0.0],
                     [a - b, 0.0, 1.0],
                     [-b, 0.0, 0.0]])


def slide_block(c: float, d: float) -> np.ndarray:
    """2x2 block governing (y2, y3) on the switching plane."""
    return np.array([[c, 1.0], [-d, 0.0]])


def _spiral_flow(M, mu: float, alpha: float, beta: float, y0,
                 ) -> Callable[[float], tuple[float, float, float]]:
    """Closed-form flow of a 3x3 matrix with spectrum {mu, alpha +/- i*beta}.

    Splits y0 into its component along the real eigendirection (via the
    annihilating quadratic of the complex pair) and its component in the
    rotation plane, then evolves each part explicitly.
    """
    m = np.asarray(M, dtype=float)
    y = np.asarray(y0, dtype=float)
    my = m @ y
    s_y = m @ my - 2.0 * alpha * my + (alpha * alpha + beta * beta) * y
    denom = (mu - alpha) ** 2 + beta * beta
    ur = s_y / denom
    w = y - ur
    g = (m @ w - alpha * w) / beta
    u1, u2, u3 = float(ur[0]), float(ur[1]), float(ur[2])
    w1, w2, w3 = float(w[0]), float(w[1]), float(w[2])
    g1, g2, g3 = float(g[0]), float(g[1]), float(g[2])

    def flow(t: float) -> tuple[float, float, float]:
        er = math.exp(mu * t)
        ec = math.exp(alpha * t)
        co = math.cos(beta * t)
        si = math.sin(beta * t)
        return (er * u1 + ec * (co * w1 + si * g1),
                er * u2 + ec * (co * w2 + si * g2),
                er * u3 + ec * (co * w3 + si * g3))

    return flow


# Planar slide flow: eigenvalue structure of [[c, 1], [-d, 0]].
_PLANAR_COMPLEX = "complex"
_PLANAR_REAL = "real"
_PLANAR_RESONANT = "resonant"


class _PlanarModes(NamedTuple):
    """The slide from (y2_0, y3_0) split along the eigenstructure of
    [[c, 1], [-d, 0]].  ``kind`` fixes the meaning of the rates p, q and
    of the mode coefficients m = (m2, m3):

    - complex: y(t) = e^{pt} (cos(qt) y0 + sin(qt) m), eigenvalues p +/- iq;
    - real: y2(t) = m2 e^{pt} + m3 e^{qt}, eigenvalues p > q, whose
      eigenvectors (1, p - c) = (1, -q) and (1, -p) give y3;
    - resonant: y(t) = e^{pt} (y0 + t m), double eigenvalue p = q.
    """

    kind: str
    p: float
    q: float
    y2_0: float
    y3_0: float
    m2: float
    m3: float

    def at(self, t: float) -> tuple[float, float]:
        """(y2, y3) at time t."""
        if self.kind == _PLANAR_COMPLEX:
            ec = math.exp(self.p * t)
            co = math.cos(self.q * t)
            si = math.sin(self.q * t)
            return (ec * (co * self.y2_0 + si * self.m2),
                    ec * (co * self.y3_0 + si * self.m3))
        if self.kind == _PLANAR_REAL:
            e1 = math.exp(self.p * t)
            e2 = math.exp(self.q * t)
            return (self.m2 * e1 + self.m3 * e2,
                    -self.m2 * self.q * e1 - self.m3 * self.p * e2)
        er = math.exp(self.p * t)
        return er * (self.y2_0 + t * self.m2), er * (self.y3_0 + t * self.m3)


def _planar_modes(c: float, d: float, y2_0: float, y3_0: float,
                  ) -> _PlanarModes:
    disc = c * c - 4.0 * d
    tol = 1e-12 * max(1.0, c * c + 4.0 * abs(d))
    if disc < -tol:
        alpha = c / 2.0
        beta = math.sqrt(-disc) / 2.0
        return _PlanarModes(_PLANAR_COMPLEX, alpha, beta, y2_0, y3_0,
                            (c * y2_0 + y3_0 - alpha * y2_0) / beta,
                            (-d * y2_0 - alpha * y3_0) / beta)
    if disc > tol:
        root = math.sqrt(disc)
        r1 = (c + root) / 2.0
        r2 = (c - root) / 2.0
        k1 = (y3_0 + r1 * y2_0) / (r1 - r2)
        return _PlanarModes(_PLANAR_REAL, r1, r2, y2_0, y3_0, k1, y2_0 - k1)
    r = c / 2.0
    return _PlanarModes(_PLANAR_RESONANT, r, r, y2_0, y3_0,
                        c * y2_0 + y3_0 - r * y2_0, -d * y2_0 - r * y3_0)


def _hybrid_spectrum(a: float, b: float) -> tuple[float, float, float]:
    """(mu, alpha, beta) of the regular piece: mu = -1 exactly."""
    return -1.0, a / 2.0, math.sqrt(4.0 * b - a * a) / 2.0


def flow_left(params: HybridParams, y0, t: float) -> np.ndarray:
    """Closed-form regular flow at time t >= 0."""
    if t < 0.0:
        raise ValueError("t must be non-negative")
    flow = _spiral_flow(left_matrix(params.a, params.b),
                        *_hybrid_spectrum(params.a, params.b), y0)
    return np.array(flow(float(t)))


def flow_slide(params: HybridParams, y0, t: float) -> np.ndarray:
    """Closed-form sliding flow at time t >= 0; y0 must lie on the
    switching plane (first component zero) and the first component of the
    result is exactly zero."""
    if t < 0.0:
        raise ValueError("t must be non-negative")
    y0 = np.asarray(y0, dtype=float)
    if abs(y0[0]) > 1e-9 * max(1.0, float(np.linalg.norm(y0))):
        raise ValueError("y0 is not on the switching plane (y1 != 0)")
    modes = _planar_modes(params.c, params.d, float(y0[1]), float(y0[2]))
    z2, z3 = modes.at(float(t))
    return np.array([0.0, z2, z3])


# --------------------------------------------------------------------------
# event location
# --------------------------------------------------------------------------

def _norm3(y: tuple[float, float, float]) -> float:
    return math.sqrt(y[0] * y[0] + y[1] * y[1] + y[2] * y[2])


def _refine_root(flow, lo: float, m_lo: float, hi: float, m_hi: float,
                 cfg: EventConfig):
    """Secant iteration on t -> flow(t)[0] inside a sign-change bracket,
    falling back to bisection whenever an iterate leaves the bracket."""
    if m_hi == 0.0:
        return hi, flow(hi)
    a_t, a_m = lo, m_lo
    b_t, b_m = hi, m_hi
    t0, f0 = a_t, a_m
    t1, f1 = b_t, b_m
    best_t, best_y, best_m = b_t, flow(b_t), abs(b_m)
    for _ in range(cfg.max_secant_iters):
        if f1 != f0:
            t2 = t1 - f1 * (t1 - t0) / (f1 - f0)
        else:
            t2 = 0.5 * (a_t + b_t)
        if not (a_t < t2 < b_t):
            t2 = 0.5 * (a_t + b_t)
        y2 = flow(t2)
        f2 = y2[0]
        if abs(f2) <= cfg.secant_tol * max(1.0, _norm3(y2)):
            return t2, y2
        if abs(f2) < best_m:
            best_t, best_y, best_m = t2, y2, abs(f2)
        if (f2 > 0.0) == (a_m > 0.0):
            a_t, a_m = t2, f2
        else:
            b_t, b_m = t2, f2
        t0, f0 = t1, f1
        t1, f1 = t2, f2
    return best_t, best_y  # tolerance not met; proceed with the best point


def _find_crossing(flow, dt: float, cfg: EventConfig):
    """Step a closed-form flow until its first coordinate leaves y1 < 0,
    then refine.  Returns ("event", t, y) or ("converged"|"diverged",
    detail).
    """
    try:
        y = flow(0.0)
    except OverflowError:
        return ("diverged", "overflow at segment start")
    norm0 = _norm3(y)
    if norm0 < cfg.norm_floor:
        return ("converged", "norm below floor at segment start")
    if norm0 > cfg.norm_ceiling:
        return ("diverged", "norm above ceiling at segment start")
    t_prev = 0.0
    m_prev = y[0]
    if abs(m_prev) <= cfg.secant_tol * max(1.0, norm0):
        # trivial root at the segment start: advance one full step before
        # arming detection (the orbit enters the interior quadratically)
        t_prev = dt
        y = flow(dt)
        m_prev = y[0]
        nrm = _norm3(y)
        if nrm < cfg.norm_floor:
            return ("converged", "norm below floor")
        if nrm > cfg.norm_ceiling:
            return ("diverged", "norm above ceiling")
        if m_prev > 0.0:
            # left the interior within the very first step; bracket against
            # a point just past the excluded trivial root
            lo = dt * 1e-9
            y_lo = flow(lo)
            m_lo = y_lo[0]
            if m_lo < 0.0:
                t_hit, y_hit = _refine_root(flow, lo, m_lo, dt, m_prev, cfg)
                return ("event", t_hit, y_hit)
    steps = 0
    while steps < cfg.max_segments:
        steps += 1
        t_cur = t_prev + dt
        try:
            y = flow(t_cur)
        except OverflowError:
            return ("diverged", "overflow during stepping")
        m_cur = y[0]
        if not (math.isfinite(m_cur) and math.isfinite(y[1])
                and math.isfinite(y[2])):
            return ("diverged", "non-finite state")
        if m_cur >= 0.0 and m_prev < 0.0:
            t_hit, y_hit = _refine_root(flow, t_prev, m_prev, t_cur, m_cur,
                                        cfg)
            return ("event", t_hit, y_hit)
        nrm = _norm3(y)
        if nrm < cfg.norm_floor:
            return ("converged", "norm below floor")
        if nrm > cfg.norm_ceiling:
            return ("diverged", "norm above ceiling")
        t_prev, m_prev = t_cur, m_cur
    return ("diverged",
            f"no event within {cfg.max_segments} steps (step limit)")


def _termination(kind: str, detail: str) -> Termination:
    status = (LambdaStatus.UNDEFINED_CONVERGED if kind == "converged"
              else LambdaStatus.UNDEFINED_DIVERGED)
    return Termination(status, detail)


def _plane_hit_spiral(M, mu: float, alpha: float, beta: float, y0,
                      cfg: EventConfig) -> Union[SegmentEvent, Termination]:
    """First time the regular flow from y0 (with y1 <= 0) reaches y1 = 0."""
    flow = _spiral_flow(M, mu, alpha, beta, y0)
    dt = 2.0 * math.pi / (beta * cfg.steps_per_rotation)
    result = _find_crossing(flow, dt, cfg)
    if result[0] != "event":
        return _termination(result[0], result[1] + " (regular segment)")
    _, t_hit, y_hit = result
    return SegmentEvent(t_hit, (y_hit[0], y_hit[1], y_hit[2]),
                        "regular-to-slide")


def _line_hit_block(c: float, d: float, y2_0: float, y3_0: float,
                    cfg: EventConfig) -> Union[SegmentEvent, Termination]:
    """First time the sliding flow from (0, y2_0, y3_0), y2_0 > 0,
    reaches y2 = 0: the exact first root of the closed form."""
    modes = _planar_modes(c, d, y2_0, y3_0)
    try:
        if modes.kind == _PLANAR_COMPLEX:
            # y2(t) = e^{pt} R cos(qt - phi) with R = hypot(y2_0, m2) and
            # phi = atan2(m2, y2_0) in (-pi/2, pi/2), as y2_0 > 0: the first
            # zero is at qt - phi = pi/2, the only one in (0, pi/q)
            t_hit = (math.atan2(modes.m2, y2_0) + math.pi / 2.0) / modes.q
            y3_hit = (math.exp(modes.p * t_hit)
                      * (modes.m3 * y2_0 - y3_0 * modes.m2)
                      / math.hypot(y2_0, modes.m2))
        else:
            # y2 has at most one positive root (for a real pair only when
            # m2 < 0, as y2_0 = m2 + m3 > 0 and p > q); without one, the
            # slide decays or grows at its dominant rate
            t_hit = None
            if modes.kind == _PLANAR_REAL:
                rate = modes.p if modes.m2 != 0.0 else modes.q
                if modes.m2 < 0.0 and -modes.m3 / modes.m2 > 1.0:
                    t_hit = (math.log(-modes.m3 / modes.m2)
                             / (modes.p - modes.q))
            else:
                rate = modes.p
                if modes.m2 < 0.0:
                    t_hit = -y2_0 / modes.m2
            if t_hit is None:
                if rate < 0.0:
                    return _termination("converged",
                                        "slide decays without returning "
                                        "(sliding segment)")
                return _termination("diverged",
                                    "slide grows without returning "
                                    "(sliding segment)")
            y3_hit = modes.at(t_hit)[1]
    except OverflowError:
        return _termination("diverged",
                            "overflow at the return (sliding segment)")
    if abs(y3_hit) > cfg.norm_ceiling:
        return _termination("diverged",
                            "norm above ceiling at the return "
                            "(sliding segment)")
    return SegmentEvent(float(t_hit), (0.0, 0.0, float(y3_hit)),
                        "slide-to-return")


# LambdaStatus by its index in the enumeration, for the array path
_STATUSES = np.array(list(LambdaStatus), dtype=object)
_DEFINED, _MARGINAL, _CONVERGED, _DIVERGED = range(4)


def _line_hit_arrays(c: np.ndarray, d: np.ndarray, y2_0: float, y3_0: float,
                     cfg: EventConfig) -> LambdaArrays:
    """:func:`_line_hit_block` and the verdict on its return, over arrays
    of valid (c, d) sliding from one start (0, y2_0, y3_0), y2_0 > 0.

    Every block kind is evaluated on every cell and the cell's own kind
    selects the result.  A slide without a return decays or grows at its
    dominant rate; overflow and non-finite values are divergence, as are
    returns beyond ``norm_ceiling``; a return at or above the origin is
    convergence.
    """
    with np.errstate(all="ignore"):
        disc = c * c - 4.0 * d
        tol = 1e-12 * np.maximum(1.0, c * c + 4.0 * np.abs(d))
        is_complex = disc < -tol
        is_real = disc > tol
        # complex pair p +/- iq, and the resonant double root p: their
        # mode coefficients share the numerators n2, n3
        p = c / 2.0
        n2 = c * y2_0 + y3_0 - p * y2_0
        n3 = -d * y2_0 - p * y3_0
        q = np.sqrt(-disc) / 2.0
        m2, m3 = n2 / q, n3 / q
        t_c = (np.arctan2(m2, y2_0) + np.pi / 2.0) / q
        y3_c = np.exp(p * t_c) * (m3 * y2_0 - y3_0 * m2) / np.hypot(y2_0, m2)
        t_s = -y2_0 / n2
        y3_s = np.exp(p * t_s) * (y3_0 + t_s * n3)
        # real pair r1 > r2: y2 = k1 e^{r1 t} + k2 e^{r2 t}
        root = np.sqrt(disc)
        r1 = (c + root) / 2.0
        r2 = (c - root) / 2.0
        k1 = (y3_0 + r1 * y2_0) / (r1 - r2)
        k2 = y2_0 - k1
        ratio = -k2 / k1
        t_r = np.log(ratio) / (r1 - r2)
        y3_r = -k1 * r2 * np.exp(r1 * t_r) - k2 * r1 * np.exp(r2 * t_r)

        returns = is_complex | np.where(is_real, (k1 < 0.0) & (ratio > 1.0),
                                        n2 < 0.0)
        rate = np.where(is_real, np.where(k1 != 0.0, r1, r2), p)
        y3 = np.where(is_complex, y3_c, np.where(is_real, y3_r, y3_s))
        value = -y3
        status = np.select(
            [~returns, ~(np.abs(y3) <= cfg.norm_ceiling), y3 >= 0.0,
             _marginal(value)],
            [np.where(rate < 0.0, _CONVERGED, _DIVERGED), _DIVERGED,
             _CONVERGED, _MARGINAL], _DEFINED)
    return LambdaArrays(_STATUSES[status],
                        np.where(status <= _MARGINAL, value, np.nan))


# --------------------------------------------------------------------------
# public event / return-map operations
# --------------------------------------------------------------------------

def first_hit_plane(params: HybridParams, y0,
                    cfg: EventConfig = DEFAULT_EVENT_CONFIG,
                    ) -> Union[SegmentEvent, Termination]:
    """First positive time at which the regular flow from y0 (in
    y1 <= 0) reaches the switching plane, or the reason it never does."""
    y0 = tuple(float(v) for v in y0)
    if y0[0] > 1e-9 * max(1.0, _norm3(y0)):
        raise ValueError("y0 must lie in the half-space y1 <= 0")
    return _plane_hit_spiral(left_matrix(params.a, params.b),
                             *_hybrid_spectrum(params.a, params.b), y0, cfg)


def first_hit_line(params: HybridParams, y0,
                   cfg: EventConfig = DEFAULT_EVENT_CONFIG,
                   ) -> Union[SegmentEvent, Termination]:
    """First positive time at which the sliding flow from y0 (on the
    plane, with y2 > 0) reaches the return line y1 = y2 = 0."""
    y0 = tuple(float(v) for v in y0)
    if abs(y0[0]) > 1e-9 * max(1.0, _norm3(y0)):
        raise ValueError("y0 is not on the switching plane")
    if y0[1] <= 0.0:
        raise ValueError("y0 must have y2 > 0")
    return _line_hit_block(params.c, params.d, y0[1], y0[2], cfg)


def _slide_start(plane_result: Union[SegmentEvent, Termination],
                 cfg: EventConfig) -> Union[SegmentEvent, ReturnOutcome]:
    """The regular-segment event the slide starts from, or the outcome
    when the return is decided without a slide: the regular segment
    ended without an event, or its plane hit lies on the return line."""
    ev1 = plane_result
    if isinstance(ev1, Termination):
        return ReturnOutcome(_outcome_of(ev1), None, ev1.detail)
    y2h, y3h = ev1.y_hit[1], ev1.y_hit[2]
    tol = cfg.secant_tol * max(1.0, _norm3(ev1.y_hit))
    if y2h <= tol:
        # the plane hit landed on the return line itself
        if y3h >= 0.0:
            return ReturnOutcome("converged", None,
                                 "return at or above the origin", (ev1,))
        return ReturnOutcome("returned", y3h,
                             "plane hit on the return line", (ev1,))
    return ev1


def _compose_return(plane_result: Union[SegmentEvent, Termination],
                    c: float, d: float, cfg: EventConfig) -> ReturnOutcome:
    """Finish a first-return computation given the regular-segment result
    (which depends only on a, b, and the start point)."""
    ev1 = _slide_start(plane_result, cfg)
    if isinstance(ev1, ReturnOutcome):
        return ev1
    ev2 = _line_hit_block(c, d, ev1.y_hit[1], ev1.y_hit[2], cfg)
    if isinstance(ev2, Termination):
        return ReturnOutcome(_outcome_of(ev2), None, ev2.detail, (ev1,))
    zeta = ev2.y_hit[2]
    if zeta >= 0.0:
        return ReturnOutcome("converged", None,
                             "return at or above the origin", (ev1, ev2))
    return ReturnOutcome("returned", zeta, "", (ev1, ev2))


def first_return(params: HybridParams, z: float,
                 cfg: EventConfig = DEFAULT_EVENT_CONFIG) -> ReturnOutcome:
    """Compose the regular and sliding segments from (0, 0, z), z < 0,
    and report the third coordinate of the first return to the line."""
    z = float(z)
    if not z < 0.0:
        raise ValueError("z must be negative")
    ev1 = first_hit_plane(params, (0.0, 0.0, z), cfg)
    return _compose_return(ev1, params.c, params.d, cfg)


def _outcome_of(term: Termination) -> str:
    return ("converged" if term.status is LambdaStatus.UNDEFINED_CONVERGED
            else "diverged")


def _result_from_outcome(out: ReturnOutcome) -> LambdaResult:
    if out.status == "returned":
        return LambdaResult.from_value(-out.zeta, out.detail)
    if out.status == "converged":
        return LambdaResult(LambdaStatus.UNDEFINED_CONVERGED, None, out.detail)
    return LambdaResult(LambdaStatus.UNDEFINED_DIVERGED, None, out.detail)


def return_multiplier(params: HybridParams,
                      cfg: EventConfig = DEFAULT_EVENT_CONFIG) -> LambdaResult:
    """The return-map multiplier: minus the image of -1 under the first
    return to the line, or the reason it is undefined."""
    return _result_from_outcome(first_return(params, -1.0, cfg))


def slide_domain(c, d) -> tuple[np.ndarray, np.ndarray]:
    """Two masks over arrays of (c, d): ``valid``, where the pair meets
    the constraints :class:`HybridParams` puts on it (finite, d > 0, and
    d > c^2/4 whenever c > 0), and ``outside``, where it breaks them
    strictly (d <= 0, or c > 0 and d < c^2/4).  Pairs in neither lie on
    the boundary d = c^2/4, c > 0, or are not finite."""
    c = np.asarray(c, dtype=float)
    d = np.asarray(d, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        quarter = c * c / 4.0
        valid = (np.isfinite(c) & np.isfinite(d) & (d > 0.0)
                 & ((c <= 0.0) | (d > quarter)))
        outside = (d <= 0.0) | ((c > 0.0) & (d < quarter))
    return valid, outside


def return_map(a: float, b: float, cfg: EventConfig = DEFAULT_EVENT_CONFIG,
               ) -> Callable[[np.ndarray, np.ndarray], LambdaArrays]:
    """The return multiplier over arrays of (c, d), for fixed (a, b).

    The regular segment depends on (a, b) only, so it is computed here,
    once.  The returned function takes float arrays ``c`` and ``d`` (of
    one shape, or broadcastable), raises :class:`ConstraintViolationError`
    through :class:`HybridParams` if any pair is invalid, and returns the
    :class:`LambdaArrays` of that shape.  Statuses agree with
    :func:`return_multiplier`, values to rounding.
    """
    if not (math.isfinite(b) and b > a * a / 4.0):  # also rejects a NaN
        raise ConstraintViolationError(
            f"need finite b > a^2/4, got a = {a:g}, b = {b:g}")
    head = _slide_start(_plane_hit_spiral(left_matrix(a, b),
                                          *_hybrid_spectrum(a, b),
                                          (0.0, 0.0, -1.0), cfg), cfg)
    if isinstance(head, ReturnOutcome):
        # decided before any slide: every (c, d) has the same multiplier
        result = _result_from_outcome(head)
        value = np.nan if result.value is None else result.value

    def multiplier(c, d) -> LambdaArrays:
        c, d = np.broadcast_arrays(np.asarray(c, dtype=float),
                                   np.asarray(d, dtype=float))
        bad = ~slide_domain(c, d)[0]
        if bad.any():
            k = int(np.argmax(bad.ravel()))
            HybridParams(a, b, float(c.ravel()[k]), float(d.ravel()[k]))
        if isinstance(head, ReturnOutcome):
            return LambdaArrays(np.full(c.shape, result.status, dtype=object),
                                np.full(c.shape, value))
        return _line_hit_arrays(c, d, head.y_hit[1], head.y_hit[2], cfg)

    return multiplier


def return_multiplier_normal_form(nf: NormalFormParams,
                                  cfg: EventConfig = DEFAULT_EVENT_CONFIG,
                                  ) -> LambdaResult:
    """Return multiplier of the five-parameter reduction.

    The regular piece must have a complex pair; three real eigenvalues
    raise :class:`NotRotationalError` (that case is decided by the
    eigenvalue classification, not by a return map).
    """
    M = companion_matrix(nf.tau_l, nf.sigma_l, nf.delta_l)
    try:
        eigs = eig3(M)
    except NearDegenerateError as exc:
        raise NotRotationalError(
            f"regular piece has (nearly) repeated eigenvalues: {exc}") from exc
    if isinstance(eigs, ThreeReal):
        raise NotRotationalError(
            f"regular piece has three real eigenvalues {eigs.lams}")
    assert isinstance(eigs, RealPlusPair)
    ev1 = _plane_hit_spiral(M, eigs.real_eig, eigs.alpha, eigs.beta,
                            (0.0, 0.0, -1.0), cfg)
    return _result_from_outcome(_compose_return(ev1, nf.tau_s, nf.delta_s,
                                                cfg))
