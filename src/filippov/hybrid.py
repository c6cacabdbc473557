"""The four-parameter piecewise-linear hybrid system and its return map.

Orbits alternate between a 3D linear flow in the half-space y1 <= 0
(switching to the sliding piece when they reach the plane y1 = 0) and a
planar linear flow on that plane (switching back when they reach the line
y1 = y2 = 0).  Both flows are evaluated from explicit spectral formulas,
never by numerical integration.  The sliding segment's return is the
exact first root of its closed form, for every eigenstructure of the
planar block.  The regular segment's return is found on
h(t) = e^{-alpha t} y1(t) = u1 e^{(mu - alpha) t} + R cos(beta t - phi),
half turn by half turn of the rotation, with sign and Lipschitz root
exclusion (Moore, *Interval Analysis*, 1966): the search either brackets
the first root, which a secant refines to a tolerance relative to R, or
proves that the leg never returns.  It has no step size, step budget,
norm floor or norm ceiling.

The return map is linear in the start, so its multiplier is computed as
log Lambda, a sum of logs of closed-form terms: the plane hit is
e^{alpha t} v with v = e^{-alpha t} y(t) bounded, and the slide's return
is log |y3| = r t + log w, with w and the rate r of its block (see
:func:`_line_hit_block`).  Nothing on the way leaves the float range,
and the size of a hit decides nothing: a segment diverges only when it
provably never returns while its dominant mode grows.  Against a
50-digit mpmath reference, log Lambda agrees to 1e-13 max(1, |log
Lambda|) on a wide random corpus (see the README).

The multiplier of the first-return map to the line decides stability:
log Lambda below 0 (or an orbit that never returns and decays) means the
origin attracts, above 0 that it repels.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (
    ConstraintViolationError,
    FilippovError,
    ToleranceNotMetError,
)

__all__ = [
    "HybridParams", "LambdaStatus", "LambdaResult", "MARGINAL_TOL",
    "SegmentEvent", "Termination", "ReturnOutcome",
    "first_hit_plane", "first_hit_line", "first_return",
    "return_multiplier", "return_map", "LambdaArrays", "slide_domain",
]

# A return multiplier whose log is within this distance of 0 makes no
# stability claim.
MARGINAL_TOL = 1e-9
_EPS = sys.float_info.epsilon
_LOG_MAX = math.log(sys.float_info.max)  # math.exp(_LOG_MAX) is finite
# The regular segment's secant stops once |h| <= _SECANT_TOL * R (R the
# amplitude of the rotating part of y1 e^{-alpha t}), and raises
# ToleranceNotMetError when it has not within _MAX_SECANT_ITERS.
_SECANT_TOL = 1e-12
_MAX_SECANT_ITERS = 60


def _marginal(log_value):
    """Whether a log multiplier (a float or an array) is within
    MARGINAL_TOL of 0."""
    return abs(log_value) <= MARGINAL_TOL


def _exp(x: float) -> float:
    """e^x, inf beyond the float range (where math.exp raises)."""
    return math.exp(x) if x <= _LOG_MAX else math.inf


def _discriminant(c, d):
    """c^2 - 4d of floats or arrays, with the rounding error of c^2 added
    back (Dekker's exact product, 1971): accurate to a few ulps of itself
    where c^2 and 4d nearly cancel, as the rates of a slow rotation or a
    nearly resonant slide need."""
    split = c * 134217729.0  # 2^27 + 1
    hi = split - (split - c)
    lo = c - hi
    square = c * c
    return ((square - 4.0 * d)
            + (((hi * hi - square) + 2.0 * hi * lo) + lo * lo))


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


class LambdaStatus(Enum):
    DEFINED = "defined"
    MARGINAL = "marginal"
    UNDEFINED_CONVERGED = "undefined-converged"
    UNDEFINED_DIVERGED = "undefined-diverged"


@dataclass(frozen=True)
class LambdaResult:
    """Outcome of a return-multiplier computation: log Lambda where it is
    defined, which decides the status."""

    status: LambdaStatus
    log_value: Optional[float] = None
    detail: str = ""

    @property
    def value(self) -> Optional[float]:
        """Lambda = exp(log_value): inf or 0.0 beyond the float range,
        None where undefined."""
        return None if self.log_value is None else _exp(self.log_value)

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
            return self.log_value < 0.0
        return self.status is LambdaStatus.UNDEFINED_CONVERGED

    def __post_init__(self):
        if self.status in (LambdaStatus.DEFINED, LambdaStatus.MARGINAL):
            if self.log_value is None or not math.isfinite(self.log_value):
                raise FilippovError(
                    f"a defined multiplier must have a finite log, "
                    f"got {self.log_value!r}")
            if (self.status is LambdaStatus.MARGINAL) != \
                    _marginal(self.log_value):
                raise FilippovError("marginal status inconsistent with value")

    @classmethod
    def from_log(cls, log_value: float, detail: str = "") -> "LambdaResult":
        """A computed multiplier from its log: marginal within
        MARGINAL_TOL of 0, defined otherwise."""
        status = (LambdaStatus.MARGINAL if _marginal(log_value)
                  else LambdaStatus.DEFINED)
        return cls(status, log_value, detail)


# LambdaStatus by its index in the enumeration: the array path's code
_STATUSES = np.array(list(LambdaStatus), dtype=object)
_DEFINED, _MARGINAL, _CONVERGED = range(3)


class LambdaArrays(NamedTuple):
    """Return multipliers over arrays of (c, d), from :func:`return_map`:
    the code of each, the index of its :class:`LambdaStatus` (0 defined,
    1 marginal, 2 undefined-converged, 3 undefined-diverged), and log
    Lambda (NaN where undefined).  ``status``, ``defined``, ``marginal``
    and ``stable`` are views on the codes."""

    code: np.ndarray
    log_value: np.ndarray

    @property
    def status(self) -> np.ndarray:
        """The :class:`LambdaStatus` of each code (dtype object)."""
        return _STATUSES[self.code]

    @property
    def defined(self) -> np.ndarray:
        return self.code <= _MARGINAL

    @property
    def marginal(self) -> np.ndarray:
        return self.code == _MARGINAL

    @property
    def value(self) -> np.ndarray:
        """Lambda = exp(log_value): inf or 0.0 beyond the float range,
        NaN where undefined."""
        with np.errstate(over="ignore", under="ignore"):
            return np.exp(self.log_value)

    @property
    def stable(self) -> np.ndarray:
        """:attr:`LambdaResult.stable` of each multiplier, False where it
        is marginal (test ``marginal`` for those)."""
        return ((self.code == _CONVERGED)
                | ((self.code == _DEFINED) & (self.log_value < 0.0)))


@dataclass(frozen=True)
class SegmentEvent:
    """A located switching event: the first positive time at which the
    monitored coordinate of the current flow reaches zero.  The hit is
    e^{log_scale} v with v bounded, so that its size is known beyond the
    float range too."""

    t_hit: float
    v: tuple[float, float, float]
    log_scale: float
    transition: str  # "regular-to-slide" | "slide-to-return"

    @property
    def y_hit(self) -> tuple[float, float, float]:
        """The hit point; a component beyond the float range reads +/-inf
        or 0."""
        scale = _exp(self.log_scale)
        return tuple(x * scale if x else 0.0 for x in self.v)


@dataclass(frozen=True)
class Termination:
    """A flow segment ended without an event: it provably never returns,
    and converges or diverges at the rate of its dominant mode."""

    status: LambdaStatus  # one of the UNDEFINED_* values
    detail: str


@dataclass(frozen=True)
class ReturnOutcome:
    """Result of composing regular and sliding segments from (0, 0, z)."""

    status: str  # "returned" | "converged" | "diverged"
    zeta: Optional[float]  # third coordinate of the return point
    detail: str = ""
    events: tuple[SegmentEvent, ...] = ()
    log_ratio: Optional[float] = None  # log(zeta / z) = log Lambda


# --------------------------------------------------------------------------
# matrices and closed-form flows
# --------------------------------------------------------------------------

def _left_rows(a: float, b: float) -> tuple[tuple[float, ...], ...]:
    """Rows of the regular piece's matrix: eigenvalues -1 and
    (a +/- i*w)/2 with w = sqrt(4b - a^2), eigenvector (1, -a, b) for -1."""
    return ((a - 1.0, 1.0, 0.0), (a - b, 0.0, 1.0), (-b, 0.0, 0.0))


class _SpiralSplit(NamedTuple):
    """A start y0 split along the spectrum {mu, alpha +/- i*beta} of a 3x3
    matrix M, so that the flow is
    y(t) = e^{mu t} u + e^{alpha t} (cos(beta t) w + sin(beta t) g);
    ``dy`` = M y0 and ``ddy`` = M^2 y0 are y'(0) and y''(0)."""

    u: tuple[float, float, float]
    w: tuple[float, float, float]
    g: tuple[float, float, float]
    dy: tuple[float, float, float]
    ddy: tuple[float, float, float]


def _spiral_split(M, mu: float, alpha: float, beta: float, y0,
                  ) -> _SpiralSplit:
    """Split y0 into its component u along the real eigendirection (via
    the annihilating quadratic of the complex pair) and its component w in
    the rotation plane, in pure floats.  M is a sequence of rows."""
    (m11, m12, m13), (m21, m22, m23), (m31, m32, m33) = M

    def mul(v1, v2, v3):
        return (m11 * v1 + m12 * v2 + m13 * v3,
                m21 * v1 + m22 * v2 + m23 * v3,
                m31 * v1 + m32 * v2 + m33 * v3)

    y1, y2, y3 = y0
    dy = mul(y1, y2, y3)
    ddy = mul(*dy)
    rot = alpha * alpha + beta * beta
    denom = (mu - alpha) ** 2 + beta * beta
    two_alpha = 2.0 * alpha
    u = ((ddy[0] - two_alpha * dy[0] + rot * y1) / denom,
         (ddy[1] - two_alpha * dy[1] + rot * y2) / denom,
         (ddy[2] - two_alpha * dy[2] + rot * y3) / denom)
    w = (y1 - u[0], y2 - u[1], y3 - u[2])
    mw = mul(*w)
    g = ((mw[0] - alpha * w[0]) / beta, (mw[1] - alpha * w[1]) / beta,
         (mw[2] - alpha * w[2]) / beta)
    return _SpiralSplit(u, w, g, dy, ddy)


def _spiral_at(split: _SpiralSplit, mu: float, alpha: float, beta: float,
               t: float) -> tuple[float, float, float]:
    """Closed-form flow at time t of a 3x3 matrix with spectrum
    {mu, alpha +/- i*beta}, from a split start: each part evolves
    explicitly."""
    (u1, u2, u3), (w1, w2, w3), (g1, g2, g3) = split.u, split.w, split.g
    er = math.exp(mu * t)
    ec = math.exp(alpha * t)
    co = math.cos(beta * t)
    si = math.sin(beta * t)
    return (er * u1 + ec * (co * w1 + si * g1),
            er * u2 + ec * (co * w2 + si * g2),
            er * u3 + ec * (co * w3 + si * g3))


def _hybrid_spectrum(a: float, b: float) -> tuple[float, float, float]:
    """(mu, alpha, beta) of the regular piece: mu = -1 exactly.  The
    check b > a*a/4 of HybridParams makes 4b - a^2 > 0 exactly, as a*a/4
    is a^2/4 rounded to the nearest float."""
    return -1.0, a / 2.0, math.sqrt(-_discriminant(a, b)) / 2.0


# --------------------------------------------------------------------------
# event location
# --------------------------------------------------------------------------

def _refine_root(f, lo: float, f_lo: float, hi: float, f_hi: float,
                 tol: float, max_iters: int) -> float:
    """Secant iteration on f inside a bracket with f_lo < 0 <= f_hi,
    falling back to bisection whenever an iterate leaves the bracket.
    Returns the first point with |f| <= tol, or the next secant iterate
    where that is closer to the root; raises
    :class:`ToleranceNotMetError` when none comes within max_iters."""
    if abs(f_hi) <= tol:
        return hi
    a_t, b_t = lo, hi
    t0, f0 = lo, f_lo
    t1, f1 = hi, f_hi
    closest = abs(f_hi)
    for _ in range(max_iters):
        t2 = t1 - f1 * (t1 - t0) / (f1 - f0) if f1 != f0 else a_t
        if not a_t < t2 < b_t:
            t2 = 0.5 * (a_t + b_t)
        f2 = f(t2)
        if abs(f2) <= tol:
            # one more secant step, kept where it lands closer to the root
            t3 = t2 - f2 * (t2 - t1) / (f2 - f1) if f2 != f1 else t2
            if t3 != t2 and a_t < t3 < b_t and abs(f(t3)) < abs(f2):
                return t3
            return t2
        closest = min(closest, abs(f2))
        if f2 < 0.0:
            a_t = t2
        else:
            b_t = t2
        t0, f0 = t1, f1
        t1, f1 = t2, f2
    raise ToleranceNotMetError(
        f"plane hit not refined to |h| <= {tol:.3g} in {max_iters} secant "
        f"iterations (closest {closest:.3g})")


def _half_turn_bracket(terms, lo: float, v_lo, hi: float, v_hi, peak: float,
                       rot_max: float, rising: bool):
    """The first root of h on [lo, hi], a stretch of one half turn of the
    rotation on which h(lo) < 0: a bracket (lo, h(lo), hi, h(hi)) on
    which h rises through zero, or None.

    ``terms(t)`` gives h and the two parts of its slope: that of the real
    mode, of one sign throughout, and that of the rotation, of one sign
    on the half turn (positive when ``rising``) and largest in magnitude,
    ``rot_max``, at ``peak``.  A stretch on which one part outweighs the
    other is monotone, and the signs at its ends decide.  On any other
    stretch a root is excluded by the Lipschitz test
    |h(lo)| + |h(hi)| > L (hi - lo), and the stretch is halved when that
    fails; one that can be halved no further is a touch of zero.
    Stretches are searched from the left, so the first bracket holds the
    first root.
    """
    ends = [(hi, v_hi)]
    while ends:
        hi, v_hi = ends[-1]
        h_lo, e_lo, r_lo = v_lo
        h_hi, e_hi, r_hi = v_hi
        exp_min, exp_max = abs(e_lo), abs(e_hi)
        if exp_min > exp_max:
            exp_min, exp_max = exp_max, exp_min
        rot_min, rot_top = abs(r_lo), abs(r_hi)
        if rot_min > rot_top:
            rot_min, rot_top = rot_top, rot_min
        if lo <= peak <= hi:
            rot_top = rot_max
        if e_lo == 0.0 or (e_lo > 0.0) == rising or rot_min > exp_max:
            up = rising
        elif exp_min > rot_top:
            up = e_lo > 0.0
        else:
            up = None
            if abs(h_lo) + abs(h_hi) <= (exp_max + rot_top) * (hi - lo):
                mid = 0.5 * (lo + hi)
                if lo < mid < hi:
                    ends.append((mid, terms(mid)))
                    continue
                # at the resolution of t, |h| <= L (hi - lo) at both ends:
                # h touches zero at hi to within its rounding
                return lo, h_lo, hi, 0.0
        if up and h_hi >= 0.0:
            return lo, h_lo, hi, h_hi
        lo, v_lo = ends.pop()
    return None


def _plane_bracket(split: _SpiralSplit, y1_0: float, lam: float, beta: float,
                   terms):
    """A bracket (lo, h(lo), hi, h(hi)) of the first positive root of
    h(t) = e^{-alpha t} y1(t) = u1 e^{lam t} + R cos(beta t - phi),
    lam = mu - alpha, or None when the flow never reaches y1 = 0.

    The search runs over the half turns between zeros of
    sin(beta t - phi) (see :func:`_half_turn_bracket`).  It ends at a
    root, or at the horizon past which |u1| e^{lam t} > R with u1 < 0, so
    that h stays negative: with lam > 0 that is t = log(R / |u1|) / lam,
    with lam = 0 it is every t once |u1| > R.  With lam = 0 and
    |u1| <= R, h reaches its peak u1 + R >= 0 where the first rising half
    turn ends.  With lam < 0, or u1 > 0, a root comes on the first rising
    half turn on which the rotation outweighs the real mode; with lam < 0
    and -u1 > R, h < 0 until t = log(-u1 / R) / -lam, where the search
    starts.  A start on the plane (the trivial root h(0) = 0) must
    enter y1 < 0, with h'(0) < 0, or h'(0) = 0 and h''(0) < 0.  Taylor's
    bound with L2 >= |h''|, or L3 >= |h'''|, over a window of at most a
    half turn and 1 / lam keeps h < 0 on (0, -h'(0) / L2], or
    (0, -h''(0) / L3], within the window; the search starts there.
    """
    u1, w1, g1 = split.u[0], split.w[0], split.g[0]
    amp = math.hypot(w1, g1)
    if amp <= 16.0 * _EPS * (abs(u1) + abs(y1_0)):
        # a rotating part at the rounding level of the split: the start
        # lies on the real eigendirection, and h keeps the sign of u1 <= 0
        return None
    if u1 < 0.0 and lam >= 0.0 and (-u1 > amp or (lam > 0.0
                                                  and -u1 == amp)):
        return None
    horizon = math.inf
    if lam > 0.0 and u1 < 0.0:
        horizon = math.log(amp / -u1) / lam
    start = 0.0
    if y1_0 == 0.0:
        window = math.pi / beta
        if lam > 0.0:
            window = min(window, 1.0 / lam)
        grow = abs(u1) * math.exp(max(lam, 0.0) * window)
        h1 = split.dy[0]
        if h1 < 0.0:
            start = -h1 / (lam * lam * grow + beta * beta * amp)
        elif h1 == 0.0 and split.ddy[0] < 0.0:
            start = -split.ddy[0] / (abs(lam) ** 3 * grow + beta ** 3 * amp)
        else:
            raise ValueError("the regular flow from y0 leaves y1 <= 0 at once")
        start = min(start, window)
    elif lam < 0.0 and -u1 > amp:
        start = math.log(-u1 / amp) / -lam
    phi = math.atan2(g1, w1)
    if lam == 0.0:  # h peaks at u1 + R >= 0 where each rising half turn ends
        horizon = (phi + 2.0 * math.pi
                   * math.ceil((beta * start - phi) / (2.0 * math.pi))) / beta
    k = math.floor((beta * start - phi) / math.pi)
    lo, v_lo = start, terms(start)
    while lo < horizon:
        hi = min((phi + (k + 1) * math.pi) / beta, horizon)
        if hi > lo:
            v_hi = terms(hi)
            found = _half_turn_bracket(terms, lo, v_lo, hi, v_hi,
                                       (phi + (k + 0.5) * math.pi) / beta,
                                       beta * amp, k % 2 == 1)
            if found is not None:
                return found
            lo, v_lo = hi, v_hi
        k += 1
    if lam == 0.0:  # the first peak, u1 + R >= 0, is zero to rounding
        return lo, v_lo[0], lo, 0.0
    return None


def _termination(kind: str, detail: str) -> Termination:
    status = (LambdaStatus.UNDEFINED_CONVERGED if kind == "converged"
              else LambdaStatus.UNDEFINED_DIVERGED)
    return Termination(status, detail)


def _plane_hit_spiral(M, mu: float, alpha: float, beta: float, y0,
                      ) -> SegmentEvent | Termination:
    """First time the regular flow from y0 (with y1 <= 0) reaches y1 = 0,
    or the reason it never does.  A leg that never returns has mu >=
    alpha, so it converges when mu < 0 and diverges otherwise.  The hit is
    refined on h to ``_SECANT_TOL`` times the rotation's amplitude R, and
    is e^{alpha t} v with v = e^{-alpha t} y(t), the flow of M - alpha."""
    split = _spiral_split(M, mu, alpha, beta, y0)
    u1, w1, g1 = split.u[0], split.w[0], split.g[0]
    lam = mu - alpha

    def terms(t: float) -> tuple[float, float, float]:
        """h(t) and the slopes of its real and rotating parts."""
        e = u1 * math.exp(lam * t)
        co = math.cos(beta * t)
        si = math.sin(beta * t)
        return e + w1 * co + g1 * si, lam * e, beta * (g1 * co - w1 * si)

    bracket = _plane_bracket(split, float(y0[0]), lam, beta, terms)
    if bracket is None:
        return _termination("converged" if mu < 0.0 else "diverged",
                            "never returns: the real mode outweighs "
                            "the rotation (regular segment)")
    t_hit = _refine_root(lambda t: terms(t)[0], *bracket,
                         _SECANT_TOL * math.hypot(w1, g1), _MAX_SECANT_ITERS)
    return SegmentEvent(t_hit, _spiral_at(split, lam, 0.0, beta, t_hit),
                        alpha * t_hit, "regular-to-slide")


def _line_hit_block(c: float, d: float, y2_0: float, y3_0: float,
                    log_scale: float) -> SegmentEvent | Termination:
    """First time the sliding flow from e^{log_scale} (0, y2_0, y3_0),
    y2_0 > 0, reaches y2 = 0: the exact first root of the closed form.

    There y3 = y2' < 0, and log |y3| is a sum of logs.  With p = c/2:

    - a complex pair p +/- iq returns at t = atan2(q y2_0, -n) / q,
      n = y3_0 + p y2_0, with |y3| = e^{pt} hypot(n, q y2_0), the square
      root of y3_0^2 + c y2_0 y3_0 + d y2_0^2;
    - a real pair r1 > r2 (or the double root r1 = r2 = p) returns when
      w = -(y3_0 + r1 y2_0) > 0, at t = log1p((r1 - r2) y2_0 / w) /
      (r1 - r2) (t = y2_0 / w for the double root), with
      |y3| = e^{r1 t} w; otherwise the slide decays, as both roots are
      negative.

    Where w > 0 both return times tend to y2_0 / w as q or r1 - r2 tends
    to 0, so the sign of the discriminant alone picks the form, and the
    double root is taken only where it is exactly 0.
    """
    disc = _discriminant(c, d)
    p = c / 2.0
    if disc < 0.0:
        q = math.sqrt(-disc) / 2.0
        n = y3_0 + p * y2_0
        t_hit = math.atan2(q * y2_0, -n) / q
        log_y3 = p * t_hit + math.log(math.hypot(n, q * y2_0))
    else:
        # a real pair has c < 0 (HybridParams), so r2 = p - gap/2 carries
        # no cancellation, and r1 = d / r2
        gap = math.sqrt(disc)
        r2 = p - gap / 2.0
        r1 = d / r2 if gap else p
        w = -(y3_0 + r1 * y2_0)
        if not w > 0.0:
            # y2 = k1 e^{r1 t} + k2 e^{r2 t} with k1 = -w / gap >= 0
            return _termination("converged", "slide decays without "
                                "returning (sliding segment)")
        t_hit = math.log1p(gap * y2_0 / w) / gap if gap else y2_0 / w
        log_y3 = r1 * t_hit + math.log(w)
    return SegmentEvent(t_hit, (0.0, 0.0, -1.0), log_scale + log_y3,
                        "slide-to-return")


def _line_hit_arrays(c: np.ndarray, d: np.ndarray, y2_0: float, y3_0: float,
                     log_scale: float) -> LambdaArrays:
    """:func:`_line_hit_block` and the verdict on its return, over arrays
    of valid (c, d) sliding from one start e^{log_scale} (0, y2_0, y3_0),
    y2_0 > 0.

    Every block kind is evaluated on every cell and the cell's own kind
    selects the result.  A slide without a return decays.
    """
    with np.errstate(all="ignore"):
        disc = _discriminant(c, d)
        is_complex = disc < 0.0
        is_real = disc > 0.0
        p = c / 2.0
        root = np.sqrt(np.abs(disc))
        # complex pair p +/- iq, q = root / 2
        q = root / 2.0
        n = y3_0 + p * y2_0
        t_c = np.arctan2(q * y2_0, -n) / q
        # real pair r1 > r2 with r1 - r2 = gap, or the double root p
        gap = np.where(is_real, root, 0.0)
        r2 = p - gap / 2.0
        r1 = np.where(is_real, d / r2, p)
        w = -(y3_0 + r1 * y2_0)
        t_r = np.where(is_real, np.log1p(gap * y2_0 / w) / gap, y2_0 / w)
        # one log for every kind
        log_y3 = np.where(is_complex, p * t_c, r1 * t_r) + np.log(
            np.where(is_complex, np.hypot(n, q * y2_0), w))
        log_value = log_scale + log_y3
        code = np.where(is_complex | (w > 0.0),
                        np.where(_marginal(log_value), _MARGINAL, _DEFINED),
                        _CONVERGED)
    return LambdaArrays(code, np.where(code <= _MARGINAL, log_value, np.nan))


# --------------------------------------------------------------------------
# public event / return-map operations
# --------------------------------------------------------------------------

def first_hit_plane(params: HybridParams, y0) -> SegmentEvent | Termination:
    """First positive time at which the regular flow from y0 (in
    y1 <= 0) reaches the switching plane, or the reason it never does.
    Raises ValueError for y1 > 0, and for a start on the plane from
    which the flow does not enter y1 < 0."""
    y0 = tuple(map(float, y0))
    if y0[0] > 0.0:
        raise ValueError("y0 must lie in the half-space y1 <= 0")
    return _plane_hit_spiral(_left_rows(params.a, params.b),
                             *_hybrid_spectrum(params.a, params.b), y0)


def first_hit_line(params: HybridParams, y0) -> SegmentEvent | Termination:
    """First positive time at which the sliding flow from y0 (on the
    plane, with y2 > 0) reaches the return line y1 = y2 = 0."""
    y0 = tuple(float(v) for v in y0)
    if abs(y0[0]) > 1e-9 * math.hypot(*y0):
        raise ValueError("y0 is not on the switching plane")
    if y0[1] <= 0.0:
        raise ValueError("y0 must have y2 > 0")
    size = max(y0[1], abs(y0[2]))  # the slide runs from a start of size 1
    return _line_hit_block(params.c, params.d, y0[1] / size, y0[2] / size,
                           math.log(size))


def _slide_start(plane_result: SegmentEvent | Termination,
                 ) -> SegmentEvent | ReturnOutcome:
    """The regular-segment event the slide starts from, or the outcome
    when the return is decided without a slide: the regular segment
    ended without an event, or its plane hit lies on the return line."""
    ev1 = plane_result
    if isinstance(ev1, Termination):
        return ReturnOutcome(_outcome_of(ev1), None, ev1.detail)
    _, v2, v3 = ev1.v
    if v2 <= 1e-12 * math.hypot(*ev1.v):
        # the plane hit landed on the return line itself, to rounding
        # relative to its size (the map is linear in the start)
        if v3 >= 0.0:
            return ReturnOutcome("converged", None,
                                 "return at or above the origin", (ev1,))
        return ReturnOutcome("returned", ev1.y_hit[2],
                             "plane hit on the return line", (ev1,),
                             ev1.log_scale + math.log(-v3))
    return ev1


def _compose_return(plane_result: SegmentEvent | Termination,
                    c: float, d: float) -> ReturnOutcome:
    """Finish a first-return computation given the regular-segment result
    (which depends only on a, b, and the start point)."""
    ev1 = _slide_start(plane_result)
    if isinstance(ev1, ReturnOutcome):
        return ev1
    ev2 = _line_hit_block(c, d, ev1.v[1], ev1.v[2], ev1.log_scale)
    if isinstance(ev2, Termination):
        return ReturnOutcome(_outcome_of(ev2), None, ev2.detail, (ev1,))
    return ReturnOutcome("returned", ev2.y_hit[2], "", (ev1, ev2),
                         ev2.log_scale)


def first_return(params: HybridParams, z: float) -> ReturnOutcome:
    """Compose the regular and sliding segments from (0, 0, z), z < 0,
    and report the third coordinate of the first return to the line.

    The map is linear in z: it runs from (0, 0, -1), and log(-z) is
    added to the log scale of each hit.  A point beyond the float range
    reads +/-inf or 0; ``log_ratio`` is log Lambda for every z."""
    z = float(z)
    if not -math.inf < z < 0.0:
        raise ValueError("z must be finite and negative")
    out = _compose_return(first_hit_plane(params, (0.0, 0.0, -1.0)),
                          params.c, params.d)
    if z == -1.0:
        return out
    shift = math.log(-z)
    events = tuple(replace(ev, log_scale=ev.log_scale + shift)
                   for ev in out.events)
    zeta = None if out.log_ratio is None else -_exp(out.log_ratio + shift)
    return replace(out, zeta=zeta, events=events)


def _outcome_of(term: Termination) -> str:
    return ("converged" if term.status is LambdaStatus.UNDEFINED_CONVERGED
            else "diverged")


def _result_from_outcome(out: ReturnOutcome) -> LambdaResult:
    if out.status == "returned":
        return LambdaResult.from_log(out.log_ratio, out.detail)
    if out.status == "converged":
        return LambdaResult(LambdaStatus.UNDEFINED_CONVERGED, None, out.detail)
    return LambdaResult(LambdaStatus.UNDEFINED_DIVERGED, None, out.detail)


def return_multiplier(params: HybridParams) -> LambdaResult:
    """The return-map multiplier: minus the image of -1 under the first
    return to the line, as its log, or the reason it is undefined."""
    return _result_from_outcome(first_return(params, -1.0))


def slide_domain(c, d) -> tuple[np.ndarray, np.ndarray]:
    """Two masks over arrays of (c, d): ``valid``, where the pair meets
    the constraints :class:`HybridParams` puts on it (finite, d > 0, and
    d > c^2/4 whenever c > 0), and ``outside``, where it breaks them
    strictly (d <= 0, or c > 0 and d < c^2/4).  Pairs in neither lie on
    the boundary d = c^2/4, c > 0, or are not finite."""
    c = np.asarray(c, dtype=float)
    d = np.asarray(d, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        outside = (d <= 0.0) | ((c > 0.0) & (d < c * c / 4.0))
    return _valid(c, d), outside


def _valid(c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Where float arrays (c, d) meet the constraints of
    :class:`HybridParams`: finite, d > 0, and d > c^2/4 whenever c > 0."""
    with np.errstate(invalid="ignore", over="ignore"):
        return (np.isfinite(c) & np.isfinite(d) & (d > 0.0)
                & ((c <= 0.0) | (d > c * c / 4.0)))


def return_map(a: float, b: float,
               ) -> Callable[[np.ndarray, np.ndarray], LambdaArrays]:
    """The return multiplier over arrays of (c, d), for fixed (a, b).

    The regular segment depends on (a, b) only, so it is computed here,
    once.  The returned function takes float arrays ``c`` and ``d`` (of
    one shape, or broadcastable), raises :class:`ConstraintViolationError`
    through :class:`HybridParams` if any pair is invalid, and returns the
    :class:`LambdaArrays` of that shape.  Statuses agree with
    :func:`return_multiplier`, log values to rounding.
    """
    if not (math.isfinite(b) and b > a * a / 4.0):  # also rejects a NaN
        raise ConstraintViolationError(
            f"need finite b > a^2/4, got a = {a:g}, b = {b:g}")
    head = _slide_start(_plane_hit_spiral(_left_rows(a, b),
                                          *_hybrid_spectrum(a, b),
                                          (0.0, 0.0, -1.0)))
    if isinstance(head, ReturnOutcome):
        # decided before any slide: every (c, d) has the same multiplier
        result = _result_from_outcome(head)
        code = list(LambdaStatus).index(result.status)
        log_value = np.nan if result.log_value is None else result.log_value

    def multiplier(c, d) -> LambdaArrays:
        c = np.asarray(c, dtype=float)
        d = np.asarray(d, dtype=float)
        if c.shape != d.shape:
            c, d = np.broadcast_arrays(c, d)
        bad = ~_valid(c, d)
        if bad.any():
            k = int(np.argmax(bad.ravel()))
            HybridParams(a, b, float(c.ravel()[k]), float(d.ravel()[k]))
        if isinstance(head, ReturnOutcome):
            return LambdaArrays(np.full(c.shape, code),
                                np.full(c.shape, log_value))
        return _line_hit_arrays(c, d, head.v[1], head.v[2], head.log_scale)

    return multiplier

