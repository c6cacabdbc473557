"""Event-driven simulation with standard Filippov semantics.

This module is the package's independent cross-check: it never uses the
closed-form flows.  General nonlinear systems are integrated with
classic fixed-step 4th-order steps inside each regime (left field, right
field, or sliding).  Sliding motion integrates the sliding vector field
with a projection back onto the surface after every step.  Each step is
one call of a function generated for the system: a regular step takes
the four stages and H at its end (:attr:`FilippovSystem.left_step`,
:attr:`~FilippovSystem.right_step`), a sliding step the projected step
with the normal rates and the sliding field at its end
(:attr:`~FilippovSystem.slide_step`), whose field is the next step's
first stage.  The switching function's gradient (normal rates, sliding
field, projection) is exact, not a finite difference.

The piecewise-linear hybrid system gets its own small fixed-step engine
(same semantics, float-tuple arithmetic), which provides the empirical
return-multiplier oracle and the orbit exporter.  It walks the regular
and the sliding leg with one loop.

Every event (surface hit, fold exit, return) of both engines is located
on the substep that crossed by one refiner, :func:`_locate`, which uses
the Illinois method (modified regula falsi).  The closed forms in
:mod:`filippov.hybrid` refine their roots separately, by secant steps,
so that this cross-check shares no numerical code with what it checks.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional

from .core import (
    FilippovSystem,
    RegionKind,
    classify_region,
    fold_curvature,
    normal_rates,
    sliding_field,  # not called here; perfbench/spans.py wraps this binding
)
from .errors import (
    DegenerateSlidingError,
    FilippovError,
    NonFiniteStateError,
    RepellingSlidingEncounteredError,
)
from .expr import gradient_fd  # not called; perfbench/spans.py wraps it here
from .hybrid import HybridParams, LambdaResult, LambdaStatus

__all__ = [
    "SimConfig", "Terminal", "Segment", "Orbit",
    "simulate", "simulate_hybrid", "return_multiplier_empirical",
    "export_orbit",
]


# Events are refined until |monitor| <= _EVENT_REFINE_TOL.  A state
# whose distance from the centre falls below _NORM_FLOOR has converged,
# one above _NORM_CEILING has diverged.  |H| <= _ON_SURFACE_TOL is on
# the surface.
_EVENT_REFINE_TOL = 1e-10
_NORM_FLOOR = 1e-6
_NORM_CEILING = 1e6
_ON_SURFACE_TOL = 1e-8


@dataclass(frozen=True)
class SimConfig:
    """Fixed-step simulation settings: the step ``dt`` (finite, above the
    event tolerance 1e-10) and the time limit ``t_max`` (finite,
    positive)."""

    dt: float = 1e-3
    t_max: float = 100.0

    def __post_init__(self):
        if not (_EVENT_REFINE_TOL < self.dt < math.inf
                and 0.0 < self.t_max < math.inf):
            raise ValueError(f"need a finite dt > {_EVENT_REFINE_TOL:g} "
                             "and a finite t_max > 0")


class Terminal(Enum):
    CONVERGED = "converged"
    DIVERGED = "diverged"
    TIMEOUT = "timeout"


@dataclass
class Segment:
    regime: str  # "L" | "R" | "S"
    samples: list[tuple[float, float, float, float]] = field(default_factory=list)


@dataclass
class Orbit:
    segments: list[Segment]
    terminal: Terminal
    detail: str = ""


# --------------------------------------------------------------------------
# event location
# --------------------------------------------------------------------------

def _locate(step, x_from, m_from: float, h: float, x_hi, m_hi: float,
            monitor, tol: float):
    """Find the time in (0, h] at which ``monitor(step(x_from, tau))``
    changes sign, given the substep of length h that the caller has just
    taken: the monitor reads ``m_from`` at x_from, and ``m_hi`` at the
    substep's end ``x_hi``, past the sign change.

    Each point interpolates the bracket's ends linearly, and the value at
    an end kept twice in a row is halved (the Illinois method: Dowell &
    Jarratt, BIT 11, 1971).  The midpoint replaces a point that falls
    outside the bracket or on an end, and the one after three that kept
    the same end.  Returns (tau, state) as soon as |monitor| <= tol, else
    the upper end of the bracket once it can no longer shrink (at most 80
    points)."""
    lo, m_lo, hi = 0.0, m_from, h
    kept = 0  # n > 0: the upper end kept by the last n points; n < 0: lower
    for _ in range(80):
        tau = hi - m_hi * (hi - lo) / (m_hi - m_lo)
        if abs(kept) > 2 or not lo < tau < hi:
            tau = 0.5 * (lo + hi)
            if not lo < tau < hi:
                break
        x_tau = step(x_from, tau)
        m_tau = monitor(x_tau)
        if abs(m_tau) <= tol:
            return tau, x_tau
        if (m_tau > 0.0) == (m_from > 0.0):
            lo, m_lo = tau, m_tau
            kept = max(kept, 0) + 1
            m_hi *= 0.5 if kept > 1 else 1.0
        else:
            hi, x_hi, m_hi = tau, x_tau, m_tau
            kept = min(kept, 0) - 1
            m_lo *= 0.5 if kept < -1 else 1.0
    return hi, x_hi


def _rk4_tuple(f, y, h: float):
    """One classic 4th-order step of dy/dt = f(y1, y2, y3) on a 3-tuple
    of floats."""
    y1, y2, y3 = y
    # 0.5 * h * k is (0.5 * h) * k, and h / 6.0 * k is (h / 6.0) * k
    half, sixth = 0.5 * h, h / 6.0
    k11, k12, k13 = f(y1, y2, y3)
    k21, k22, k23 = f(y1 + half * k11, y2 + half * k12, y3 + half * k13)
    k31, k32, k33 = f(y1 + half * k21, y2 + half * k22, y3 + half * k23)
    k41, k42, k43 = f(y1 + h * k31, y2 + h * k32, y3 + h * k33)
    return (y1 + sixth * (k11 + 2.0 * (k21 + k31) + k41),
            y2 + sixth * (k12 + 2.0 * (k22 + k32) + k42),
            y3 + sixth * (k13 + 2.0 * (k23 + k33) + k43))


# --------------------------------------------------------------------------
# general Filippov simulation
# --------------------------------------------------------------------------

class _Sim:
    """State machine for one simulation run.  The state ``x`` is a
    3-tuple of floats."""

    def __init__(self, system: FilippovSystem, x0, cfg: SimConfig,
                 centre):
        self.system = system
        self.cfg = cfg
        x1, x2, x3 = x0  # any other length raises ValueError
        self.x = (float(x1), float(x2), float(x3))
        self.centre = tuple(map(float, centre))
        if not all(map(math.isfinite, self.x + self.centre)):
            raise NonFiniteStateError("initial state or centre is not finite")
        self.t = 0.0
        self.segments: list[Segment] = []
        self.h = system.switch.compiled
        self.terminal: Optional[Terminal] = None

    # -- bookkeeping ----------------------------------------------------

    def begin_segment(self, regime: str) -> Segment:
        seg = Segment(regime)
        seg.samples.append((self.t, *self.x))
        self.segments.append(seg)
        return seg

    def check_terminal(self) -> bool:
        norm = math.dist(self.x, self.centre)
        if not math.isfinite(norm):
            raise NonFiniteStateError(f"state not finite at t = {self.t:g}")
        if norm < _NORM_FLOOR:
            self.terminal = Terminal.CONVERGED
            return True
        if norm > _NORM_CEILING:
            self.terminal = Terminal.DIVERGED
            return True
        if self.t >= self.cfg.t_max:
            self.terminal = Terminal.TIMEOUT
            return True
        return False

    # -- regime decisions ------------------------------------------------

    def regime_on_surface(self, x) -> str:
        region = classify_region(self.system, x)
        if region is RegionKind.ATTRACTING_SLIDING:
            return "S"
        if region is RegionKind.REPELLING_SLIDING:
            raise RepellingSlidingEncounteredError(
                f"repelling sliding region reached at t = {self.t:g}")
        if region is RegionKind.CROSSING:
            return "L" if normal_rates(self.system, x)[0] < 0.0 else "R"
        # tangency: decide by the fold type when the right field points
        # toward the surface (the setting with unique forward evolution)
        if normal_rates(self.system, x)[1] >= 0.0:
            raise FilippovError(
                f"tangency with outward right field at t = {self.t:g}; "
                "forward evolution not classified")
        curv = fold_curvature(self.system, x)
        if curv < 0.0:
            return "L"  # visible fold: the left orbit departs the surface
        if curv > 0.0:
            return "S"  # invisible fold: sliding carries on inward
        raise FilippovError(
            f"degenerate fold at t = {self.t:g}; forward evolution "
            "not classified")

    # -- regular-regime integration ----------------------------------------
    # A step returns the new state with its monitor, ``state[3]``.  The
    # loops keep t and x in locals, and set self.t and self.x for
    # check_terminal, an event and the segment's end.

    def run_regular(self, regime: str) -> Optional[str]:
        """Integrate the left or right field until a surface hit or a
        terminal condition; returns the next regime or None."""
        step = (self.system.left_step if regime == "L"
                else self.system.right_step)
        interior = -1.0 if regime == "L" else 1.0
        samples = self.begin_segment(regime).samples
        centre, dt_max, t_max = self.centre, self.cfg.dt, self.cfg.t_max
        t, (x1, x2, x3) = self.t, self.x
        h_now = self.h(x1, x2, x3)
        armed = abs(h_now) > _ON_SURFACE_TOL
        while True:
            # every test of check_terminal passes where this one does
            if not (_NORM_FLOOR <= math.dist((x1, x2, x3), centre)
                    <= _NORM_CEILING and t < t_max):
                self.t, self.x = t, (x1, x2, x3)
                if self.check_terminal():
                    return None
            dt = min(dt_max, t_max - t)
            new = step(x1, x2, x3, dt)
            h_new = new[3]
            if not armed:
                if h_new * interior < -10.0 * _ON_SURFACE_TOL:
                    # a short excursion into its own side that ended
                    # within the step: halve the step until it ends inside,
                    # and the next step locates the crossing back
                    while h_new * interior <= _ON_SURFACE_TOL:
                        dt *= 0.5
                        if dt <= _EVENT_REFINE_TOL:
                            raise FilippovError(
                                f"{regime}-segment left its own side at "
                                f"t = {t:g} before re-entering it")
                        new = step(x1, x2, x3, dt)
                        h_new = new[3]
                armed = h_new * interior > _ON_SURFACE_TOL
            elif h_new * interior <= 0.0:
                tau, new = _locate(lambda x, tau: step(*x, tau), (x1, x2, x3),
                                   h_now, dt, new, h_new,
                                   lambda state: state[3], _EVENT_REFINE_TOL)
                self.t, self.x = t + tau, new[:3]
                samples.append((self.t, *self.x))
                return self.regime_on_surface(self.x)
            t += dt
            x1, x2, x3, h_now = new
            samples.append((t, x1, x2, x3))

    # -- sliding-regime integration -----------------------------------------

    def run_slide(self) -> Optional[str]:
        samples = self.begin_segment("S").samples
        centre, dt_max, t_max = self.centre, self.cfg.dt, self.cfg.t_max
        slide = self.system.slide_step
        t = self.t
        # x projected onto the surface, the rates there and the sliding
        # field, which is the first stage of the next step (first same as
        # last); k1 is None where the field is degenerate
        x1, x2, x3, rate, rate_right, k1, k2, k3 = slide(*self.x)
        armed = rate > _EVENT_REFINE_TOL
        wobbles = 0
        while True:
            if not (_NORM_FLOOR <= math.dist((x1, x2, x3), centre)
                    <= _NORM_CEILING and t < t_max):
                self.t, self.x = t, (x1, x2, x3)
                if self.check_terminal():
                    return None
            dt = min(dt_max, t_max - t)
            if k1 is None:
                raise DegenerateSlidingError(rate, rate_right)
            new = slide(x1, x2, x3, dt, k1, k2, k3)
            rate_new = new[3]
            if new[4] >= 0.0:
                raise RepellingSlidingEncounteredError(
                    f"right field stopped pointing at the surface during "
                    f"sliding at t = {t:g}")
            if not armed:
                if rate_new > _EVENT_REFINE_TOL:
                    armed = True
            elif rate_new <= 0.0:
                tau, x_ev = _locate(
                    lambda x, tau: slide(*x, tau, k1, k2, k3), (x1, x2, x3),
                    rate, dt, new, rate_new, lambda state: state[3],
                    _EVENT_REFINE_TOL)
                x_ev = x_ev[:3]
                curv = fold_curvature(self.system, x_ev)
                if curv < 0.0:
                    self.t, self.x = t + tau, x_ev
                    samples.append((self.t, *x_ev))
                    return "L"  # visible fold: exit into the left domain
                # grazed the invisible side of the tangency curve; keep
                # sliding and re-arm once the rate is clearly positive again
                armed = False
                wobbles += 1
                if wobbles > 5:
                    raise FilippovError(
                        "sliding keeps grazing the tangency curve on its "
                        "invisible side; aborting")
            t += dt
            x1, x2, x3, rate, rate_right, k1, k2, k3 = new
            samples.append((t, x1, x2, x3))

    # -- main loop -------------------------------------------------

    def run(self) -> Orbit:
        h0 = self.h(*self.x)
        if h0 < -_ON_SURFACE_TOL:
            regime = "L"
        elif h0 > _ON_SURFACE_TOL:
            regime = "R"
        else:
            if self.check_terminal():
                return Orbit([Segment("L", [(0.0, *self.x)])], self.terminal)
            regime = self.regime_on_surface(self.x)
        while regime is not None:
            if regime == "S":
                regime = self.run_slide()
            else:
                regime = self.run_regular(regime)
        assert self.terminal is not None
        return Orbit(self.segments, self.terminal)


def simulate(system: FilippovSystem, x0, cfg: SimConfig,
             centre=(0.0, 0.0, 0.0)) -> Orbit:
    """Run the event-driven Filippov integration from x0.

    Orbits follow the left field in H < 0 and the right field in H > 0;
    on reaching the surface they slide (attracting region), pass through
    (crossing region), or leave at visible folds, per the standard
    convention.  Repelling sliding aborts with an error since forward
    evolution is not unique there.

    The orbit has converged once its distance from ``centre`` (the
    equilibrium of interest) falls below 1e-6, and diverged once it
    exceeds 1e6.
    """
    return _Sim(system, x0, cfg, centre).run()


# --------------------------------------------------------------------------
# hybrid-system engine (independent of the closed forms)
# --------------------------------------------------------------------------

def _run_hybrid(params: HybridParams, z0: float, cfg: SimConfig,
                stop_at_return: bool):
    """Fixed-step RK4 on the hybrid rules.  Returns (orbit, returns)
    where ``returns`` lists the third coordinates of successive hits of
    the return line; with ``stop_at_return`` the run ends at the first
    return, the orbit's terminal is None, and no samples are recorded."""
    a, b, c, d = params.a, params.b, params.c, params.d
    record = not stop_at_return

    def f_left(y1: float, y2: float, y3: float):
        return ((a - 1.0) * y1 + y2, (a - b) * y1 + y3, -b * y1)

    def f_slide(y1: float, y2: float, y3: float):
        return (0.0, c * y2 + y3, -d * y2)

    # regime -> (field, monitored coordinate, its sign inside the leg,
    # divergence detail): the regular leg runs until y1 returns to 0 from
    # below, the slide (y1 = 0) until y2 reaches 0
    legs = {"L": (f_left, 0, -1.0, "regular segment"),
            "S": (f_slide, 1, 1.0, "sliding segment")}
    dt = cfg.dt
    floor2 = _NORM_FLOOR * _NORM_FLOOR
    ceil2 = _NORM_CEILING * _NORM_CEILING
    t = 0.0
    y = (0.0, 0.0, float(z0))
    segments: list[Segment] = []
    returns: list[float] = []
    terminal = None
    detail = ""
    regime = "L"
    while True:
        f, idx, interior, where = legs[regime]
        seg = Segment(regime)
        if record:
            seg.samples.append((t, *y))
            segments.append(seg)
        # the slide is armed from its start; the regular leg, which
        # starts on y1 = 0, once it has entered y1 < 0
        armed = regime == "S"
        while True:
            y1, y2, y3 = y
            n2 = y1 * y1 + y2 * y2 + y3 * y3
            if n2 < floor2:
                terminal = Terminal.CONVERGED
                break
            if n2 > ceil2:
                terminal = Terminal.DIVERGED
                detail = where
                break
            if t >= cfg.t_max:
                terminal = Terminal.TIMEOUT
                break
            h = min(dt, cfg.t_max - t)
            y_new = _rk4_tuple(f, y, h)
            m_new = interior * y_new[idx]
            if not armed:
                # as in _Sim.run_regular: a leg that crosses to the other
                # side before it has entered its own is not a return
                if m_new > 0.0:
                    armed = True
                elif m_new < -10.0 * _ON_SURFACE_TOL:
                    raise FilippovError(
                        f"{regime}-segment left its own side at t = {t:g} "
                        "before re-entering it")
            elif m_new <= 0.0:
                tau, y_ev = _locate(lambda s, tau: _rk4_tuple(f, s, tau), y,
                                    y[idx], h, y_new, y_new[idx],
                                    lambda s: s[idx], _EVENT_REFINE_TOL)
                t += tau
                y = y_ev[:idx] + (0.0,) + y_ev[idx + 1:]
                if record:
                    seg.samples.append((t, *y))
                break
            t += h
            y = y_new
            if not (math.isfinite(y_new[0]) and math.isfinite(y_new[1])
                    and math.isfinite(y_new[2])):
                raise NonFiniteStateError("hybrid state not finite")
            if record:
                seg.samples.append((t, *y))
        if terminal is not None:
            break
        if regime == "L":
            regime = "S"
            continue
        returns.append(y[2])
        if stop_at_return:
            break
        if y[2] >= 0.0:
            terminal = Terminal.CONVERGED
            detail = "return at or above the origin"
            break
        regime = "L"  # the next regular leg starts from (0, 0, y3)

    orbit = Orbit(segments if record else [], terminal, detail)
    return orbit, returns


def simulate_hybrid(params: HybridParams, z0: float,
                    cfg: SimConfig) -> Orbit:
    """Integrate the hybrid system numerically from (0, 0, z0), z0 < 0,
    recording the alternating regular/sliding segments."""
    if not -math.inf < z0 < 0.0:
        raise ValueError("z0 must be finite and negative")
    orbit, _ = _run_hybrid(params, z0, cfg, stop_at_return=False)
    return orbit


def return_multiplier_empirical(params: HybridParams,
                                cfg: SimConfig) -> LambdaResult:
    """Return multiplier measured by direct numerical integration of the
    hybrid rules from (0, 0, -1); the independent oracle for the
    closed-form computation."""
    orbit, returns = _run_hybrid(params, -1.0, cfg, stop_at_return=True)
    if returns:
        zeta = returns[0]
        if zeta >= 0.0:
            return LambdaResult(LambdaStatus.UNDEFINED_CONVERGED, None,
                                "return at or above the origin")
        return LambdaResult.from_log(math.log(-zeta), "empirical")
    if orbit.terminal is Terminal.CONVERGED:
        return LambdaResult(LambdaStatus.UNDEFINED_CONVERGED, None,
                            orbit.detail or "norm below floor")
    if orbit.terminal is Terminal.DIVERGED:
        return LambdaResult(LambdaStatus.UNDEFINED_DIVERGED, None,
                            orbit.detail)  # the leg it diverged in
    raise FilippovError(
        f"empirical return-multiplier run ended with {orbit.terminal.value} "
        "before the first return; raise t_max")


# --------------------------------------------------------------------------
# orbit export
# --------------------------------------------------------------------------

def export_orbit(orbit: Orbit, path) -> None:
    """Write an orbit as CSV with header ``t,x1,x2,x3,regime``."""
    with open(Path(path), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x1", "x2", "x3", "regime"])
        for seg in orbit.segments:
            for (t, x1, x2, x3) in seg.samples:
                writer.writerow([repr(t), repr(x1), repr(x2), repr(x3),
                                 seg.regime])
