import csv
import hashlib
import importlib
import json
import math

import numpy as np
import pytest

from filippov.cli import main
from filippov.core import (
    FilippovSystem,
    RegionKind,
    classify_region,
    normal_rates,
)
from filippov.errors import FilippovError, RepellingSlidingEncounteredError
from filippov.hybrid import HybridParams, LambdaStatus, return_multiplier
from filippov.simulate import (
    Orbit,
    Segment,
    SimConfig,
    Terminal,
    export_orbit,
    return_multiplier_empirical,
    simulate,
    simulate_hybrid,
)
from filippov.simulate import _EVENT_REFINE_TOL, _ON_SURFACE_TOL, _locate
from oracles import translated_spec

simulate_module = importlib.import_module("filippov.simulate")


def test_sim_config_takes_a_finite_step_and_time_limit():
    SimConfig(dt=1e-9, t_max=1e-9)
    for dt, t_max in ((0.0, 1.0), (1e-10, 1.0), (math.nan, 1.0),
                      (math.inf, 1.0), (1e-3, 0.0), (1e-3, -1.0),
                      (1e-3, math.nan), (1e-3, math.inf)):
        with pytest.raises(ValueError):
            SimConfig(dt=dt, t_max=t_max)
    for gone in ("event_refine_tol", "norm_floor", "norm_ceiling",
                 "on_surface_tol"):
        with pytest.raises(TypeError):
            SimConfig(**{gone: 1e-3})


def normal_form_system(a, b, c, d):
    tau_l, sigma_l, delta_l = a - 1.0, b - a, -b
    return FilippovSystem.parse(
        (f"{tau_l}*x1 + x2", f"{-sigma_l}*x1 + x3", f"{delta_l}*x1"),
        ("-1", f"{c}", f"{-d}"),
        "x1",
    )


def nonlinear_texts(a, b, c, d):
    """The normal form of (a, b, c, d) plus terms of order two and more
    that use every operator and function of the expression language."""
    tau_l, sigma_l, delta_l = a - 1.0, b - a, -b
    return {
        "fL": [f"{tau_l}*x1 + x2 + 0.2*x1^2 - 0.1*x2*x3",
               f"{-sigma_l}*x1 + x3 + 0.1*sin(x2)*x2 - 0.05*x1*x3",
               f"{delta_l}*x1 + 0.2*x3^2/(1 + x2^2) + 0.03*abs(x1)^1.5"],
        "fR": ["-1 + 0.1*x2", f"{c} + 0.1*(exp(x3) - 1) - 0.05*x1^3",
               f"{-d} + 0.05*sqrt(1 + x1^2)*x2 - 0.02*cos(x1)*x3"],
        "H": "x1 + 0.1*x2^2 - 0.15*x3^2 + 0.05*x2*x3"
             " + 0.01*(1 + x2^2)^-1 - 0.01",
    }


# --------------------------------------------------------------------------
# general Filippov simulation
# --------------------------------------------------------------------------

def test_single_left_segment_converges():
    # stable left field, surface far away: one L segment, converges
    system = FilippovSystem.parse(("-x1", "-x2", "-x3"), ("-1", "0", "0"),
                                  "x1 - 5")
    orbit = simulate(system, (1.0, 1.0, 1.0), SimConfig(dt=2e-3, t_max=40.0))
    assert orbit.terminal is Terminal.CONVERGED
    assert [seg.regime for seg in orbit.segments] == ["L"]


# SHA-256 of the orbits of test_orbits_golden: a change to expression
# evaluation or to the simulator that moves any sample by one bit fails it.
# Pinned with events located by the Illinois method; against bisection to
# the same monitor tolerance, the orbits keep their regimes, segment and
# sample counts and terminals, and move by at most 4.8e-8 in t (a slow
# fold exit) and 4.8e-10 in the state.
GOLDEN_ORBITS_SHA256 = (
    "61c2c9e097ba91dfa2327c5b96603b4ab6c1e12f5a172685425558bbf30f09a6")
GOLDEN_ORBIT_CSV_SHA256 = (
    "c1cd60ea77a1874f875bddc4597876b7b391bdd79695e5ccac716e87e5a60f73")


# the linear parts have return multipliers 0.578 and 1.259: one orbit
# spirals in by sliding, the other out
GOLDEN_ABCD = ((-0.2, 5, -0.2, 3), (0.4, 5, -0.5, 6))


def golden_orbit(abcd) -> Orbit:
    texts = nonlinear_texts(*abcd)
    system = FilippovSystem.parse(texts["fL"], texts["fR"], texts["H"])
    return simulate(system, (-0.02, 0.0, -0.05),
                    SimConfig(dt=1e-2, t_max=10.0))


def test_orbits_golden(tmp_path, capsys):
    digest = hashlib.sha256()
    for abcd in GOLDEN_ABCD:
        orbit = golden_orbit(abcd)
        assert len(orbit.segments) >= 8
        digest.update(f"{orbit.terminal.value}|{orbit.detail}\n".encode())
        for seg in orbit.segments:
            for sample in seg.samples:
                row = ",".join(repr(float(v)) for v in sample)
                digest.update(f"{seg.regime},{row}\n".encode())
    assert digest.hexdigest() == GOLDEN_ORBITS_SHA256

    spec = dict(nonlinear_texts(-0.2, 5, -0.2, 3), x_star=[0, 0, 0])
    (tmp_path / "system.json").write_text(json.dumps(spec))
    out = tmp_path / "orbit.csv"
    code = main(["orbit-system", "--system", str(tmp_path / "system.json"),
                 "--x0=-0.02,0,-0.05", "--t-max", "5", "--dt", "0.01",
                 "--out", str(out)])
    assert code == 0
    assert "terminal: timeout" in capsys.readouterr().out
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        GOLDEN_ORBIT_CSV_SHA256


# (a, b, c, d) = (0.2, 5, 0.2, 1), Lambda = 0.827: from (-0.02, 0, -0.05)
# it converges at t = 202.3, after 97 segments and 20,398 samples
STABLE_SPEC = {"fL": ["-0.8*x1 + x2", "-4.8*x1 + x3", "-5*x1"],
               "fR": ["-1", "0.2", "-1"], "H": "x1"}


def spec_orbit(spec, shift=(0.0, 0.0, 0.0)) -> Orbit:
    moved = translated_spec(spec, shift)
    system = FilippovSystem.parse(moved["fL"], moved["fR"], moved["H"])
    x0 = (-0.02 + shift[0], 0.0 + shift[1], -0.05 + shift[2])
    return simulate(system, x0, SimConfig(dt=1e-2, t_max=400.0),
                    centre=shift)


# A translated copy rounds x_i - shift_i in every evaluation, by up to
# ulp(3) = 4.4e-16 at (1, 2, 3) and ulp(3e6) = 4.7e-10 beyond 1e6.
# Measured on both systems: the samples stay within 1.4e-14 and 8.2e-9
# of the shifted ones, and their times within 4.3e-10 and 8.2e-4 (a
# slide ends where the rate crosses zero slowly, so a rounding of the
# rate moves the exit time far more than the state).  The bounds below
# are 20 to 120 times these.  The second golden system is left out: its
# copy beyond 1e6 misses a fold exit, because the finite-difference step
# of the fold curvature grows with |x|.
@pytest.mark.parametrize("spec", [STABLE_SPEC,
                                  nonlinear_texts(*GOLDEN_ABCD[0])],
                         ids=["normal-form", "nonlinear"])
@pytest.mark.parametrize("shift, state_tol, time_tol", [
    ((1.0, 2.0, 3.0), 1e-12, 1e-8),
    ((1e6, 2e6, 3e6), 1e-6, 1e-1),
])
def test_fates_are_measured_from_the_centre(spec, shift, state_tol,
                                            time_tol):
    want = spec_orbit(spec)
    assert want.terminal is Terminal.CONVERGED
    got = spec_orbit(spec, shift)
    assert got.terminal is want.terminal
    assert [(s.regime, len(s.samples)) for s in got.segments] == \
        [(s.regime, len(s.samples)) for s in want.segments]
    for seg, ref in zip(got.segments, want.segments):
        for (t, *x), (t_ref, *x_ref) in zip(seg.samples, ref.samples):
            assert abs(t - t_ref) <= time_tol
            assert max(abs(v - c - r)
                       for v, c, r in zip(x, shift, x_ref)) <= state_tol


def test_events_take_few_monitor_evaluations(monkeypatch):
    # a guard on event location that does not depend on timing: bisecting
    # the crossing substep took about 19 monitor evaluations per event on
    # these orbits, the Illinois method takes about 2.5
    events, evaluations = [], []

    def counting(*args):
        *head, monitor, tol = args
        events.append(args)
        return _locate(*head, lambda x: evaluations.append(x) or monitor(x),
                       tol)

    monkeypatch.setattr(simulate_module, "_locate", counting)
    for abcd in GOLDEN_ABCD:
        golden_orbit(abcd)
    assert len(events) >= 15
    assert len(evaluations) / len(events) <= 6.0


def test_slide_step_makes_five_generated_calls():
    # first same as last: the rates the fold monitor takes at a slide
    # step's end give the next step's first RK4 stage, so a step calls the
    # generated code five times (three stages of the sliding field, the
    # projection's gradient, the monitor's rates), not six
    def generated_calls(t_max: float) -> tuple[int, int]:
        system = FilippovSystem.parse(("1", "x3", "1 + x2^2"),
                                      ("1", "0", "-1 - x1^2"), "x3")
        calls = []
        for owner, name in ((system, "rates_and_fields"), (system, "sliding"),
                            (system.switch, "compiled_gradient")):
            generated = getattr(owner, name)
            # the cached property's value, replaced by a counting one
            owner.__dict__[name] = \
                lambda *x, generated=generated: calls.append(x) or generated(*x)
        orbit = simulate(system, (1.0, 0.0, 0.0),
                         SimConfig(dt=1e-2, t_max=t_max))
        assert orbit.terminal is Terminal.TIMEOUT
        [segment] = orbit.segments
        assert segment.regime == "S"
        return len(segment.samples), len(calls)

    samples_short, calls_short = generated_calls(0.5)
    samples_long, calls_long = generated_calls(1.0)
    assert samples_long - samples_short == 50
    assert calls_long - calls_short == 5 * 50


def locate_in_time(monitor, h: float, tol: float):
    """_locate on a substep that moves time itself, from 0: returns the
    point's tau, the monitor there and the number of evaluations."""
    calls = []

    def counted(x):
        calls.append(x)
        return monitor(x[0])

    tau, x = _locate(lambda x, tau: (x[0] + tau,), (0.0,), monitor(0.0), h,
                     (h,), monitor(h), counted, tol)
    assert x == (tau,)
    return tau, monitor(tau), len(calls)


@pytest.mark.parametrize("monitor, h", [
    (lambda t: math.exp(t) - 2.0, 1.0),
    (lambda t: math.cos(t) - 0.1, 2.0),
    (lambda t: 0.5 - t ** 3, 1.0),
    (lambda t: 1e-3 * math.atan(20.0 * (t - 0.013)), 0.02),
    (lambda t: -1e4 * (t - 0.9) * (t + 0.5), 1.0),
])
def test_locate_reaches_the_tolerance_in_few_evaluations(monitor, h):
    tau, m, evaluations = locate_in_time(monitor, h, _EVENT_REFINE_TOL)
    assert 0.0 < tau <= h
    assert abs(m) <= _EVENT_REFINE_TOL
    assert evaluations <= 8


@pytest.mark.parametrize("monitor, root", [
    # a flat stretch far above the jump: every interpolated point falls
    # on the bracket's upper end
    (lambda t: 1e300 if t < 0.37 else -1.0, 0.37),
    # a kink: nearly flat up to it, then steep, so that every interpolated
    # point falls on the lower end
    (lambda t: 1e-200 * (0.37 - t) if t < 0.37 else 0.37 - t, 0.37),
    # a kink at the root, and a flat stretch before a steep drop: the
    # interpolated points keep one end, and every third is a midpoint
    (lambda t: 0.37 - t if t < 0.37 else 1e6 * (0.37 - t), 0.37),
    (lambda t: 1.0 if t < 0.6 else 1.0 - 1e8 * (t - 0.6), 0.6 + 1e-8),
])
def test_locate_ends_past_the_sign_change(monitor, root):
    # with no tolerance to stop at, the bracket closes on the sign change
    # through midpoints where interpolation stalls or keeps one end, and
    # the point returned is its upper end (interpolation alone would stay
    # at 1.0 or creep from 0.0)
    tau, m, evaluations = locate_in_time(monitor, 1.0, 0.0)
    assert 0.0 < tau <= 1.0
    assert m <= 0.0
    assert abs(tau - root) <= 1e-9
    assert evaluations <= 80


def test_alternating_regular_and_slide_segments():
    system = normal_form_system(-0.2, 5, -0.2, 3)
    orbit = simulate(system, (0.0, 0.0, -1.0), SimConfig(dt=1e-3, t_max=12.0))
    regimes = [seg.regime for seg in orbit.segments]
    assert len(regimes) >= 4
    assert all(r in ("L", "S") for r in regimes)
    for first, second in zip(regimes, regimes[1:]):
        assert first != second  # strict alternation between the two modes


def test_orbit_invariants():
    system = normal_form_system(-0.2, 5, -0.2, 3)
    cfg = SimConfig(dt=1e-3, t_max=12.0)
    orbit = simulate(system, (0.0, 0.0, -1.0), cfg)
    for seg in orbit.segments:
        times = [s[0] for s in seg.samples]
        assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
        if seg.regime == "S":
            for (_, x1, x2, x3) in seg.samples:
                assert abs(system.switch((x1, x2, x3))) <= _ON_SURFACE_TOL
    for prev, nxt in zip(orbit.segments, orbit.segments[1:]):
        end = np.array(prev.samples[-1][1:])
        start = np.array(nxt.samples[0][1:])
        assert np.max(np.abs(end - start)) <= 1e-9


def test_slide_segments_follow_the_sliding_field():
    from filippov.core import sliding_field
    system = normal_form_system(-0.2, 5, -0.2, 3)
    cfg = SimConfig(dt=1e-3, t_max=12.0)
    orbit = simulate(system, (0.0, 0.0, -1.0), cfg)
    slides = [seg for seg in orbit.segments if seg.regime == "S"]
    assert slides
    checked = 0
    for seg in slides:
        for (_, x1, x2, x3) in seg.samples[1:-1:20]:
            x = np.array([x1, x2, x3])
            grad = np.array([1.0, 0.0, 0.0])  # switch function is x1
            slide = sliding_field(system, x)
            assert abs(grad @ slide) <= 1e-6 * max(1.0, np.linalg.norm(slide))
            checked += 1
    assert checked >= 3


def test_attracting_hits_always_enter_slide():
    # Filippov semantics: a regular segment that lands in the attracting
    # region must continue by sliding
    system = normal_form_system(-0.2, 5, -0.2, 3)
    orbit = simulate(system, (0.0, 0.0, -1.0), SimConfig(dt=1e-3, t_max=12.0))
    for prev, nxt in zip(orbit.segments, orbit.segments[1:]):
        if prev.regime in ("L", "R"):
            junction = prev.samples[-1][1:]
            if classify_region(system, junction) is RegionKind.ATTRACTING_SLIDING:
                assert nxt.regime == "S"


def test_crossing_passes_through():
    system = FilippovSystem.parse(("0", "0", "1"), ("0", "0", "2"), "x3")
    orbit = simulate(system, (0.3, 0.2, -0.5), SimConfig(dt=1e-3, t_max=2.0))
    assert orbit.terminal is Terminal.TIMEOUT
    assert [seg.regime for seg in orbit.segments] == ["L", "R"]
    junction = orbit.segments[0].samples[-1]
    assert abs(junction[3]) <= 1e-8  # crossing located on the surface


def test_repelling_sliding_aborts():
    system = FilippovSystem.parse(("0", "0", "-1"), ("0", "0", "1"), "x3")
    with pytest.raises(RepellingSlidingEncounteredError):
        simulate(system, (1.0, 0.0, 0.0), SimConfig(dt=1e-3, t_max=2.0))


def test_right_side_start_reaches_slide():
    # starting in H > 0, the constant right field carries the orbit onto
    # the surface, where the region is attracting: R then S
    system = normal_form_system(-0.2, 5, -0.2, 3)
    orbit = simulate(system, (0.5, 1.0, 0.2), SimConfig(dt=1e-3, t_max=3.0))
    regimes = [seg.regime for seg in orbit.segments]
    assert regimes[0] == "R"
    assert "S" in regimes
    junction = orbit.segments[0].samples[-1]
    rate_l, rate_r = normal_rates(system, junction[1:])
    assert rate_l > 0 > rate_r  # landed in the attracting region


def test_visible_fold_start_departs_into_left_domain():
    system = normal_form_system(-0.2, 5, -0.2, 3)
    # (0, 0, -1) is a visible fold; the first segment must be regular
    orbit = simulate(system, (0.0, 0.0, -1.0), SimConfig(dt=1e-3, t_max=1.0))
    assert orbit.segments[0].regime == "L"
    # and the orbit immediately enters x1 < 0
    assert orbit.segments[0].samples[5][1] < 0


def test_short_excursion_across_the_surface():
    # seed 1's third benchmark orbit: at t = 26.7188 the left orbit hits a
    # crossing point with a right normal rate of 5.2e-3, and the right flow
    # is back on the surface about 5e-4 later, inside the first step of
    # the right segment; the simulator halves that step until it ends on
    # the right side, and locates the crossing back from there
    system = FilippovSystem.parse(
        ("-0.6*x1 + x2 + 0.21448904151551057*x1^2"
         " + 0.20119683468161836*x2*x3",
         "-4.6000000000000005*x1 + x3 + 0.1870280972132714*x2^2"
         " + -0.18349717040550706*x1*x3",
         "-5.000000000000001*x1 + -0.23830271048295654*x1*x2"
         " + -0.19685828963313262*x3^2"),
        ("-1.0 + 0.2853320009050368*x2", "-0.5 + 0.114191076798496*x3^2",
         "-6.0 + 0.14901926686882488*x1*x2"),
        "x1 + -0.1510824530568166*x2^2 + -0.2668768771913515*x3^2"
        " + -0.18450121002707773*x2*x3")
    x0 = (-0.0005471429358508919, 0.003628270089672265, -0.03990658250173633)
    ends = []
    for dt in (2e-2, 5e-3):
        orbit = simulate(system, x0, SimConfig(dt=dt, t_max=60.0))
        assert orbit.terminal is Terminal.DIVERGED
        regimes = "".join(seg.regime for seg in orbit.segments)
        assert regimes.startswith("LS" * 9 + "LRS")
        first = orbit.segments[regimes.index("R")]
        (t0, *start), *inside, (t1, *end) = first.samples
        assert 26.7187 < t0 < 26.7188 and 0.0 < t1 - t0 < 1e-3
        assert normal_rates(system, start)[1] > 0.0
        assert inside and all(system.switch(x) > _ON_SURFACE_TOL
                              for _, *x in inside)
        assert abs(system.switch(end)) <= _ON_SURFACE_TOL
        ends.append(orbit.segments[-1].samples[-1][0])
    assert 44.3 < min(ends) and max(ends) < 44.4


def test_segment_that_never_enters_its_side_fails():
    # at (0, 0, 1) both fields cross the surface x1 = 0 into x1 > 0, but
    # the right one turns back within 2e-11 time units, before H reaches
    # the surface tolerance: no halving of the step arms the segment
    system = FilippovSystem.parse(("1", "0", "0"), ("2e-9 - 100*x2", "1", "0"),
                                  "x1")
    with pytest.raises(FilippovError,
                       match="R-segment left its own side at t = 0 "):
        simulate(system, (0.0, 0.0, 1.0), SimConfig(dt=1e-3, t_max=1.0))


def test_step_halving_consistency():
    system = FilippovSystem.parse(("-x1", "-x2", "-x3"), ("-1", "0", "0"),
                                  "x1 - 5")
    x0 = (0.8, -0.6, 1.1)
    ends = []
    for dt in (2e-3, 1e-3):
        orbit = simulate(system, x0, SimConfig(dt=dt, t_max=30.0))
        assert orbit.terminal is Terminal.CONVERGED
        ends.append(np.array(orbit.segments[-1].samples[-1][1:]))
    assert np.max(np.abs(ends[0] - ends[1])) <= 1e-5 * max(
        1.0, float(np.linalg.norm(ends[1])))


# --------------------------------------------------------------------------
# empirical return multiplier
# --------------------------------------------------------------------------

def test_empirical_matches_closed_form():
    cfg = SimConfig(dt=1e-3, t_max=500.0)
    for tup in [(0.2, 5, 0.2, 1), (-0.2, 0.5, -0.5, 8), (-0.2, 5, -0.2, 3)]:
        params = HybridParams(*tup)
        closed = return_multiplier(params)
        empirical = return_multiplier_empirical(params, cfg)
        assert empirical.status is LambdaStatus.DEFINED
        assert abs(closed.value - empirical.value) \
            <= 1e-6 * max(1.0, closed.value)


def test_empirical_homogeneity():
    from filippov.simulate import _run_hybrid
    params = HybridParams(-0.2, 5, -0.2, 3)
    cfg = SimConfig(dt=1e-3, t_max=500.0)
    _, returns_one = _run_hybrid(params, -1.0, cfg, True, False)
    _, returns_two = _run_hybrid(params, -2.0, cfg, True, False)
    assert abs(returns_two[0] / returns_one[0] - 2.0) <= 1e-6


@pytest.mark.parametrize("abcd, status, detail, last_regime", [
    ((1.2, 0.37, -1, 1), LambdaStatus.UNDEFINED_DIVERGED,
     "regular segment", "L"),
    ((0.2, 5, 1, 0.25 + 1e-11), LambdaStatus.UNDEFINED_DIVERGED,
     "sliding segment", "S"),
    ((0.2, 0.5, -3, 0.3), LambdaStatus.UNDEFINED_CONVERGED,
     "norm below floor", None),
    ((-1.2, 0.5, -2.115, 1.125), LambdaStatus.UNDEFINED_CONVERGED,
     "norm below floor", None),
])
def test_empirical_terminal_paths(abcd, status, detail, last_regime):
    # orbits that leave the norm window before returning: the multiplier
    # is undefined, and a divergence names the leg it happened in
    params = HybridParams(*abcd)
    cfg = SimConfig(dt=1e-2, t_max=200.0)
    result = return_multiplier_empirical(params, cfg)
    assert result.status is status
    assert result.value is None
    assert result.detail == detail
    orbit = simulate_hybrid(params, -1.0, cfg)
    want = Terminal.DIVERGED if last_regime else Terminal.CONVERGED
    assert orbit.terminal is want
    if last_regime:
        assert orbit.detail == detail
        assert orbit.segments[-1].regime == last_regime


def test_empirical_needs_a_return_before_t_max():
    with pytest.raises(FilippovError, match="raise t_max"):
        return_multiplier_empirical(HybridParams(0.2, 5, 0.2, 1),
                                    SimConfig(dt=1e-2, t_max=1.0))


def test_hybrid_event_in_final_partial_step():
    # t_max = 3.25 leaves a last step of 0.25 < dt, and the regular leg,
    # in y1 < 0 from its first step on, crosses y1 = 0 inside it.  A full
    # step of dt from t = 3 shows no sign change: this coarse RK4 orbit's
    # next one is at t = 6.32.
    cfg = SimConfig(dt=1.0, t_max=3.25)
    orbit = simulate_hybrid(HybridParams(-0.6, 5, -0.2, 3), -1.0, cfg)
    regular = orbit.segments[0]
    assert regular.regime == "L" and regular.samples[-2][0] == 3.0
    assert all(sample[1] < 0.0 for sample in regular.samples[1:-1])
    t_hit, y1 = regular.samples[-1][:2]
    assert 3.0 < t_hit <= cfg.t_max and y1 == 0.0
    assert all(sample[0] <= cfg.t_max
               for seg in orbit.segments for sample in seg.samples)
    assert orbit.terminal is Terminal.TIMEOUT


def test_hybrid_regular_leg_on_the_wrong_side_fails():
    # at dt = 1.5 the first RK4 step of this regular leg lands at
    # y1 = 0.343, on the sliding side, before the leg has entered y1 < 0:
    # an error, as in the general engine, not a silent return
    cfg = SimConfig(dt=1.5, t_max=3.25)
    params = HybridParams(-0.2, 5, -0.2, 3)
    with pytest.raises(FilippovError, match="left its own side at t = 0 "):
        simulate_hybrid(params, -1.0, cfg)
    with pytest.raises(FilippovError, match="left its own side"):
        return_multiplier_empirical(params, SimConfig(dt=1.5, t_max=50.0))


def test_filippov_realization_reproduces_return_iterates():
    # the normal-form realization shares the hybrid system's regular
    # flow and sliding paths (sliding time is reparametrized), so its
    # fold-exit heights must be the return-map iterates
    from filippov.hybrid import first_return
    system = normal_form_system(-0.2, 5, -0.2, 3)
    orbit = simulate(system, (0.0, 0.0, -1.0),
                     SimConfig(dt=5e-4, t_max=20.0))
    returns = [prev.samples[-1][3]
               for prev, nxt in zip(orbit.segments, orbit.segments[1:])
               if prev.regime == "S" and nxt.regime == "L"]
    assert len(returns) >= 3
    zeta = first_return(HybridParams(-0.2, 5, -0.2, 3), -1.0).zeta
    for k, got in enumerate(returns[:3]):
        want = zeta * (-zeta) ** k
        assert abs(got - want) <= 1e-8 * abs(want)


def test_hybrid_orbit_recording():
    params = HybridParams(-0.2, 5, -0.2, 3)
    orbit = simulate_hybrid(params, -1.0, SimConfig(dt=1e-3, t_max=30.0))
    regimes = [seg.regime for seg in orbit.segments]
    assert regimes[:4] == ["L", "S", "L", "S"]
    for seg in orbit.segments:
        if seg.regime == "S":
            assert all(abs(s[1]) < 1e-9 for s in seg.samples)


# --------------------------------------------------------------------------
# orbit export
# --------------------------------------------------------------------------

def test_export_empty_orbit(tmp_path):
    path = tmp_path / "orbit.csv"
    export_orbit(Orbit([], Terminal.TIMEOUT), path)
    assert path.read_text() == "t,x1,x2,x3,regime\n"


def test_export_two_segments_and_roundtrip(tmp_path):
    orbit = Orbit(
        [Segment("L", [(0.0, -1.0, 0.0, 0.0), (1.0, -0.5, 0.1, 0.0)]),
         Segment("S", [(1.0, -0.5, 0.1, 0.0), (2.0, -0.2, 0.2, 0.0)])],
        Terminal.TIMEOUT,
    )
    path = tmp_path / "orbit.csv"
    export_orbit(orbit, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x1", "x2", "x3", "regime"]
    body = rows[1:]
    assert len(body) == 4
    times = [float(r[0]) for r in body]
    assert times == sorted(times)
    regimes = [r[4] for r in body]
    assert regimes == ["L", "L", "S", "S"]
    # junction continuity: last L row equals first S row
    assert body[1][:4] == body[2][:4]
