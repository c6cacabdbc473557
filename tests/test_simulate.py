import csv
import hashlib
import json
import math

import numpy as np
import pytest

from filippov.cli import main
from filippov.core import (
    FilippovSystem,
    FoldKind,
    RegionKind,
    boundary_data,
    classify_fold,
    classify_region,
    fold_curvature,
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
    trace_tangency_curve,
)
from filippov.simulate import _ON_SURFACE_TOL


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
# Pinned with the exact gradient of H and float-tuple RK4 steps; against
# the central-difference gradient and numpy steps, the orbits keep their
# regimes and sample counts and move by at most 2.4e-14.
GOLDEN_ORBITS_SHA256 = (
    "c2d916fc9e9418c67d30a6dba92133baa711ab2739e8ff90dafd516821efc6f6")
GOLDEN_ORBIT_CSV_SHA256 = (
    "be3434c9df7a60d10f8177108a80da3b835ab77a4d4766752763be07aa2b2917")


def test_orbits_golden(tmp_path, capsys):
    # the linear parts have return multipliers 0.578 and 1.259: one orbit
    # spirals in by sliding, the other out
    digest = hashlib.sha256()
    for abcd in ((-0.2, 5, -0.2, 3), (0.4, 5, -0.5, 6)):
        texts = nonlinear_texts(*abcd)
        system = FilippovSystem.parse(texts["fL"], texts["fR"], texts["H"])
        orbit = simulate(system, (-0.02, 0.0, -0.05),
                         SimConfig(dt=1e-2, t_max=10.0))
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
# tangency-curve tracing
# --------------------------------------------------------------------------

def test_trace_tangency_curve_residuals_and_folds():
    system = normal_form_system(-0.2, 5, -0.2, 3)
    bd = boundary_data(system, (0, 0, 0))
    points = trace_tangency_curve(system, bd, 1.0, 10)
    assert len(points) == 10
    kinds = []
    for x in points:
        rate_l, _ = normal_rates(system, x)
        assert abs(system.switch(x)) + abs(rate_l) <= 1e-8
        kinds.append(classify_fold(system, x))
    # one visible run and one invisible run, single flip across the
    # equilibrium
    flips = sum(1 for k1, k2 in zip(kinds, kinds[1:]) if k1 != k2)
    assert flips == 1
    assert FoldKind.VISIBLE in kinds and FoldKind.INVISIBLE in kinds


def test_trace_tangency_fold_curvature_sign_flip():
    system = normal_form_system(-0.2, 5, -0.2, 3)
    bd = boundary_data(system, (0, 0, 0))
    points = trace_tangency_curve(system, bd, 0.5, 6)
    curvs = [fold_curvature(system, x) for x in points]
    assert min(curvs) < 0 < max(curvs)


def test_trace_tangency_curve_nonlinear_surface():
    # curved switching surface: H = x1 + 0.2 x3^2
    system = FilippovSystem.parse(
        ("-1.2*x1 + x2", "-4.8*x1 + x3", "-5*x1 + 0.1*x3^2"),
        ("-1", "-0.2", "-3"),
        "x1 + 0.2*x3^2",
    )
    bd = boundary_data(system, (0, 0, 0))
    points = trace_tangency_curve(system, bd, 0.4, 8)
    for x in points:
        rate_l, _ = normal_rates(system, x)
        assert abs(system.switch(x)) + abs(rate_l) <= 1e-8


def test_equilibrium_is_degenerate_fold():
    system = normal_form_system(-0.2, 5, -0.2, 3)
    assert classify_fold(system, (0.0, 0.0, 0.0)) is FoldKind.DEGENERATE


def test_trace_requires_observability():
    from filippov.errors import CorrectionDivergedError
    system = FilippovSystem.parse(("-x1", "-x2", "-x3"), ("-1", "0", "0"),
                                  "x1")
    bd = boundary_data(system, (0, 0, 0))  # det vanishes for -identity
    with pytest.raises(CorrectionDivergedError):
        trace_tangency_curve(system, bd, 1.0, 4)


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
