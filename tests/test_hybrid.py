import math
import sys

import numpy as np
import pytest

from filippov.errors import ConstraintViolationError, ToleranceNotMetError
from filippov import hybrid
from filippov.hybrid import (
    HybridParams,
    LambdaArrays,
    LambdaResult,
    LambdaStatus,
    SegmentEvent,
    Termination,
    first_hit_line,
    first_hit_plane,
    first_return,
    flow_left,
    flow_slide,
    left_matrix,
    return_map,
    return_multiplier,
    slide_block,
)
from filippov.hybrid import (
    _SECANT_TOL,
    _compose_return,
    _plane_hit_spiral,
    _result_from_outcome,
)
from filippov.simulate import SimConfig, Terminal, simulate_hybrid
from filippov.spectrum import companion_matrix
from filippov.stability import hybrid_params_from_spectrum
from oracles import REFERENCE_RTOL, flow_reference, for_all, return_reference

FIG_STABLE = (0.2, 5.0, 0.2, 1.0)
FIG_UNSTABLE = (-0.2, 0.5, -0.5, 8.0)
FIG_RETURNING = (-0.2, 5.0, -0.2, 3.0)


def random_valid_params(rng):
    a = rng.uniform(-1.5, 1.5)
    b = rng.uniform(a * a / 4 + 0.1, a * a / 4 + 6.0)
    c = rng.uniform(-2.0, 2.0)
    if c > 0:
        d = rng.uniform(c * c / 4 + 0.05, c * c / 4 + 5.0)
    else:
        d = rng.uniform(0.05, 5.0)
    return HybridParams(a, b, c, d)


# --------------------------------------------------------------------------
# parameter validation
# --------------------------------------------------------------------------

def test_params_validation():
    HybridParams(*FIG_STABLE)
    with pytest.raises(ConstraintViolationError):
        HybridParams(0.2, 0.005, 0.0, 1.0)  # b <= a^2/4
    with pytest.raises(ConstraintViolationError):
        HybridParams(0.2, 5.0, 0.2, -1.0)  # d <= 0
    with pytest.raises(ConstraintViolationError):
        HybridParams(0.2, 5.0, 2.0, 0.5)  # c > 0 with d < c^2/4


# --------------------------------------------------------------------------
# closed-form flows
# --------------------------------------------------------------------------

def test_flow_left_identity_at_zero():
    params = HybridParams(*FIG_RETURNING)
    y0 = np.array([-0.3, 0.7, -1.1])
    assert np.max(np.abs(flow_left(params, y0, 0.0) - y0)) <= 1e-15


def test_flow_left_eigenline_decay():
    a, b = -0.2, 5.0
    params = HybridParams(a, b, -0.2, 3.0)
    v = np.array([1.0, -a, b])
    # (M + I) v = 0: v spans the decaying eigendirection
    assert np.max(np.abs(left_matrix(a, b) @ v + v)) <= 1e-12
    for t in (0.5, 2.0, 7.0):
        got = flow_left(params, v, t)
        assert np.max(np.abs(got - math.exp(-t) * v)) <= 1e-12 * math.exp(-t) * np.max(np.abs(v)) + 1e-15


def test_flow_slide_identity_and_plane():
    params = HybridParams(*FIG_STABLE)
    y0 = np.array([0.0, 0.4, -0.9])
    assert np.max(np.abs(flow_slide(params, y0, 0.0) - y0)) <= 1e-15
    out = flow_slide(params, y0, 3.7)
    assert out[0] == 0.0


def test_flow_slide_harmonic_block():
    params = HybridParams(0.1, 1.0, 0.0, 1.0)
    for t in (0.3, 1.0, math.pi / 2):
        got = flow_slide(params, (0.0, 1.0, 0.0), t)
        want = np.array([0.0, math.cos(t), -math.sin(t)])
        assert np.max(np.abs(got - want)) <= 1e-12


def test_flow_slide_rejects_off_plane_start():
    params = HybridParams(*FIG_STABLE)
    with pytest.raises(ValueError):
        flow_slide(params, (0.5, 1.0, 0.0), 1.0)


def test_flows_match_adaptive_integrator():
    # 200 random (params, y0, t): closed forms vs the reference flow
    # (expm at 30 digits, or the adaptive integrator), 1e-9 relative
    rng = np.random.default_rng(2024)
    for _ in range(200):
        params = random_valid_params(rng)
        t = rng.uniform(0.0, 20.0)
        y0 = rng.uniform(-2, 2, size=3)
        ref = flow_reference(left_matrix(params.a, params.b), y0, t)
        got = flow_left(params, y0, t)
        assert np.max(np.abs(got - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))

        z0 = np.array([0.0, rng.uniform(0.1, 2.0), rng.uniform(-2, 2)])
        ref2 = flow_reference(slide_block(params.c, params.d), z0[1:], t)
        got2 = flow_slide(params, z0, t)
        assert got2[0] == 0.0
        assert np.max(np.abs(got2[1:] - ref2)) <= 1e-9 * max(1.0, np.max(np.abs(ref2)))


def test_flow_slide_real_and_resonant_blocks():
    # real pair: c = -1, d = 0.09 -> eigenvalues -0.1, -0.9
    params = HybridParams(-1.0, 1.0, -1.0, 0.09)
    z0 = np.array([0.0, 1.0, 0.3])
    for t in (0.5, 3.0, 10.0):
        ref = flow_reference(slide_block(-1.0, 0.09), z0[1:], t)
        got = flow_slide(params, z0, t)
        assert np.max(np.abs(got[1:] - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))
    # resonant: d = c^2/4 exactly
    params = HybridParams(-1.0, 1.0, -2.0, 1.0)
    for t in (0.5, 3.0):
        ref = flow_reference(slide_block(-2.0, 1.0), z0[1:], t)
        got = flow_slide(params, z0, t)
        assert np.max(np.abs(got[1:] - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))


def test_flow_semigroup_property():
    rng = np.random.default_rng(31)
    for _ in range(40):
        params = random_valid_params(rng)
        y0 = rng.uniform(-1, 1, size=3)
        t1, t2 = rng.uniform(0.1, 5.0, size=2)
        once = flow_left(params, y0, t1 + t2)
        twice = flow_left(params, flow_left(params, y0, t1), t2)
        assert np.max(np.abs(once - twice)) <= 1e-10 * max(1.0, np.max(np.abs(once)))
        z0 = np.array([0.0, rng.uniform(0.1, 1.0), rng.uniform(-1, 1)])
        once = flow_slide(params, z0, t1 + t2)
        twice = flow_slide(params, flow_slide(params, z0, t1), t2)
        assert np.max(np.abs(once - twice)) <= 1e-10 * max(1.0, np.max(np.abs(once)))


# --------------------------------------------------------------------------
# event location
# --------------------------------------------------------------------------

def test_plane_hit_from_return_line():
    params = HybridParams(*FIG_RETURNING)
    ev = first_hit_plane(params, (0.0, 0.0, -1.0))
    assert isinstance(ev, SegmentEvent)
    assert ev.t_hit > 0
    y = ev.y_hit
    assert abs(y[0]) <= 1e-12 * max(1.0, np.linalg.norm(y))
    assert y[1] > 0  # transversal arrival on the sliding side
    # the refined point lies on the closed-form orbit
    check = flow_left(params, (0.0, 0.0, -1.0), ev.t_hit)
    assert np.max(np.abs(check - np.array(y))) <= 1e-12


def test_plane_hit_eigenline_start_converges():
    a, b = -0.2, 5.0
    params = HybridParams(a, b, -0.2, 3.0)
    y0 = -0.1 * np.array([1.0, -a, b])  # pure decay, never crosses
    result = first_hit_plane(params, y0)
    assert isinstance(result, Termination)
    assert result.status is LambdaStatus.UNDEFINED_CONVERGED


def test_plane_hit_near_eigenline_start_returns():
    # off the decaying eigendirection the rotation, 1e-3 and 1e-8 of the
    # start, outlasts the real mode (alpha = -0.1 > mu = -1): the first
    # root comes late, after the search skips the stretch where
    # |u1| e^{(mu - alpha) t} > R
    a, b = -0.2, 5.0
    params = HybridParams(a, b, -0.2, 3.0)
    for off in (1e-3, 1e-8):
        y0 = -0.1 * np.array([1.0, -a, b]) + np.array([0.0, off, 0.0])
        ev = first_hit_plane(params, y0)
        assert isinstance(ev, SegmentEvent)
        times = np.linspace(0.0, ev.t_hit, 1002)[1:-1]
        assert all(flow_left(params, y0, t)[0] < 0.0 for t in times)
        assert abs(ev.y_hit[0]) <= 1e-12 * np.linalg.norm(ev.y_hit)


def test_plane_hit_homogeneity():
    params = HybridParams(*FIG_RETURNING)
    base = first_hit_plane(params, (0.0, 0.0, -1.0))
    for nu in (0.5, 2.0, 10.0):
        ev = first_hit_plane(params, (0.0, 0.0, -nu))
        assert abs(ev.t_hit - base.t_hit) <= 1e-9 * max(1.0, base.t_hit)
        scaled = nu * np.array(base.y_hit)
        assert np.max(np.abs(np.array(ev.y_hit) - scaled)) <= 1e-9 * max(
            1.0, np.max(np.abs(scaled)))


def test_plane_hit_rejects_right_half_space():
    params = HybridParams(*FIG_STABLE)
    with pytest.raises(ValueError):
        first_hit_plane(params, (0.5, 0.0, -1.0))


def test_line_hit_quarter_rotation():
    params = HybridParams(0.1, 1.0, 0.0, 1.0)
    ev = first_hit_line(params, (0.0, 1.0, 0.0))
    assert isinstance(ev, SegmentEvent)
    assert abs(ev.t_hit - math.pi / 2) <= 1e-9
    assert np.max(np.abs(np.array(ev.y_hit) - [0.0, 0.0, -1.0])) <= 1e-9


def test_line_hit_spiral_always_returns():
    rng = np.random.default_rng(12)
    for _ in range(30):
        c = rng.uniform(-2.0, 0.0)
        d = rng.uniform(c * c / 4 + 0.05, c * c / 4 + 5.0)  # complex pair
        params = HybridParams(0.1, 1.0, c, d)
        y0 = (0.0, rng.uniform(0.1, 3.0), rng.uniform(-3.0, 3.0))
        ev = first_hit_line(params, y0)
        assert isinstance(ev, SegmentEvent)
        assert ev.y_hit[2] < 0


def test_line_hit_spiral_is_first_zero():
    # the exact return time of a complex block is the first zero of y2:
    # y2 stays positive before it, and it comes within half a turn
    rng = np.random.default_rng(29)
    for _ in range(30):
        c = rng.uniform(-2.0, 2.0)
        d = rng.uniform(c * c / 4 + 0.05, c * c / 4 + 5.0)  # complex pair
        params = HybridParams(0.1, 1.0, c, d)
        beta = math.sqrt(4 * d - c * c) / 2
        y0 = (0.0, rng.uniform(0.1, 3.0), rng.uniform(-3.0, 3.0))
        ev = first_hit_line(params, y0)
        assert isinstance(ev, SegmentEvent)
        assert ev.t_hit < math.pi / beta
        for t in np.linspace(0.0, ev.t_hit, 1002)[1:-1]:
            assert flow_slide(params, y0, t)[1] > 0
        assert abs(flow_slide(params, y0, ev.t_hit)[1]) <= _SECANT_TOL


def test_slide_below_norm_floor_still_returns():
    # the slide passes far below the norm floor before it returns; its
    # exact return gives Lambda, where stepping the slide stopped at the
    # floor.  The value is the stepped one with the floor lowered to 1e-300.
    result = return_multiplier(HybridParams(-1.2, 0.5, -2.115, 1.125))
    assert result.status is LambdaStatus.DEFINED
    assert abs(result.value - 3.587356021744259e-09) \
        <= 1e-6 * 3.587356021744259e-09


def test_slide_overflow_is_divergence():
    # a nearly resonant complex block with a growing rate: exp overflows
    # before the return
    result = return_multiplier(HybridParams(0.2, 5.0, 1.0, 0.25 + 1e-11))
    assert result.status is LambdaStatus.UNDEFINED_DIVERGED
    assert result.stable is False


def test_line_hit_real_block_decays_without_return():
    # eigenvalues -0.1, -0.9; start in the slow eigendirection
    # (1, r1 - c) = (1, 0.9): both components positive and decaying
    params = HybridParams(-1.0, 1.0, -1.0, 0.09)
    result = first_hit_line(params, (0.0, 1.0, 0.9))
    assert isinstance(result, Termination)
    assert result.status is LambdaStatus.UNDEFINED_CONVERGED


def test_line_hit_real_block_crossing_matches_stepping_semantics():
    # mixed-sign coefficients give a genuine root; validate the analytic
    # event against the planar flow
    params = HybridParams(-1.0, 1.0, -1.0, 0.09)
    y0 = (0.0, 1.0, -2.0)
    ev = first_hit_line(params, y0)
    assert isinstance(ev, SegmentEvent)
    at_hit = flow_slide(params, y0, ev.t_hit)
    assert abs(at_hit[1]) <= 1e-9
    assert ev.y_hit[2] < 0


def test_line_hit_requires_positive_y2():
    params = HybridParams(*FIG_STABLE)
    with pytest.raises(ValueError):
        first_hit_line(params, (0.0, -1.0, 0.0))


# --------------------------------------------------------------------------
# first return and the multiplier
# --------------------------------------------------------------------------

# (a, b, c, d) whose first return is far from 1 in size: the map is
# linear in z, so the size of a hit must not decide a status
SCALE_CASES = (
    (3.0, 2.3, -3.0, 0.5),    # plane hit near 1e9, then the slide decays
    (0.2, 5.0, 20.0, 101.0),  # a return near 1e14
    (0.9, 0.2125, 0.2, 1.0),  # a slow rotation: plane hit near 1e6
    (1.2, 5.0, 0.315, 0.025),  # a fig-c cell with a return near 3e15
)


def test_first_return_linearity():
    # the map is linear in z down to the bottom and up to the top of the
    # float range; a return beyond the range diverges by overflow
    for case in (FIG_RETURNING, *SCALE_CASES):
        params = HybridParams(*case)
        base = first_return(params, -1.0)
        for z in (-1e-300, -1e-160, -1e-20, -1e-6, -0.5, -2.0, -10.0, -1e6,
                  -1e160, -1e300):
            out = first_return(params, z)
            if base.status == "returned" and abs(base.zeta) > 1.0 \
                    and -z > sys.float_info.max / abs(base.zeta):
                assert out.status == "diverged", (case, z)
                assert "overflow" in out.detail, (case, z)
                continue
            assert out.status == base.status, (case, z)
            if base.status == "returned" \
                    and abs(out.zeta) >= sys.float_info.min:
                assert abs(out.zeta / -z - base.zeta) \
                    <= 1e-12 * abs(base.zeta), (case, z)
    # the first case's slide (eigenvalues of [[-3, 1], [-0.5, 0]] both
    # negative) decays without returning; so does the simulator's, from a
    # start small enough to stay inside its norm ceiling
    params = HybridParams(*SCALE_CASES[0])
    assert return_multiplier(params).status is LambdaStatus.UNDEFINED_CONVERGED
    orbit = simulate_hybrid(params, -1e-4, SimConfig(dt=1e-3, t_max=200.0))
    assert orbit.terminal is Terminal.CONVERGED
    assert [seg.regime for seg in orbit.segments] == ["L", "S"]


def test_first_return_rejects_a_start_that_is_not_finite():
    # the start is checked before it is scaled; a start at the top of the
    # float range still runs
    params = HybridParams(*FIG_RETURNING)
    for z in (-math.inf, math.nan, 0.0, 1.0):
        with pytest.raises(ValueError,
                           match="^z must be finite and negative$"):
            first_return(params, z)
    base = first_return(params, -1.0)
    out = first_return(params, -1e308)
    assert base.status == out.status == "returned"
    assert abs(out.zeta / 1e308 - base.zeta) <= 1e-12 * abs(base.zeta)


def test_first_return_ratio_exact():
    params = HybridParams(*FIG_RETURNING)
    one = first_return(params, -1.0)
    two = first_return(params, -2.0)
    assert abs(two.zeta / one.zeta - 2.0) <= 1e-9


def test_return_multiplier_headline_values():
    stable = return_multiplier(HybridParams(*FIG_STABLE))
    assert stable.status is LambdaStatus.DEFINED
    assert 0 < stable.value < 1
    unstable = return_multiplier(HybridParams(*FIG_UNSTABLE))
    assert unstable.status is LambdaStatus.DEFINED
    assert unstable.value > 1
    returning = return_multiplier(HybridParams(*FIG_RETURNING))
    assert returning.status is LambdaStatus.DEFINED


def test_return_multiplier_constraint_violation():
    with pytest.raises(ConstraintViolationError):
        return_multiplier(HybridParams(0.2, 0.005, 0.0, 1.0))


def test_return_map_matches_return_multiplier():
    rng = np.random.default_rng(8)
    for _ in range(20):
        params = random_valid_params(rng)
        multiplier = return_map(params.a, params.b)
        status, value = multiplier(np.array([params.c]), np.array([params.d]))
        want = return_multiplier(params)
        assert status[0] is want.status
        assert abs(value[0] - want.value) <= 1e-12 * want.value
    with pytest.raises(ConstraintViolationError):
        return_map(0.2, 0.005)  # b <= a^2/4
    with pytest.raises(ConstraintViolationError):
        return_map(0.2, 5.0)(np.array([2.0]), np.array([1.0]))  # d = c^2/4


# (a, b) panels of the array-vs-scalar corpus, and the (c, d) cells every
# panel adds to its seeded draws, with the outcome they are there for
CORPUS_PANELS = ((0.2, 5.0), (-0.2, 0.5), (1.2, 0.5), (-1.2, 2.0),
                 (-3.9, 3.8125),  # regular segment never returns: all converge
                 (2.0, 1.0 + 1e-6),  # regular segment overflows: all diverge
                 (0.9, 0.2125))   # plane hit near 1e6: large returns
CORPUS_CELLS = (
    ((0.2, 5.0), 1.0, 0.25 + 1e-11, "overflow at the return"),
    ((0.2, 5.0), 20.0, 101.0, ""),  # a return near 1e14
    ((-0.2, 0.5), -1.8, 0.81 + 1e-6, "return at or above the origin"),
    # resonant within the discriminant tolerance, on both sides of it
    ((0.2, 5.0), -1.8, 0.81 + 1e-13, ""),
    ((0.2, 5.0), -1.8, 0.81 - 1e-13, ""),
    # resonant within the tolerance with c >= 0, so a rate p >= 0: the
    # slide from y3_0 > 0 (every panel here) grows without returning
    ((0.2, 5.0), 1.8, 0.81 + 1e-13, "slide grows without returning"),
    ((0.2, 5.0), 0.0, 1e-13, "slide grows without returning"),
    ((-0.2, 0.5), -1.8, 0.81, "slide decays without returning"),
    ((-3.9, 3.8125), 0.2, 1.0, "never returns"),
    ((2.0, 1.0 + 1e-6), 0.2, 1.0, "overflow before the plane hit"),
    ((0.9, 0.2125), 0.2, 1.0, ""),
)


def test_return_map_arrays_match_scalar_slide():
    rng = np.random.default_rng(12)
    statuses = set()
    for a, b in CORPUS_PANELS:
        cells = [(c, d) for _, c, d, _ in CORPUS_CELLS]
        for k in range(60):
            c = rng.uniform(-2.0, 2.0)
            d = rng.uniform(max(0.0, c) ** 2 / 4 + 0.01, 5.0)
            # every sixth c < 0 draw is made resonant
            cells.append((c, c * c / 4) if k % 6 == 0 and c < 0 else (c, d))
        c = np.array([cell[0] for cell in cells])
        d = np.array([cell[1] for cell in cells])
        status, value = lam = return_map(a, b)(c, d)
        stable = lam.stable
        for k, (ci, di) in enumerate(cells):
            want = return_multiplier(HybridParams(a, b, ci, di))
            assert status[k] is want.status, (a, b, ci, di)
            assert stable[k] == bool(want.stable)
            if want.defined:
                assert abs(value[k] - want.value) <= 1e-12 * want.value
            else:
                assert math.isnan(value[k])
            statuses.add(want.status)
        for panel, ci, di, detail in CORPUS_CELLS:
            if panel == (a, b):
                assert return_multiplier(
                    HybridParams(a, b, ci, di)).detail.startswith(detail)
    assert statuses == {LambdaStatus.DEFINED, LambdaStatus.UNDEFINED_CONVERGED,
                        LambdaStatus.UNDEFINED_DIVERGED}


def test_return_map_arrays_keep_shape_and_reject_invalid_cells():
    multiplier = return_map(0.2, 5.0)
    c, d = np.meshgrid([-1.0, 0.5, 1.0], [0.5, 2.0], indexing="ij")
    status, value = multiplier(c, d)
    assert status.shape == value.shape == (3, 2)
    assert status[1, 1] is return_multiplier(
        HybridParams(0.2, 5.0, 0.5, 2.0)).status
    with pytest.raises(ConstraintViolationError, match="must exceed c"):
        multiplier(np.array([-1.0, 2.0]), np.array([1.0, 1.0]))
    with pytest.raises(ConstraintViolationError, match="not finite"):
        multiplier(np.array([np.nan]), np.array([1.0]))


def test_lambda_result_marginal_rule():
    assert LambdaResult(LambdaStatus.MARGINAL, 1.0 + 5e-10).status \
        is LambdaStatus.MARGINAL
    with pytest.raises(Exception):
        LambdaResult(LambdaStatus.DEFINED, 1.0 + 5e-10)  # inside the band
    with pytest.raises(Exception):
        LambdaResult(LambdaStatus.DEFINED, -0.5)


def test_lambda_result_stable():
    assert LambdaResult(LambdaStatus.DEFINED, 0.5).stable is True
    assert LambdaResult(LambdaStatus.DEFINED, 2.0).stable is False
    assert LambdaResult(LambdaStatus.MARGINAL, 1.0).stable is None
    assert LambdaResult(LambdaStatus.UNDEFINED_CONVERGED).stable is True
    assert LambdaResult(LambdaStatus.UNDEFINED_DIVERGED).stable is False


def test_lambda_arrays_stable():
    lam = LambdaArrays(
        np.array([LambdaStatus.DEFINED, LambdaStatus.DEFINED,
                  LambdaStatus.MARGINAL, LambdaStatus.UNDEFINED_CONVERGED,
                  LambdaStatus.UNDEFINED_DIVERGED], dtype=object),
        np.array([0.5, 2.0, 1.0, np.nan, np.nan]))
    assert lam.stable.tolist() == [True, False, False, True, False]


def reference_multiplier(params):
    """Lambda of a returning set from the 50-digit reference, its events
    bracketed next to the package's."""
    out = first_return(params, -1.0)
    assert out.status == "returned"
    return return_reference(left_matrix(params.a, params.b), params.c,
                            params.d, *(ev.t_hit for ev in out.events))


def test_step_refinement_convergence():
    # a defined value matches the 50-digit reference (the regular search
    # has no step size left to refine)
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 20:
        params = random_valid_params(rng)
        value = return_multiplier(params)
        if not value.defined:
            continue
        ref = reference_multiplier(params)
        assert abs(value.value - ref) <= max(1e-13, REFERENCE_RTOL) * ref
        checked += 1


def test_missed_secant_tolerance_raises(monkeypatch):
    # one secant step from the search's bracket does not reach 1e-12
    params = HybridParams(*FIG_STABLE)
    want = return_multiplier(params)
    monkeypatch.setattr(hybrid, "_MAX_SECANT_ITERS", 1)
    with pytest.raises(ToleranceNotMetError, match="1 secant iterations"):
        return_multiplier(params)
    monkeypatch.setattr(hybrid, "_MAX_SECANT_ITERS", 8)
    assert return_multiplier(params) == want


# --------------------------------------------------------------------------
# properties of the regular segment's search, over valid (a, b) with
# a in [-4, 4], b - a^2/4 in [0.05, 6], and over normal-form spectra
# --------------------------------------------------------------------------

def draw_ab(rng):
    a = rng.uniform(-4.0, 4.0)
    return a, a * a / 4 + rng.uniform(0.05, 6.0)


def ab_strategy(st):
    return st.tuples(st.floats(-4.0, 4.0), st.floats(0.05, 6.0)).map(
        lambda case: (case[0], case[0] ** 2 / 4 + case[1]))


def draw_spectrum(rng):
    return (rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0),
            rng.uniform(0.2, 3.0))


def spectrum_strategy(st):
    return st.tuples(st.floats(-3.0, 3.0), st.floats(-2.0, 2.0),
                     st.floats(0.2, 3.0))


def companion_of(mu, alpha, beta):
    rot = alpha * alpha + beta * beta
    return companion_matrix(mu + 2 * alpha, 2 * mu * alpha + rot, mu * rot)


def assert_first_root(M, ev):
    """y1 < 0 along exp(M t) (0, 0, -1) at 1,000 times in (0, t_hit),
    from numpy's eigendecomposition of M rather than the closed form."""
    lams, vecs = np.linalg.eig(M)
    coef = np.linalg.solve(vecs, np.array([0.0, 0.0, -1.0]))
    times = np.linspace(0.0, ev.t_hit, 1002)[1:-1]
    y1 = (np.exp(np.outer(times, lams)) * (vecs[0] * coef)).sum(axis=1).real
    assert np.all(y1 < 0.0), times[np.argmax(y1 >= 0.0)]


@for_all(300, 61, ab_strategy, draw_ab)
def test_plane_hit_is_first_root(case):
    a, b = case
    ev = first_hit_plane(HybridParams(a, b, 0.2, 1.0), (0.0, 0.0, -1.0))
    if isinstance(ev, SegmentEvent):
        assert_first_root(left_matrix(a, b), ev)
    else:
        assert a < -2.0 and "never returns" in ev.detail


def check_normal_form_plane_hit(case):
    mu, alpha, beta = case
    M = companion_of(mu, alpha, beta)
    ev = _plane_hit_spiral(M.tolist(), mu, alpha, beta, (0.0, 0.0, -1.0))
    if isinstance(ev, SegmentEvent):
        assert_first_root(M, ev)
    elif "never returns" in ev.detail:
        assert mu >= alpha
        assert ev.status is (LambdaStatus.UNDEFINED_CONVERGED if mu < 0
                             else LambdaStatus.UNDEFINED_DIVERGED)
    else:
        assert "overflow" in ev.detail


@for_all(300, 62, spectrum_strategy, draw_spectrum)
def test_normal_form_plane_hit_is_first_root(case):
    check_normal_form_plane_hit(case)


def test_normal_form_multiplier_time_scaling_invariance():
    rng = np.random.default_rng(123)
    checked = 0
    while checked < 10:
        alpha = rng.uniform(-0.8, 0.8)
        beta = rng.uniform(0.5, 3.0)
        c = rng.uniform(-1.5, 1.5)
        d = rng.uniform(c * c / 4 + 0.05, c * c / 4 + 4.0) if c > 0 \
            else rng.uniform(0.05, 4.0)
        # fixed eigenvalue data, three time scales
        values = []
        for gamma in (0.5, 1.0, 2.0):
            hp = hybrid_params_from_spectrum(alpha * gamma, beta * gamma,
                                             gamma, c * gamma, d * gamma ** 2)
            values.append(return_multiplier(hp))
        if not values[0].defined:
            assert all(v.status is values[0].status for v in values)
            continue
        ref = values[1].value
        for v in values:
            assert v.defined
            assert abs(v.value - ref) <= 1e-8 * max(1.0, ref)
        checked += 1


def test_plane_hit_edge_spectra():
    # mu = alpha: h = u1 + R cos(beta t - phi) first touches zero at a peak
    tiny = 1.6374907590191384e-176
    check_normal_form_plane_hit((tiny, tiny, 1.0))
    M = companion_of(tiny, tiny, 1.0).tolist()
    ev = _plane_hit_spiral(M, tiny, tiny, 1.0, (0.0, 0.0, -1.0))
    result = _result_from_outcome(_compose_return(ev, -0.5, 1.0))
    assert result.status is LambdaStatus.MARGINAL
    # a fast real mode and a slow rotation: the trivial root's exclusion
    # must reach past the rounding of h near t = 0
    check_normal_form_plane_hit((3.0, 0.25, 0.201171875))
    check_normal_form_plane_hit((-1.0, -1.0, 1.5))
    check_normal_form_plane_hit((0.5, 0.5, 0.3))


def draw_below_minus_two(rng):
    a = rng.uniform(-4.0, -2.0)
    return a, a * a / 4 + rng.uniform(0.05, 6.0)


def below_minus_two_strategy(st):
    return st.tuples(st.floats(-4.0, -2.0, exclude_max=True),
                     st.floats(0.05, 6.0)).map(
        lambda case: (case[0], case[0] ** 2 / 4 + case[1]))


@for_all(200, 63, below_minus_two_strategy, draw_below_minus_two)
def test_below_minus_two_never_returns(case):
    # alpha = a/2 < -1 = mu: the decaying real mode outweighs the rotation
    result = return_multiplier(HybridParams(*case, 0.2, 1.0))
    assert result.status is LambdaStatus.UNDEFINED_CONVERGED
    assert "never returns" in result.detail


def draw_config_case(rng):
    return (*draw_ab(rng), 10.0 ** rng.uniform(-15.0, -6.0),
            int(rng.integers(1, 101)))


def config_strategy(st):
    return st.tuples(ab_strategy(st), st.floats(-15.0, -6.0),
                     st.integers(1, 100)).map(
        lambda case: (*case[0], 10.0 ** case[1], case[2]))


@for_all(300, 64, config_strategy, draw_config_case)
def test_statuses_do_not_depend_on_the_search_tolerances(case):
    # the search's own knobs move no status; a refinement that misses its
    # tolerance raises
    a, b, tol, iters = case
    params = HybridParams(a, b, -0.5, 2.0)
    want = return_multiplier(params).status
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hybrid, "_SECANT_TOL", tol)
        patch.setattr(hybrid, "_MAX_SECANT_ITERS", iters)
        try:
            got = return_multiplier(params)
        except ToleranceNotMetError:
            assert iters < 60 or tol < 1e-13
            return
    assert got.status is want


def test_sign_structure_at_plane_hits():
    rng = np.random.default_rng(77)
    for _ in range(40):
        params = random_valid_params(rng)
        ev = first_hit_plane(params, (0.0, 0.0, -1.0))
        if isinstance(ev, SegmentEvent):
            assert ev.y_hit[1] > 0 or abs(ev.y_hit[1]) <= 1e-12


def test_events_lie_on_their_manifolds():
    # every located event satisfies its defining equations to the secant
    # tolerance, with a strictly positive hit time
    rng = np.random.default_rng(2718)
    plane_events = line_events = 0
    for _ in range(60):
        params = random_valid_params(rng)
        ev = first_hit_plane(params, (0.0, 0.0, -1.0))
        if not isinstance(ev, SegmentEvent):
            continue
        plane_events += 1
        scale = max(1.0, float(np.linalg.norm(ev.y_hit)))
        assert ev.t_hit > 0.0
        assert abs(ev.y_hit[0]) <= _SECANT_TOL * scale
        if ev.y_hit[1] <= _SECANT_TOL * scale:
            continue  # landed on the return line itself
        ev2 = first_hit_line(params, (0.0, ev.y_hit[1], ev.y_hit[2]))
        if not isinstance(ev2, SegmentEvent):
            continue
        line_events += 1
        scale2 = max(1.0, float(np.linalg.norm(ev2.y_hit)))
        assert ev2.t_hit > 0.0
        assert ev2.y_hit[0] == 0.0
        assert abs(ev2.y_hit[1]) <= _SECANT_TOL * scale2
        assert ev2.y_hit[2] < 0.0
    assert plane_events >= 30 and line_events >= 20
