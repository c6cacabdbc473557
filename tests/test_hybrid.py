import math

import numpy as np
import pytest

from filippov.errors import ConstraintViolationError, NotRotationalError
from filippov.hybrid import (
    EventConfig,
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
    return_multiplier_normal_form,
    slide_block,
)
from filippov.spectrum import NormalFormParams, normal_form_from_spectrum
from oracles import integrate_adaptive

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


def test_event_config_validation():
    with pytest.raises(ValueError):
        EventConfig(norm_floor=2.0)
    with pytest.raises(ValueError):
        EventConfig(steps_per_rotation=0)


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
    # 200 random (params, y0, t): closed forms vs the reference
    # integrator, 1e-9 relative
    rng = np.random.default_rng(2024)
    for _ in range(200):
        params = random_valid_params(rng)
        t = rng.uniform(0.0, 20.0)
        y0 = rng.uniform(-2, 2, size=3)
        M = left_matrix(params.a, params.b)
        ref = integrate_adaptive(lambda s, y: M @ y, y0, t)
        got = flow_left(params, y0, t)
        assert np.max(np.abs(got - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))

        z0 = np.array([0.0, rng.uniform(0.1, 2.0), rng.uniform(-2, 2)])
        N = slide_block(params.c, params.d)
        ref2 = integrate_adaptive(lambda s, z: N @ z, z0[1:], t)
        got2 = flow_slide(params, z0, t)
        assert got2[0] == 0.0
        assert np.max(np.abs(got2[1:] - ref2)) <= 1e-9 * max(1.0, np.max(np.abs(ref2)))


def test_flow_slide_real_and_resonant_blocks():
    # real pair: c = -1, d = 0.09 -> eigenvalues -0.1, -0.9
    params = HybridParams(-1.0, 1.0, -1.0, 0.09)
    z0 = np.array([0.0, 1.0, 0.3])
    for t in (0.5, 3.0, 10.0):
        ref = integrate_adaptive(
            lambda s, z: slide_block(-1.0, 0.09) @ z, z0[1:], t)
        got = flow_slide(params, z0, t)
        assert np.max(np.abs(got[1:] - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))
    # resonant: d = c^2/4 exactly
    params = HybridParams(-1.0, 1.0, -2.0, 1.0)
    for t in (0.5, 3.0):
        ref = integrate_adaptive(
            lambda s, z: slide_block(-2.0, 1.0) @ z, z0[1:], t)
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
    cfg = EventConfig()
    for _ in range(30):
        c = rng.uniform(-2.0, 2.0)
        d = rng.uniform(c * c / 4 + 0.05, c * c / 4 + 5.0)  # complex pair
        params = HybridParams(0.1, 1.0, c, d)
        beta = math.sqrt(4 * d - c * c) / 2
        y0 = (0.0, rng.uniform(0.1, 3.0), rng.uniform(-3.0, 3.0))
        ev = first_hit_line(params, y0, cfg)
        assert isinstance(ev, SegmentEvent)
        assert ev.t_hit < math.pi / beta
        for t in np.linspace(0.0, ev.t_hit, 1002)[1:-1]:
            assert flow_slide(params, y0, t)[1] > 0
        assert abs(flow_slide(params, y0, ev.t_hit)[1]) <= cfg.secant_tol


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

def test_first_return_linearity():
    params = HybridParams(*FIG_RETURNING)
    base = first_return(params, -1.0)
    assert base.status == "returned"
    for nu in (0.5, 2.0, 10.0):
        out = first_return(params, -nu)
        assert abs(out.zeta / nu - base.zeta) <= 1e-9 * abs(base.zeta)


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
                 (-3.9, 3.8125),  # regular segment decays: all converge
                 (0.9, 0.2125))   # regular segment grows: all diverge
CORPUS_CELLS = (
    ((0.2, 5.0), 1.0, 0.25 + 1e-11, "overflow at the return"),
    ((0.2, 5.0), 20.0, 101.0, "norm above ceiling at the return"),
    ((-0.2, 0.5), -1.8, 0.81 + 1e-6, "return at or above the origin"),
    # resonant within the discriminant tolerance, on both sides of it
    ((0.2, 5.0), -1.8, 0.81 + 1e-13, ""),
    ((0.2, 5.0), -1.8, 0.81 - 1e-13, ""),
    # resonant within the tolerance with c >= 0, so a rate p >= 0: the
    # slide from y3_0 > 0 (every panel here) grows without returning
    ((0.2, 5.0), 1.8, 0.81 + 1e-13, "slide grows without returning"),
    ((0.2, 5.0), 0.0, 1e-13, "slide grows without returning"),
    ((-0.2, 0.5), -1.8, 0.81, "slide decays without returning"),
    ((-3.9, 3.8125), 0.2, 1.0, "norm below floor"),
    ((0.9, 0.2125), 0.2, 1.0, "norm above ceiling"),
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


def test_step_refinement_convergence():
    # doubling the stepping resolution must not move a defined value
    rng = np.random.default_rng(5)
    fine = EventConfig(steps_per_rotation=512)
    checked = 0
    while checked < 20:
        params = random_valid_params(rng)
        coarse_val = return_multiplier(params)
        if not coarse_val.defined:
            continue
        fine_val = return_multiplier(params, fine)
        assert fine_val.defined
        assert abs(fine_val.value - coarse_val.value) \
            <= 1e-7 * max(1.0, coarse_val.value)
        checked += 1


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
    cfg = EventConfig()
    plane_events = line_events = 0
    for _ in range(60):
        params = random_valid_params(rng)
        ev = first_hit_plane(params, (0.0, 0.0, -1.0), cfg)
        if not isinstance(ev, SegmentEvent):
            continue
        plane_events += 1
        scale = max(1.0, float(np.linalg.norm(ev.y_hit)))
        assert ev.t_hit > 0.0
        assert abs(ev.y_hit[0]) <= cfg.secant_tol * scale
        if ev.y_hit[1] <= cfg.secant_tol * scale:
            continue  # landed on the return line itself
        ev2 = first_hit_line(params, (0.0, ev.y_hit[1], ev.y_hit[2]), cfg)
        if not isinstance(ev2, SegmentEvent):
            continue
        line_events += 1
        scale2 = max(1.0, float(np.linalg.norm(ev2.y_hit)))
        assert ev2.t_hit > 0.0
        assert ev2.y_hit[0] == 0.0
        assert abs(ev2.y_hit[1]) <= cfg.secant_tol * scale2
        assert ev2.y_hit[2] < 0.0
    assert plane_events >= 30 and line_events >= 20


def test_normal_form_free_coefficients_unstable_real_part():
    # free coefficients outside the reduced family still flow: regular
    # piece with eigenvalues {0.5, -0.3 +/- 2i}
    lam_re, alpha, beta = 0.5, -0.3, 2.0
    tau = lam_re + 2 * alpha
    sigma = 2 * lam_re * alpha + alpha ** 2 + beta ** 2
    delta = lam_re * (alpha ** 2 + beta ** 2)
    nf = NormalFormParams(tau, sigma, delta, tau_s=-0.5, delta_s=1.0)
    result = return_multiplier_normal_form(nf)
    assert result.status in (LambdaStatus.DEFINED,
                             LambdaStatus.UNDEFINED_DIVERGED,
                             LambdaStatus.UNDEFINED_CONVERGED)


# --------------------------------------------------------------------------
# five-parameter reduction
# --------------------------------------------------------------------------

def test_normal_form_multiplier_matches_four_parameter_form():
    alpha, beta = 0.1, math.sqrt(4.99)
    nf = normal_form_from_spectrum(alpha, beta, 1.0, 0.2, 1.0)
    got = return_multiplier_normal_form(nf)
    want = return_multiplier(HybridParams(*FIG_STABLE))
    assert got.status is want.status
    assert abs(got.value - want.value) <= 1e-9 * want.value


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
            nf = normal_form_from_spectrum(alpha * gamma, beta * gamma, gamma,
                                           c * gamma, d * gamma ** 2)
            res = return_multiplier_normal_form(nf)
            values.append(res)
        if not values[0].defined:
            assert all(v.status is values[0].status for v in values)
            continue
        ref = values[1].value
        for v in values:
            assert v.defined
            assert abs(v.value - ref) <= 1e-8 * max(1.0, ref)
        checked += 1


def test_normal_form_three_real_eigenvalues_rejected():
    # companion coefficients of eigenvalues -1, -2, -3
    nf = NormalFormParams(tau_l=-6.0, sigma_l=11.0, delta_l=-6.0,
                          tau_s=-1.0, delta_s=0.5)
    with pytest.raises(NotRotationalError):
        return_multiplier_normal_form(nf)
