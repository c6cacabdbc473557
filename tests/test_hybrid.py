import math
import sys
from types import SimpleNamespace

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
    return_map,
    return_multiplier,
)
from filippov.hybrid import (
    _LOG_MAX,
    _SECANT_TOL,
    _compose_return,
    _discriminant,
    _plane_hit_spiral,
    _result_from_outcome,
)
from filippov.simulate import SimConfig, Terminal, simulate_hybrid
from filippov.stability import hybrid_params_from_spectrum
import oracles
from oracles import (
    REFERENCE_RTOL,
    companion_matrix,
    flow_reference,
    flow_slide,
    for_all,
    left_matrix,
    log_return_reference,
    marginal_d,
    return_reference,
    slide_block,
)

FIG_STABLE = (0.2, 5.0, 0.2, 1.0)
FIG_UNSTABLE = (-0.2, 0.5, -0.5, 8.0)
FIG_RETURNING = (-0.2, 5.0, -0.2, 3.0)


def _flow_left(params, y0, t):
    """The regular flow at time t by the closed form first_hit_plane
    searches."""
    spectrum = hybrid._hybrid_spectrum(params.a, params.b)
    split = hybrid._spiral_split(hybrid._left_rows(params.a, params.b),
                                 *spectrum, y0)
    return np.array(hybrid._spiral_at(split, *spectrum, float(t)))


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
    assert np.max(np.abs(_flow_left(params, y0, 0.0) - y0)) <= 1e-15


def test_flow_left_eigenline_decay():
    a, b = -0.2, 5.0
    params = HybridParams(a, b, -0.2, 3.0)
    v = np.array([1.0, -a, b])
    # (M + I) v = 0: v spans the decaying eigendirection
    assert np.max(np.abs(left_matrix(a, b) @ v + v)) <= 1e-12
    for t in (0.5, 2.0, 7.0):
        got = _flow_left(params, v, t)
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
        got = _flow_left(params, y0, t)
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
        once = _flow_left(params, y0, t1 + t2)
        twice = _flow_left(params, _flow_left(params, y0, t1), t2)
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
    check = _flow_left(params, (0.0, 0.0, -1.0), ev.t_hit)
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
        assert all(_flow_left(params, y0, t)[0] < 0.0 for t in times)
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


def test_slide_beyond_the_float_range_is_defined():
    # a nearly resonant complex block with a growing rate: the return,
    # after about 1e6 time units, lies far beyond the float range, and its
    # log is the 50-digit reference's
    params = HybridParams(0.2, 5.0, 1.0, 0.25 + 1e-11)
    result = return_multiplier(params)
    assert result.status is LambdaStatus.DEFINED
    assert result.stable is False and result.value == math.inf
    assert_log_reference(params, result.log_value, 496728.51190307905)


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


def test_on_plane_checks_do_not_depend_on_the_size_of_the_start():
    # the slide is linear in its start: a start whose y1 is 10 y2 is off
    # the plane at every size, and one on it is on it at every size
    params = HybridParams(*FIG_STABLE)
    for scale in (1e-300, 1e-9, 1.0, 1e9, 1e300):
        off = (1e-1 * scale, 1e-2 * scale, -1e-2 * scale)
        with pytest.raises(ValueError, match="not on the switching plane"):
            first_hit_line(params, off)
        with pytest.raises(ValueError, match="not on the switching plane"):
            flow_slide(params, off, 1.0)
        on = (1e-12 * scale, 1e-2 * scale, -1e-2 * scale)
        ev = first_hit_line(params, on)
        base = first_hit_line(params, (0.0, 1.0, -1.0))
        assert ev.t_hit == base.t_hit
        assert abs(ev.log_scale - base.log_scale - math.log(1e-2 * scale)) \
            <= 1e-13 * max(1.0, abs(ev.log_scale))
        assert flow_slide(params, on, 1.0)[0] == 0.0


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
    # float range; a return beyond the range keeps its status and its
    # log ratio, and reads -inf or -0.0
    for case in (FIG_RETURNING, *SCALE_CASES):
        params = HybridParams(*case)
        base = first_return(params, -1.0)
        for z in (-1e-300, -1e-160, -1e-20, -1e-6, -0.5, -2.0, -10.0, -1e6,
                  -1e160, -1e300):
            out = first_return(params, z)
            assert out.status == base.status, (case, z)
            assert out.log_ratio == base.log_ratio, (case, z)
            if base.status != "returned":
                continue
            if abs(out.zeta) >= sys.float_info.min \
                    and math.isfinite(out.zeta):
                assert abs(out.zeta / -z - base.zeta) \
                    <= 1e-12 * abs(base.zeta), (case, z)
            elif math.log(-z) + base.log_ratio > 0.0:
                assert out.zeta == -math.inf, (case, z)
            else:
                assert -sys.float_info.min < out.zeta <= 0.0, (case, z)
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
        lam = multiplier(np.array([params.c]), np.array([params.d]))
        want = return_multiplier(params)
        assert lam.status[0] is want.status
        assert abs(lam.log_value[0] - want.log_value) \
            <= 1e-12 * max(1.0, abs(want.log_value))
        assert abs(lam.value[0] - want.value) <= 1e-12 * want.value
    with pytest.raises(ConstraintViolationError):
        return_map(0.2, 0.005)  # b <= a^2/4
    with pytest.raises(ConstraintViolationError):
        return_map(0.2, 5.0)(np.array([2.0]), np.array([1.0]))  # d = c^2/4


# (a, b) panels of the array-vs-scalar corpus, and the (c, d) cells every
# panel adds to its seeded draws, with the outcome they are there for
CORPUS_PANELS = ((0.2, 5.0), (-0.2, 0.5), (1.2, 0.5), (-1.2, 2.0),
                 (-3.9, 3.8125),  # regular segment never returns: all converge
                 (2.0, 1.0 + 1e-6),  # plane hit beyond the float range
                 (0.9, 0.2125))   # plane hit near 1e6: large returns
CORPUS_CELLS = (
    ((0.2, 5.0), 1.0, 0.25 + 1e-11, ""),  # a return near e^496729
    ((0.2, 5.0), 20.0, 101.0, ""),  # a return near 1e14
    ((-0.2, 0.5), -1.8, 0.81 + 1e-6, ""),  # a return near e^-2821
    # 1e-13 from d = c^2/4: a complex and a real pair
    ((0.2, 5.0), -1.8, 0.81 + 1e-13, ""),
    ((0.2, 5.0), -1.8, 0.81 - 1e-13, ""),
    # a slow rotation with the rate p > 0 returns, near e^8939144
    ((0.2, 5.0), 1.8, 0.81 + 1e-13, ""),
    ((0.2, 5.0), 0.0, 1e-13, ""),  # a slow rotation
    # d = 0.81 lies above c^2/4 = 3.24/4 by the rounding of 0.81: a slow
    # rotation returning near e^-774634152
    ((-0.2, 0.5), -1.8, 0.81, ""),
    ((-0.2, 0.5), -1.8, 0.81 - 1e-6, "slide decays without returning"),
    ((-3.9, 3.8125), 0.2, 1.0, "never returns"),
    ((2.0, 1.0 + 1e-6), 0.2, 1.0, ""),
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
        lam = return_map(a, b)(c, d)
        status, log_value, stable = lam.status, lam.log_value, lam.stable
        for k, (ci, di) in enumerate(cells):
            want = return_multiplier(HybridParams(a, b, ci, di))
            assert status[k] is want.status, (a, b, ci, di)
            assert stable[k] == bool(want.stable)
            if want.defined:
                assert abs(log_value[k] - want.log_value) \
                    <= 1e-12 * max(1.0, abs(want.log_value))
            else:
                assert math.isnan(log_value[k])
            statuses.add(want.status)
        for panel, ci, di, detail in CORPUS_CELLS:
            if panel == (a, b):
                assert return_multiplier(
                    HybridParams(a, b, ci, di)).detail.startswith(detail)
    # a valid slide never grows without returning: a real pair has
    # c < 0 < d, so both its roots are negative
    assert statuses == {LambdaStatus.DEFINED, LambdaStatus.UNDEFINED_CONVERGED}


def test_return_map_arrays_keep_shape_and_reject_invalid_cells():
    multiplier = return_map(0.2, 5.0)
    c, d = np.meshgrid([-1.0, 0.5, 1.0], [0.5, 2.0], indexing="ij")
    lam = multiplier(c, d)
    status, value = lam.status, lam.log_value
    assert lam.code.shape == status.shape == value.shape == (3, 2)
    assert status[1, 1] is return_multiplier(
        HybridParams(0.2, 5.0, 0.5, 2.0)).status
    with pytest.raises(ConstraintViolationError, match="must exceed c"):
        multiplier(np.array([-1.0, 2.0]), np.array([1.0, 1.0]))
    with pytest.raises(ConstraintViolationError, match="not finite"):
        multiplier(np.array([np.nan]), np.array([1.0]))


def test_return_map_arrays_reach_marginal():
    # log Lambda crosses 0 near d = 5.4548026200223 at (0.2, 5, -0.5);
    # there the array path must also read marginal, not defined
    d = marginal_d(0.2, 5.0, -0.5, 5.4, 5.5)
    assert abs(d - 5.4548026200223) < 1e-12
    want = return_multiplier(HybridParams(0.2, 5.0, -0.5, d))
    assert want.status is LambdaStatus.MARGINAL
    code, log_value = lam = return_map(0.2, 5.0)(
        np.array([-0.5, -0.5, -2.0]), np.array([d, 1.0, 0.5]))
    assert code.tolist() == [1, 0, 2]
    assert lam.status.tolist() == [LambdaStatus.MARGINAL,
                                   LambdaStatus.DEFINED,
                                   LambdaStatus.UNDEFINED_CONVERGED]
    assert abs(log_value[0]) <= hybrid.MARGINAL_TOL
    assert np.isnan(log_value[2])


def test_return_map_broadcasts_its_arguments():
    c_axis = np.array([-2.0, -0.5, 0.5, 1.0])
    d_axis = np.array([0.5, 1.0, 5.4548026200223, 6.0])
    c, d = np.meshgrid(c_axis, d_axis, indexing="ij")
    # (-3, 3.25): the regular segment never returns, so no cell slides
    for (a, b), statuses in (
            ((0.2, 5.0), set(LambdaStatus) - {
                LambdaStatus.UNDEFINED_DIVERGED}),
            ((-3.0, 3.25), {LambdaStatus.UNDEFINED_CONVERGED})):
        multiplier = return_map(a, b)
        want = multiplier(c, d)
        assert set(want.status.ravel()) == statuses
        # a column (n, 1) against a row (1, m), and against a 1-D row
        for got in (multiplier(c_axis[:, None], d_axis[None, :]),
                    multiplier(c_axis[:, None], d_axis)):
            assert got.status.shape == (4, 4)
            assert got.status.tolist() == want.status.tolist()
            assert np.array_equal(got.log_value, want.log_value,
                                  equal_nan=True)
        # a scalar c against an array d
        got = multiplier(-0.5, d_axis)
        assert got.status.tolist() == want.status[1].tolist()
        assert np.array_equal(got.log_value, want.log_value[1],
                              equal_nan=True)
    # an invalid pair is found in the broadcast shape: (1, 0.2) here
    with pytest.raises(ConstraintViolationError, match="d = 0.2 must exceed"):
        return_map(0.2, 5.0)(np.array([[-1.0], [1.0]]),
                             np.array([0.5, 0.2]))


def test_lambda_result_marginal_rule():
    # the status is decided on log Lambda
    assert LambdaResult(LambdaStatus.MARGINAL, 5e-10).status \
        is LambdaStatus.MARGINAL
    with pytest.raises(Exception):
        LambdaResult(LambdaStatus.DEFINED, -5e-10)  # inside the band
    with pytest.raises(Exception):
        LambdaResult(LambdaStatus.DEFINED, math.inf)
    with pytest.raises(Exception):
        LambdaResult(LambdaStatus.DEFINED, None)
    assert LambdaResult.from_log(2e-9).status is LambdaStatus.DEFINED


def test_lambda_result_stable():
    assert LambdaResult(LambdaStatus.DEFINED, math.log(0.5)).stable is True
    assert LambdaResult(LambdaStatus.DEFINED, math.log(2.0)).stable is False
    assert LambdaResult(LambdaStatus.MARGINAL, 0.0).stable is None
    assert LambdaResult(LambdaStatus.UNDEFINED_CONVERGED).stable is True
    assert LambdaResult(LambdaStatus.UNDEFINED_DIVERGED).stable is False


def test_lambda_arrays_stable():
    # codes: the index of each LambdaStatus
    lam = LambdaArrays(np.array([0, 0, 1, 2, 3]),
                       np.log([0.5, 2.0, 1.0, np.nan, np.nan]))
    assert lam.stable.tolist() == [True, False, False, True, False]
    assert np.allclose(lam.value[:3], [0.5, 2.0, 1.0], rtol=1e-15)
    assert np.isnan(lam.value[3:]).all()


def test_lambda_arrays_code_table():
    # every code against every kind of log: the views on the codes read
    # what LambdaResult's own rules give for that status and log (its
    # properties read off a plain record, since it refuses inconsistent
    # pairs), with a stable of None (marginal) read as False
    logs = (-0.5, 0.5, 1e-12, math.nan)
    for code, status in enumerate(LambdaStatus):
        lam = LambdaArrays(np.full(len(logs), code), np.array(logs))
        for k, log_value in enumerate(logs):
            rec = SimpleNamespace(status=status, log_value=log_value)
            assert lam.status[k] is status
            assert lam.defined[k] == LambdaResult.defined.fget(rec)
            assert lam.marginal[k] == (status is LambdaStatus.MARGINAL)
            assert lam.stable[k] == bool(LambdaResult.stable.fget(rec))
    # the codes of return_map where no cell slides: (-3, 3.25), whose
    # regular segment never returns
    c, d = np.array([-1.0, 0.5, 2.0]), np.array([0.5, 1.0, 5.0])
    lam = return_map(-3.0, 3.25)(c, d)
    for k in range(3):
        want = return_multiplier(HybridParams(-3.0, 3.25, c[k], d[k]))
        assert want.status is LambdaStatus.UNDEFINED_CONVERGED
        assert lam.code[k] == list(LambdaStatus).index(want.status)
        assert lam.status[k] is want.status
        assert lam.defined[k] == want.defined
        assert not lam.marginal[k]
        assert lam.stable[k] == want.stable
        assert math.isnan(lam.log_value[k])


def test_lambda_value_beyond_the_float_range():
    # value reads inf or 0.0 where exp(log Lambda) leaves the float range
    assert LambdaResult(LambdaStatus.DEFINED, 800.0).value == math.inf
    assert LambdaResult(LambdaStatus.DEFINED, -800.0).value == 0.0
    assert LambdaResult(LambdaStatus.UNDEFINED_DIVERGED).value is None
    lam = LambdaArrays(np.zeros(2, np.intp), np.array([800.0, -800.0]))
    assert lam.value.tolist() == [math.inf, 0.0]


def reference_multiplier(params):
    """Lambda of a returning set from the 50-digit reference, its events
    bracketed next to the package's."""
    out = first_return(params, -1.0)
    assert out.status == "returned"
    return return_reference(params, *(ev.t_hit for ev in out.events))


def log_reference(params):
    """log Lambda of a returning set from the 50-digit reference."""
    out = first_return(params, -1.0)
    assert out.status == "returned"
    return log_return_reference(params, *(ev.t_hit for ev in out.events))


def assert_log_reference(params, log_value, recorded, rtol=1e-13):
    """log_value against the 50-digit reference, for a multiplier beyond
    the float range: live with mpmath, else the value it gave, recorded
    (the adaptive integrator cannot carry such an orbit)."""
    ref = log_reference(params) if oracles.mp is not None else recorded
    assert abs(ref - recorded) <= 1e-15 * abs(recorded)
    assert abs(log_value - ref) <= rtol * abs(ref)


# (a, b, c, d) once read "undefined-diverged": slide blocks called
# resonant by an absolute floor of the tolerance, and returns beyond the
# float range, at the slide's return and at the plane hit, with their
# 50-digit log Lambda
RESONANCE_FLOOR_CASES = ((0.2, 5.0, 0.0, 1e-13), (0.2, 5.0, 1e-7, 1e-13))
BEYOND_RANGE_CASES = (((0.2, 5.0, 2.0, 1.0 + 1e-6), 3140.883287707655),
                      ((8.0, 16.0001, -100.0, 2501.0), 1258.6993824252804))


def test_resonance_tolerance_is_relative():
    # |c^2 - 4d| = 4e-13 is not resonant next to c^2 + 4|d| = 4e-13: the
    # block is a slow rotation that returns, with the 50-digit Lambda
    for case in RESONANCE_FLOOR_CASES:
        params = HybridParams(*case)
        result = return_multiplier(params)
        assert result.status is LambdaStatus.DEFINED, case
        ref = reference_multiplier(params)
        assert abs(result.value - ref) <= max(1e-13, REFERENCE_RTOL) * ref
        lam = return_map(params.a, params.b)(np.array([params.c]),
                                             np.array([params.d]))
        assert lam.status[0] is LambdaStatus.DEFINED
        assert abs(lam.value[0] - ref) <= max(1e-12, REFERENCE_RTOL) * ref
    assert abs(return_multiplier(HybridParams(
        *RESONANCE_FLOOR_CASES[0])).value - 0.368646096809376) <= 1e-14
    assert abs(return_multiplier(HybridParams(
        *RESONANCE_FLOOR_CASES[1])).value - 0.609655795485608) <= 1e-14


def _straddling_cells():
    """(c, d) at relative distances 1e-16 ... 1e-4 from d = c^2/4 (at
    least one ulp): with c < 0 on both sides, real and complex pairs, and
    with c > 0 above only, complex pairs; and an exact double root."""
    for c in (-1.8, -0.6, 0.6, 1.8):
        quarter = c * c / 4.0
        for delta in (1e-16, 1e-13, 1e-10, 1e-7, 1e-4):
            for side in ((1.0, -1.0) if c < 0.0 else (1.0,)):
                yield c, quarter + side * max(delta * quarter,
                                              math.ulp(quarter))
    yield -1.5, 0.5625


def test_near_resonant_slides_match_reference():
    # no band around d = c^2/4: the sign of the discriminant picks the
    # closed form, and both paths give the 50-digit log Lambda on both
    # sides, out to returns after 1e9 time units.  Without mpmath the
    # adaptive integrator stands in on the 10 returns whose events come
    # within 30 time units and whose |log Lambda| <= 10, as in
    # test_log_multiplier_matches_reference_on_wide_corpus.
    kinds, checked = set(), 0
    for a, b in ((0.2, 5.0), (-0.2, 0.5)):
        cells = list(_straddling_cells())
        lam = return_map(a, b)(np.array([c for c, _ in cells]),
                               np.array([d for _, d in cells]))
        for k, (c, d) in enumerate(cells):
            params = HybridParams(a, b, c, d)
            want = return_multiplier(params)
            disc = _discriminant(c, d)
            kinds.add((c < 0.0, "real" if disc > 0.0 else "complex"
                       if disc < 0.0 else "double", want.status))
            assert lam.status[k] is want.status, params
            if not want.defined:
                assert want.detail.startswith("slide decays"), params
                continue
            out = first_return(params, -1.0)
            if oracles.mp is None and (abs(want.log_value) > 10.0 or sum(
                    ev.t_hit for ev in out.events) > 30.0):
                continue
            ref = log_reference(params)
            scale = max(1.0, abs(ref))
            assert abs(want.log_value - ref) \
                <= max(1e-13, REFERENCE_RTOL) * scale, params
            assert abs(lam.log_value[k] - ref) \
                <= max(1e-13, REFERENCE_RTOL) * scale, params
            checked += 1
    defined, converged = (LambdaStatus.DEFINED,
                          LambdaStatus.UNDEFINED_CONVERGED)
    assert kinds == {(True, "complex", defined), (True, "real", defined),
                     (True, "real", converged), (True, "double", defined),
                     (True, "double", converged), (False, "complex", defined)}
    assert checked == (46 if oracles.mp is not None else 10)
    # once "slide grows without returning" by a band around resonance
    params = HybridParams(0.2, 5.0, 1.8, 0.81 + 1e-13)
    assert_log_reference(params, return_multiplier(params).log_value,
                         8939143.657667676)


def test_returns_beyond_the_float_range_are_defined():
    for case, log_lambda in BEYOND_RANGE_CASES:
        params = HybridParams(*case)
        result = return_multiplier(params)
        assert result.status is LambdaStatus.DEFINED, case
        assert result.stable is False and result.value == math.inf
        assert_log_reference(params, result.log_value, log_lambda)
        lam = return_map(params.a, params.b)(np.array([params.c]),
                                             np.array([params.d]))
        assert lam.status[0] is LambdaStatus.DEFINED
        assert_log_reference(params, lam.log_value[0], log_lambda, 1e-12)
    # the second one's plane hit lies beyond the range already
    ev = first_hit_plane(HybridParams(*BEYOND_RANGE_CASES[1][0]),
                         (0.0, 0.0, -1.0))
    assert ev.y_hit[1] == math.inf and ev.log_scale > _LOG_MAX


def wide_draw(rng):
    """(a, b, c, d) with a in [-8, 8], b - a^2/4 log-uniform in [1e-4, 10],
    c in [-6, 6] and d - max(c, 0)^2/4 log-uniform in [1e-6, 31.6]."""
    a = rng.uniform(-8.0, 8.0)
    b = a * a / 4 + 10.0 ** rng.uniform(-4.0, 1.0)
    c = rng.uniform(-6.0, 6.0)
    d = max(c, 0.0) ** 2 / 4 + 10.0 ** rng.uniform(-6.0, 1.5)
    return HybridParams(a, b, c, d)


def test_log_multiplier_matches_reference_on_wide_corpus():
    # 500 sets of the wide draw: 181 return, 36 of them with a hit beyond
    # the float range (at the plane or at the return), and 319 converge.
    # log Lambda from return_multiplier is within 1e-13 max(1, |log
    # Lambda|) of the 50-digit reference, and from return_map within
    # 1e-12.  Without mpmath, the adaptive integrator stands in for the
    # reference on the 18 sets whose events come within 30 time units
    # and whose |log Lambda| <= 10: it cannot carry an orbit beyond the
    # float range, and its absolute tolerance and its run time rule out
    # long and slow orbits.
    rng = np.random.default_rng(0)
    checked = beyond = 0
    for _ in range(500):
        params = wide_draw(rng)
        want = return_multiplier(params)
        lam = return_map(params.a, params.b)(np.array([params.c]),
                                             np.array([params.d]))
        assert lam.status[0] is want.status, params
        if not want.defined:
            continue
        out = first_return(params, -1.0)
        beyond += not all(0.0 < abs(v) < math.inf for ev in out.events
                          for v in ev.y_hit[1:] if v)
        if oracles.mp is None and (abs(want.log_value) > 10.0 or sum(
                ev.t_hit for ev in out.events) > 30.0):
            continue
        ref = log_reference(params)
        scale = max(1.0, abs(ref))
        assert abs(want.log_value - ref) \
            <= max(1e-13, REFERENCE_RTOL) * scale, params
        assert abs(lam.log_value[0] - ref) \
            <= max(1e-12, REFERENCE_RTOL) * scale, params
        checked += 1
    assert beyond == 36
    assert checked == (181 if oracles.mp is not None else 18)


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
    """y1 < 0 along exp(M t) (0, 0, -1) at 1,000 times in (0, t_hit), and
    the hit is e^{alpha t_hit} v, from numpy's eigendecomposition of M
    rather than the closed form.  Every mode is scaled by e^{-alpha t},
    alpha the real part of the complex pair, so that a hit beyond the
    float range is checked too."""
    lams, vecs = np.linalg.eig(M)
    alpha = lams[np.argmax(np.abs(lams.imag))].real
    coef = np.linalg.solve(vecs, np.array([0.0, 0.0, -1.0]))
    times = np.linspace(0.0, ev.t_hit, 1002)[1:]
    scaled = (np.exp(np.outer(times, lams - alpha))[:, None, :]
              * (vecs * coef)).sum(axis=2).real
    y1 = scaled[:-1, 0]
    assert np.all(y1 < 0.0), times[np.argmax(y1 >= 0.0)]
    assert abs(ev.log_scale - alpha * ev.t_hit) \
        <= 1e-12 * max(1.0, abs(alpha * ev.t_hit))
    # M's float entries move a slow rotation's spectrum by about 1e-12,
    # and the hit by up to about 1e-9 at t_hit = 100
    assert np.max(np.abs(scaled[-1] - ev.v)) <= 1e-7 * np.max(np.abs(ev.v))


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
        return ev
    # a leg ends without an event only by the never-returns proof
    assert "never returns" in ev.detail
    assert mu >= alpha
    assert ev.status is (LambdaStatus.UNDEFINED_CONVERGED if mu < 0
                         else LambdaStatus.UNDEFINED_DIVERGED)


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
    # a slow rotation growing at alpha = 8: the hit, near e^838, lies
    # beyond the float range, and is an event with its log scale
    ev = check_normal_form_plane_hit((-1.0, 8.0, 0.03))
    assert ev.log_scale > 800.0 and ev.y_hit[1] == math.inf


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
