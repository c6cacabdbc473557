import math
import sys

import numpy as np
import pytest

from filippov.core import BoundaryData, FilippovSystem, boundary_data
from filippov.errors import NearDegenerateError
from filippov.hybrid import return_multiplier
from filippov.spectrum import ThreeReal, eig3
from filippov.stability import (
    Degenerate,
    Rotational,
    StableNode,
    UnstableEigenvalue,
    UnstableRightward,
    classify_equilibrium,
    hybrid_params_from_spectrum,
)
from oracles import (
    branch_reference,
    companion_matrix,
    for_all,
    local_data_reference,
)


def bd_from(p, q, A):
    return BoundaryData.from_local_data((0.0, 0.0, 0.0), p, q, A)


# companion matrix with spectrum {-1, 0.1 +/- i sqrt(4.99)} and p = e1;
# picking q = (-1, tau_s, -delta_s) makes the sliding block have
# eigenvalue pair with sum tau_s and product delta_s
def rotational_bd(tau_s=0.2, delta_s=1.0):
    A = companion_matrix(0.2 - 1.0, 5.0 - 0.2, -5.0)
    return bd_from((1.0, 0, 0), (-1.0, tau_s, -delta_s), A)


def test_rightward_instability():
    bd = bd_from((1.0, 0, 0), (1.0, 0, 0), companion_matrix(-0.8, 4.8, -5.0))
    verdict = classify_equilibrium(bd)
    assert isinstance(verdict, UnstableRightward)


def test_positive_left_eigenvalue():
    bd = bd_from((1.0, 1, 1), (-1.0, -1, -1), np.diag([1.0, -1.0, -2.0]))
    verdict = classify_equilibrium(bd)
    assert isinstance(verdict, UnstableEigenvalue)
    assert verdict.matrix == "left"
    assert abs(verdict.eigenvalue - 1.0) <= 1e-9


def test_positive_sliding_eigenvalue():
    # stable left spectrum but sliding block with a positive eigenvalue:
    # q = (-1, tau_s, -delta_s) with delta_s < 0 gives a real pair with
    # one positive member
    A = companion_matrix(-6.0, 11.0, -6.0)  # eigenvalues -1, -2, -3
    bd = bd_from((1.0, 0, 0), (-1.0, -1.0, 2.0), A)  # pair of l^2 + l - 2
    verdict = classify_equilibrium(bd)
    assert isinstance(verdict, UnstableEigenvalue)
    assert verdict.matrix == "sliding"
    assert abs(verdict.eigenvalue - 1.0) <= 1e-9


def test_stable_node():
    bd = bd_from((1.0, 1, 1), (-1.0, 0, 0), np.diag([-1.0, -2.0, -3.0]))
    verdict = classify_equilibrium(bd)
    assert isinstance(verdict, StableNode)
    assert np.max(np.abs(np.array(verdict.left_eigs) - [-3, -2, -1])) <= 1e-9


def test_rotational_parameters_recovered():
    verdict = classify_equilibrium(rotational_bd())
    assert isinstance(verdict, Rotational)
    p = verdict.params
    assert abs(p.a - 0.2) <= 1e-9
    assert abs(p.b - 5.0) <= 1e-9
    assert abs(p.c - 0.2) <= 1e-9
    assert abs(p.d - 1.0) <= 1e-9
    assert abs(verdict.gamma - 1.0) <= 1e-9


def test_rotational_scale_consistency():
    # rescaling time (A -> sA with q fixed scales B -> sB) must keep the
    # hybrid parameters identical
    base = classify_equilibrium(rotational_bd())
    A = companion_matrix(0.2 - 1.0, 5.0 - 0.2, -5.0)
    for s in (0.5, 2.0, 10.0):
        bd = BoundaryData.from_local_data(
            (0.0, 0.0, 0.0), (1.0, 0, 0), (-1.0, 0.2, -1.0), s * A)
        # q describes the right field, unchanged; but the sliding pair
        # scales with s, as B = (I - q p^T / p^T q)(sA) = s B_1
        verdict = classify_equilibrium(bd)
        assert isinstance(verdict, Rotational)
        for name in "abcd":
            assert abs(getattr(verdict.params, name)
                       - getattr(base.params, name)) <= 1e-9 * s


def test_degenerate_observability():
    bd = bd_from((1.0, 0, 0), (-1.0, 0, 0), -np.eye(3))
    verdict = classify_equilibrium(bd)
    assert isinstance(verdict, Degenerate)
    assert "observability" in verdict.reason


def test_degenerate_repeated_left_eigenvalues():
    bd = bd_from((1.0, 1, 1), (-1.0, 0, 0), np.diag([-1.0, -1.0, -3.0]))
    verdict = classify_equilibrium(bd)
    assert isinstance(verdict, Degenerate)


def test_degenerate_zero_sliding_eigenvalue():
    A = companion_matrix(-6.0, 11.0, -6.0)
    # delta_s = 0 puts one non-zero sliding eigenvalue at zero
    bd = bd_from((1.0, 0, 0), (-1.0, -1.0, 0.0), A)
    verdict = classify_equilibrium(bd)
    assert isinstance(verdict, Degenerate)


def test_rounding_edge_sliding_pair_is_degenerate():
    # the sliding pair is complex by one ulp, with c > 0: dividing its
    # product by gamma^2 rounds d onto c^2/4, which HybridParams refuses
    s = "1.2192"
    system = FilippovSystem.parse(
        [f"{s}*(-0.8*x1 + x2)", f"{s}*(-4.8*x1 + x3)", f"{s}*(-5*x1)"],
        [f"-{s}", "2.4384", f"-{s}*1.0000000000000002"], "x1")
    verdict = classify_equilibrium(boundary_data(system, (0, 0, 0)))
    assert verdict == Degenerate("no valid hybrid parameters: with c = 2 > "
                                 "0, d = 1 must exceed c^2/4 = 1")


def test_pbh_detects_orthogonal_eigvector():
    # rotate an eigenvector of a diagonal matrix into and out of the
    # plane orthogonal to p = (0, 1, 1); the eigenvectors are the
    # rotated axes, and only theta = 0 leaves one (e1) orthogonal to p
    lams = np.diag([-1.0, -2.0, -3.0])
    p = (0.0, 1.0, 1.0)
    q = (0.0, 0.0, -1.0)
    for theta, expect_degenerate in ((0.0, True), (np.pi / 4, False)):
        c, s = np.cos(theta), np.sin(theta)
        R = np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])
        A = R @ lams @ R.T
        bd = bd_from(p, q, A)
        verdict = classify_equilibrium(bd)
        if expect_degenerate:
            assert isinstance(verdict, Degenerate)
            assert "observability" in verdict.reason
        else:
            assert not isinstance(verdict, Degenerate)
            assert abs(bd.det_phi) > 1e-3


def test_hybrid_params_map_values():
    p = hybrid_params_from_spectrum(0.1, np.sqrt(4.99), 1.0, 0.2, 1.0)
    assert (p.a, p.b, p.c, p.d) == pytest.approx((0.2, 5.0, 0.2, 1.0), abs=1e-12)
    p2 = hybrid_params_from_spectrum(-0.1, np.sqrt(4.99), 1.0, -0.2, 3.0)
    assert (p2.a, p2.b, p2.c, p2.d) == pytest.approx((-0.2, 5.0, -0.2, 3.0),
                                                     abs=1e-12)


def test_hybrid_params_map_scaling_invariance():
    base = hybrid_params_from_spectrum(0.1, 2.0, 1.0, 0.2, 1.0)
    scaled = hybrid_params_from_spectrum(0.2, 4.0, 2.0, 0.4, 4.0)
    for name in "abcd":
        assert abs(getattr(base, name) - getattr(scaled, name)) <= 1e-12


def test_hybrid_params_map_far_from_unit_time_scale():
    # (0.1s, 2s, s, -0.5s, 0.5s^2) maps to (0.2, 4.01, -0.5, 0.5) at every
    # time scale s: squaring before dividing lost b's digits at 1e-160 and
    # overflowed at 1e154.  d is checked only where pair_product is a
    # normal float; below that its digits are lost before the call.
    want = (0.2, 4.01, -0.5, 0.5)
    for s in (1e-160, 1e-155, 1e154):
        pair_product = 0.5 * s * s
        p = hybrid_params_from_spectrum(0.1 * s, 2.0 * s, s, -0.5 * s,
                                        pair_product)
        checked = "abcd" if pair_product >= sys.float_info.min else "abc"
        for name, value in zip(checked, want):
            assert abs(getattr(p, name) - value) <= 4 * math.ulp(value), \
                (s, name, getattr(p, name))


def test_hybrid_params_map_validates():
    from filippov.errors import ConstraintViolationError
    for beta, gamma in ((-1.0, 1.0), (0.0, 1.0), (1.0, -1.0)):
        with pytest.raises(ValueError):
            hybrid_params_from_spectrum(0.1, beta, gamma, 0.2, 1.0)
    with pytest.raises(ConstraintViolationError):
        hybrid_params_from_spectrum(0.1, 1.0, 1.0, 0.2, -1.0)  # d < 0
    with pytest.raises(ConstraintViolationError):
        hybrid_params_from_spectrum(0.1, 1.0, 1.0, 2.0, 0.5)  # c>0, d<c^2/4


# --------------------------------------------------------------------------
# against the numpy oracle, and under time scaling
# --------------------------------------------------------------------------

BRANCHES = ("Rotational", "StableNode", "UnstableRightward",
            "UnstableEigenvalue", "Degenerate")


def local_data_case(case):
    """(p, q, A) aimed at one branch of the trichotomy, from ``(branch,
    variant, u)`` with u twelve numbers in [0, 1].  Built in companion
    coordinates (p = e1, q = (q0, ts, -ds), so that the sliding pair
    solves l^2 - ts l + ds = 0), then rotated; the degenerate variant 2
    instead makes p orthogonal to an eigenvector of A."""
    branch, variant, u = case
    alpha, beta, gamma = -0.8 + 1.6 * u[0], 0.5 + 2.5 * u[1], 0.5 + 1.5 * u[2]
    ts = -1.5 + 3.0 * u[3]
    low = ts * ts / 4.0 + 0.05 if ts > 0.0 else 0.05
    ds = low + 4.0 * u[4]
    roots = [complex(alpha, beta), complex(alpha, -beta), complex(-gamma)]
    q0 = -1.0
    if branch == 1:  # three distinct negative eigenvalues
        m1 = 0.3 + u[5]
        m2 = m1 * (1.3 + u[6])
        roots = [complex(-m1), complex(-m2), complex(-m2 * (1.3 + u[7]))]
    elif branch == 2:
        q0 = 1.0
    elif branch == 3:
        if variant == 0:
            roots[2] = complex(gamma)
        else:
            ds = -ds
    elif branch == 4:
        if variant == 0:  # a repeated real eigenvalue
            roots = [complex(-gamma * (1.5 + 1.5 * u[5])), complex(-gamma),
                     complex(-gamma)]
        elif variant == 1:  # a zero eigenvalue in the sliding pair
            ds, ts = 0.0, -abs(ts) - 0.1
    r1, r2, r3 = roots
    A = companion_matrix((r1 + r2 + r3).real,
                         (r1 * r2 + r1 * r3 + r2 * r3).real, (r1 * r2 * r3).real)
    p, q = np.array([1.0, 0.0, 0.0]), np.array([q0, ts, -ds])
    if branch == 4 and variant == 2:
        A = np.diag([-gamma, -gamma * (1.5 + u[5]), -gamma * (3.0 + u[6])])
        p = np.array([0.0, 0.5 + u[7], 0.5 + u[3]])
        q = -p + np.array([0.0, -p[2], p[1]]) * u[4]
    c1, s1 = np.cos(6.0 * u[8]), np.sin(6.0 * u[8])
    c2, s2 = np.cos(6.0 * u[9]), np.sin(6.0 * u[9])
    Q = (np.array([[c1, -s1, 0.0], [s1, c1, 0.0], [0.0, 0.0, 1.0]])
         @ np.array([[1.0, 0.0, 0.0], [0.0, c2, -s2], [0.0, s2, c2]]))
    return Q @ p, Q @ q, Q @ A @ Q.T


def case_strategy(st):
    return st.tuples(st.integers(0, 4), st.integers(0, 2),
                     st.lists(st.floats(0.0, 1.0), min_size=12, max_size=12))


def draw_case(rng):
    return (int(rng.integers(5)), int(rng.integers(3)),
            [float(v) for v in rng.uniform(size=12)])


def _eigs_against_numpy(A):
    """The largest distance from eig3's eigenvalues of A to numpy's, or
    None where eig3 reports (nearly) repeated ones."""
    try:
        got = eig3(A)
    except NearDegenerateError:
        return None
    want = np.linalg.eigvals(A)
    if isinstance(got, ThreeReal):
        assert all(v.imag == 0.0 for v in want)
        return float(np.max(np.abs(np.sort(want.real) - got.lams)))
    pair = complex(got.alpha, got.beta)
    real = min(want, key=lambda v: abs(v.imag))
    top = max(want, key=lambda v: v.imag)
    return max(abs(real - got.real_eig), abs(top - pair))


def test_local_data_and_branch_match_numpy_oracle():
    seen = set()
    eps = np.finfo(float).eps

    @for_all(300, 11, case_strategy, draw_case)
    def check(case):
        p, q, A = local_data_case(case)
        bd = bd_from(p, q, A)
        ptq, B, phi, det_phi = local_data_reference(p, q, A)
        abs_pa = np.abs(p) @ np.abs(A)
        assert abs(bd.ptq - ptq) <= 4 * eps * float(np.abs(p) @ np.abs(q))
        assert np.all(np.abs(bd.phi[1] - phi[1]) <= 4 * eps * abs_pa)
        assert np.all(np.abs(bd.phi[2] - phi[2])
                      <= 8 * eps * (abs_pa @ np.abs(A)))
        bound_b = np.abs(A) + np.outer(np.abs(q / ptq), abs_pa)
        assert np.all(np.abs(bd.B - B) <= 8 * eps * bound_b)
        rows = np.prod(np.linalg.norm(phi, axis=1))
        assert abs(bd.det_phi - det_phi) <= 1e-13 * rows
        norm_a = np.linalg.norm(A)
        gap = _eigs_against_numpy(A)
        assert gap is None or gap <= 1e-12 * max(1.0, norm_a)
        branch = type(classify_equilibrium(bd)).__name__
        assert branch == branch_reference(p, q, A)
        seen.add(branch)

    check()
    assert seen == set(BRANCHES)


def _branch_and_params(verdict):
    params = verdict.params if isinstance(verdict, Rotational) else None
    return type(verdict).__name__, params


def test_time_scaled_local_data_keep_branch_and_params():
    # s q and s A are the local data of both fields scaled by s > 0, a
    # change of time scale: the branch and (a, b, c, d) stay, also where
    # p^T A^2 and det phi are near or beyond the range of a float
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(100):
        p, q, A = local_data_case(draw_case(rng))
        branch, params = _branch_and_params(classify_equilibrium(
            bd_from(p, q, A)))
        seen.add(branch)
        for s in (1e-150, 1e-100, 1e-50, 1e-10, 1e10, 1e50, 1e100, 1e150):
            got, got_params = _branch_and_params(classify_equilibrium(
                bd_from(p, s * q, s * A)))
            assert got == branch, (s, p, q, A)
            if params is not None:
                for name in "abcd":
                    want = getattr(params, name)
                    assert abs(getattr(got_params, name) - want) <= \
                        1e-12 * max(1.0, abs(want))
    assert seen == set(BRANCHES)


def _scaled_verdicts(s):
    # a nonlinear rotational system and a nonlinear stable node, both
    # fields scaled by s: the chain the CLI runs, to the verdict
    rotational = FilippovSystem.parse(
        (f"{s!r}*(0.2*x1 + x2 + x1^2)", f"{s!r}*(-5*x1 + x3)", f"{s!r}*(-x1)"),
        (f"{s!r}*(-1)", f"{s!r}*0.5", f"{s!r}*(-3)"), "x1 + 0.1*x2^2")
    node = FilippovSystem.parse(
        (f"{s!r}*(-6*x1 + x2 + x2^2)", f"{s!r}*(-11*x1 + x3)",
         f"{s!r}*(-6*x1)"),
        (f"{s!r}*(-1)", f"{s!r}*(-3)", f"{s!r}*(-2)"), "x1")
    verdict = classify_equilibrium(boundary_data(rotational, (0, 0, 0)))
    node_verdict = classify_equilibrium(boundary_data(node, (0, 0, 0)))
    assert isinstance(verdict, Rotational), verdict
    assert isinstance(node_verdict, StableNode), node_verdict
    return verdict, node_verdict


def _scaled_chain(s):
    # the rotational system of _scaled_verdicts, to the return multiplier
    params = _scaled_verdicts(s)[0].params
    return params, return_multiplier(params)


@pytest.mark.parametrize("s", [1e-150, 1e-100, 1e-50, 1.0, 1e50, 1e100,
                               1e150])
def test_verdict_and_multiplier_do_not_depend_on_time_scale(s):
    # every sign tolerance is relative to a norm, with no floor at 1, so
    # a slow system is not read as degenerate
    want_params, want = _scaled_chain(1.0)
    params, got = _scaled_chain(s)
    for name in "abcd":
        assert abs(getattr(params, name) - getattr(want_params, name)) <= \
            1e-12 * abs(getattr(want_params, name))
    assert got.status is want.status
    assert abs(got.value - want.value) <= 1e-12 * want.value


@pytest.mark.parametrize("s", [1e-155, 1e-160])
def test_slow_systems_keep_the_digits_of_d(s):
    # the sliding pair's product is of order s^2, subnormal at 1e-160,
    # unless time is scaled back near gamma = 1 before it is formed
    want_params, want = _scaled_chain(1.0)
    params, got = _scaled_chain(s)
    for name in "abcd":
        w = getattr(want_params, name)
        assert abs(getattr(params, name) - w) <= 4 * math.ulp(w), name
    assert abs(got.log_value - want.log_value) <= 1e-12 * abs(want.log_value)


@pytest.mark.parametrize("s", [1e-155, 1e-160])
def test_slow_systems_keep_the_digits_of_the_sliding_pair(s):
    # the pair's product, of order s^2, is subnormal at s = 1e-160
    # unless time is scaled back near |B| = 1 before it is formed
    for want, got in zip(_scaled_verdicts(1.0), _scaled_verdicts(s)):
        for w, z in zip(want.sliding_pair, got.sliding_pair):
            assert abs(z.real / s - w.real) <= 4 * math.ulp(w.real)
            assert abs(z.imag / s - w.imag) <= 4 * math.ulp(w.imag)
