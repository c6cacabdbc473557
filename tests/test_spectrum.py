import math

import numpy as np
import pytest

from filippov.errors import NearDegenerateError, NoZeroEigenvalueError
from filippov.spectrum import (
    RealPlusPair,
    ThreeReal,
    det3,
    eig3,
    pair_from_sum_product,
    pair_sum_product,
)
from oracles import (
    companion_from_eigs,
    companion_matrix,
    companion_orbit,
    crossing_indicator,
    decay_coefficients,
    decay_eigvectors,
    eig_gap_product,
    left_matrix,
    slide_block,
)


def char_poly(M, lam):
    return np.polyval(np.poly(M), lam)


def residual_bound(M):
    return 1e-8 * (1.0 + np.linalg.norm(M) ** 3)


# --------------------------------------------------------------------------
# eig3
# --------------------------------------------------------------------------

def test_eig3_diag():
    got = eig3(np.diag([-1.0, -2.0, -3.0]))
    assert isinstance(got, ThreeReal)
    assert np.max(np.abs(np.array(got.lams) - [-3, -2, -1])) <= 1e-12


def test_eig3_companion_with_pair():
    # characteristic polynomial (l + 1)(l^2 - 0.2 l + 5)
    M = companion_matrix(0.2 - 1.0, 5.0 - 0.2, -5.0)
    got = eig3(M)
    assert isinstance(got, RealPlusPair)
    # oracle: quadratic formula on l^2 - 0.2 l + 5
    assert abs(got.real_eig + 1.0) <= 1e-10
    assert abs(got.alpha - 0.1) <= 1e-10
    assert abs(got.beta - math.sqrt(5.0 - 0.01)) <= 1e-10
    # back-substitution into the characteristic polynomial
    assert abs(char_poly(M, got.real_eig)) <= residual_bound(M)
    pair_val = char_poly(M, complex(got.alpha, got.beta))
    assert abs(pair_val) <= residual_bound(M)


def test_eig3_rotation_like():
    got = eig3(np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]]))
    assert isinstance(got, RealPlusPair)
    assert abs(got.real_eig + 1.0) <= 1e-12
    assert abs(got.alpha) <= 1e-12
    assert abs(got.beta - 1.0) <= 1e-12


def test_eig3_near_degenerate():
    with pytest.raises(NearDegenerateError):
        eig3(np.diag([1.0, 1.0, 2.0]))
    with pytest.raises(NearDegenerateError):
        eig3(np.eye(3))


def test_eig3_scale_invariant_classification():
    M = companion_matrix(-0.8, 4.8, -5.0)
    for s in (1e-4, 1e-2, 1.0, 1e2, 1e4):
        got = eig3(s * M)
        assert isinstance(got, RealPlusPair)
        assert abs(got.real_eig + s) <= 1e-8 * s


def test_eig3_random_residuals():
    rng = np.random.default_rng(42)
    n_real = n_pair = 0
    for _ in range(200):
        M = rng.uniform(-3, 3, size=(3, 3))
        try:
            got = eig3(M)
        except NearDegenerateError:
            continue
        bound = residual_bound(M)
        if isinstance(got, ThreeReal):
            n_real += 1
            assert got.lams[0] <= got.lams[1] <= got.lams[2]
            for lam in got.lams:
                assert abs(char_poly(M, lam)) <= bound
        else:
            n_pair += 1
            assert got.beta > 0
            assert abs(char_poly(M, got.real_eig)) <= bound
            assert abs(char_poly(M, complex(got.alpha, got.beta))) <= bound
    assert n_real > 20 and n_pair > 20


def test_eig3_rejects_non_finite_entries():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="non-finite"):
            eig3([[-1.0, 0.0, 0.0], [0.0, bad, 0.0], [0.0, 0.0, -3.0]])


def test_pair_sum_product_rejects_non_finite_entries():
    # a NaN entry used to slip past the zero-eigenvalue test as (nan, nan)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            pair_sum_product([[bad, 0.0, 0.0], [0.0, 1.0, 0.0],
                              [0.0, 0.0, 0.0]])


def test_determinant_matches_lu():
    rng = np.random.default_rng(3)
    for _ in range(200):
        M = rng.uniform(-3, 3, size=(3, 3)) * 10.0 ** rng.uniform(-3, 3)
        bound = 1e-14 * np.linalg.norm(M) ** 3
        assert abs(det3(M) - np.linalg.det(M)) <= bound


def test_array_likes_give_the_same_results():
    M = companion_matrix(0.2 - 1.0, 5.0 - 0.2, -5.0)
    B = np.array([[0.0, 0.0, 0.0], [0.3, 0.2, 1.0], [-0.1, -1.0, 0.0]])
    for form in (M.tolist(), tuple(map(tuple, M.tolist())), list(M)):
        assert det3(form) == det3(M)
        assert eig3(form) == eig3(M)
    assert pair_sum_product(B.tolist()) == pair_sum_product(B)


# --------------------------------------------------------------------------
# deflated pair
# --------------------------------------------------------------------------

def nonzero_pair(M):
    return pair_from_sum_product(*pair_sum_product(M))


def test_nonzero_pair_diag():
    lam1, lam2 = nonzero_pair(np.diag([0.0, -1.0, -2.0]))
    assert {lam1, lam2} == {complex(-1), complex(-2)}


def test_nonzero_pair_planar_block():
    c, d = 0.2, 1.0
    M = np.array([[0.0, 0.0, 0.0], [0.0, c, 1.0], [0.0, -d, 0.0]])
    lam1, lam2 = nonzero_pair(M)
    # roots of l^2 - c l + d
    assert abs(lam1 - complex(0.1, math.sqrt(0.99))) <= 1e-12
    assert abs(lam2 - complex(0.1, -math.sqrt(0.99))) <= 1e-12
    s, pr = pair_sum_product(M)
    assert abs(s - c) <= 1e-12 and abs(pr - d) <= 1e-12


def test_pair_sum_product_is_exact_under_binary_scaling():
    # the zero test runs on a power-of-two rescaled matrix, which is
    # exact: the sum and product scale as s and s^2, bit for bit, and
    # nothing overflows on the way
    B = np.array([[0.0, 0.0, 0.0], [0.3, 0.2, 1.0], [-0.1, -1.0, 0.0]])
    s0, p0 = pair_sum_product(B)
    for k in (-400, -60, 0, 60, 500):
        s = 2.0 ** k
        assert pair_sum_product(s * B) == (s0 * s, p0 * s * s)
    with pytest.raises(NoZeroEigenvalueError):
        nonzero_pair(1e300 * np.diag([1.0, 2.0, 3.0]))


def test_nonzero_pair_requires_zero_eigenvalue():
    with pytest.raises(NoZeroEigenvalueError):
        nonzero_pair(np.diag([1.0, 2.0, 3.0]))


def test_zero_eigenvalue_test_is_relative():
    # |det M| <= ZERO_EIG_TOL * |M|^3 has no floor at |M| = 1: a small
    # matrix without a zero eigenvalue is not taken to have one, and a
    # small one with it keeps its pair, down to a subnormal norm
    for s in (1e-5, 1e-150, 1e-300):
        with pytest.raises(NoZeroEigenvalueError):
            pair_sum_product(s * np.eye(3))
    s, pr = pair_sum_product(np.diag([0.0, -1e-150, -2e-150]))
    assert abs(s + 3e-150) <= 1e-15 * 3e-150
    assert abs(pr - 2e-300) <= 1e-15 * 2e-300
    assert pair_sum_product(np.diag([0.0, 1e-320, 3e-320])) == (4e-320, 0.0)
    assert pair_sum_product(np.zeros((3, 3))) == (0.0, 0.0)


# --------------------------------------------------------------------------
# the four-parameter family's blocks
# --------------------------------------------------------------------------

def test_normal_form_companion_spectrum():
    # time rescaled so that the real eigenvalue is -1: the regular piece
    # of the spectrum {-gamma, alpha +/- i*beta} is left_matrix(a, b)
    alpha, beta, gamma = 0.3, 1.7, 2.0
    a = 2 * alpha / gamma
    b = (alpha ** 2 + beta ** 2) / gamma ** 2
    got = eig3(left_matrix(a, b))
    assert isinstance(got, RealPlusPair)
    assert abs(got.real_eig + 1.0) <= 1e-9
    assert abs(got.alpha - a / 2) <= 1e-9
    assert abs(got.beta - math.sqrt(4 * b - a * a) / 2) <= 1e-9


def test_slide_block_convention():
    # the planar block [[c, 1], [-d, 0]] has eigenvalues with sum c and
    # product d (plus sign on the constant term)
    c, d = -0.7, 0.3
    eigs = np.linalg.eigvals(slide_block(c, d))
    assert abs(eigs.sum() - c) <= 1e-12
    assert abs(eigs.prod() - d) <= 1e-12


# --------------------------------------------------------------------------
# the oracle's decay orbit (three distinct negative eigenvalues)
# --------------------------------------------------------------------------

def test_decay_orbit_initial_condition():
    for lams in [(-3.0, -2.0, -1.0), (-50.0, -1.0, -0.03)]:
        start = companion_orbit(lams, 0.0)
        assert np.max(np.abs(start - [0.0, 0.0, -1.0])) <= 1e-12


def test_decay_eigvectors_residual():
    lams = (-3.0, -2.0, -1.0)
    C = companion_from_eigs(lams)
    for lam, v in zip(lams, decay_eigvectors(lams)):
        assert np.linalg.norm(C @ v - lam * v) <= 1e-10


def test_decay_coefficients_sum_to_zero():
    k = decay_coefficients((-3.0, -2.0, -1.0))
    assert abs(sum(k)) <= 1e-15


def test_gap_product_positive():
    assert eig_gap_product((-3.0, -2.0, -1.0)) == 2.0


def test_crossing_function_hand_value():
    # the gap product times the first orbit component,
    # (-1) e^{-3t} + 2 e^{-2t} + (-1) e^{-t}, at t = 1; the indicator is
    # that without its prefactor e^{-t}
    lams = (-3.0, -2.0, -1.0)
    want = -math.exp(-3) + 2 * math.exp(-2) - math.exp(-1)
    gap = eig_gap_product(lams)
    assert abs(gap * companion_orbit(lams, 1.0)[0] - want) <= 1e-12
    assert abs(crossing_indicator(lams, 1.0) - want * math.e) <= 1e-12
    assert companion_orbit(lams, 0.0)[0] == 0.0
    assert crossing_indicator(lams, 0.0) == 0.0


def test_first_component_negative_for_positive_times():
    t_grid = np.logspace(-4, 2, 101)[1:]
    rng = np.random.default_rng(17)
    for _ in range(50):
        mags = 10.0 ** rng.uniform(-2, 2, size=3)
        lams = tuple(sorted(-mags))
        if not (lams[0] < lams[1] < lams[2] < 0):
            continue
        assert np.all(crossing_indicator(lams, t_grid) < 0.0)
        assert eig_gap_product(lams) > 0.0
        # where representable, the first component itself is negative
        first = companion_orbit(lams, t_grid)[0]
        assert np.all(first <= 0.0)


def test_orbit_satisfies_companion_ode():
    lams = (-2.5, -0.9, -0.2)
    C = companion_from_eigs(lams)
    eps = 1e-6
    for t in np.linspace(0.1, 8.0, 15):
        deriv = (companion_orbit(lams, t + eps)
                 - companion_orbit(lams, t - eps)) / (2 * eps)
        want = C @ companion_orbit(lams, t)
        assert np.max(np.abs(deriv - want)) <= 1e-6 * max(1.0, np.max(np.abs(want)))


def test_decay_orbit_validates_input():
    with pytest.raises(ValueError, match="l1 < l2 < l3 < 0"):
        companion_orbit((-1.0, -2.0, -3.0), 1.0)  # wrong order
    with pytest.raises(ValueError, match="l1 < l2 < l3 < 0"):
        companion_orbit((-2.0, -1.0, 0.5), 1.0)  # not all negative
    with pytest.raises(ValueError, match="non-negative"):
        companion_orbit((-3.0, -2.0, -1.0), -1.0)  # negative time
