import numpy as np
import pytest

from filippov.core import BoundaryData
from filippov.spectrum import companion_matrix
from filippov.stability import (
    Degenerate,
    Rotational,
    StableNode,
    UnstableEigenvalue,
    UnstableRightward,
    classify_equilibrium,
    hybrid_params_from_spectrum,
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


def test_hybrid_params_map_validates():
    from filippov.errors import ConstraintViolationError
    for beta, gamma in ((-1.0, 1.0), (0.0, 1.0), (1.0, -1.0)):
        with pytest.raises(ValueError):
            hybrid_params_from_spectrum(0.1, beta, gamma, 0.2, 1.0)
    with pytest.raises(ConstraintViolationError):
        hybrid_params_from_spectrum(0.1, 1.0, 1.0, 0.2, -1.0)  # d < 0
    with pytest.raises(ConstraintViolationError):
        hybrid_params_from_spectrum(0.1, 1.0, 1.0, 2.0, 0.5)  # c>0, d<c^2/4
