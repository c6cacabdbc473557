import json
import math
import re

import numpy as np
import pytest

from filippov.core import (
    BoundaryData,
    FilippovSystem,
    RegionKind,
    boundary_data,
    classify_region,
    fold_curvature,
    is_observable,
    load_system_spec,
    normal_rates,
    sliding_field,
    system_spec_from_dict,
)
from filippov.errors import (
    DegenerateGradientError,
    DegenerateSlidingError,
    FilippovError,
    NonFiniteDataError,
    NotAnEquilibriumError,
    NotOnSurfaceError,
    TangentRightFieldError,
)
from filippov.expr import jacobian_fd
from filippov.stability import classify_equilibrium


def linear_system(fr=("-1", "0", "0")):
    return FilippovSystem.parse(("-x1", "-x2", "-x3"), fr, "x1")


def normal_form_system(a, b, c, d):
    """Companion-form realization of the hybrid parameters."""
    tau_l, sigma_l, delta_l = a - 1.0, b - a, -b
    return FilippovSystem.parse(
        (f"{tau_l}*x1 + x2", f"{-sigma_l}*x1 + x3", f"{delta_l}*x1"),
        ("-1", f"{c}", f"{-d}"),
        "x1",
    )


# --------------------------------------------------------------------------
# boundary data
# --------------------------------------------------------------------------

def test_boundary_data_hand_example():
    bd = boundary_data(linear_system(), (0, 0, 0))
    assert np.allclose(bd.p, [1, 0, 0], atol=1e-9)
    assert np.allclose(bd.q, [-1, 0, 0])
    assert np.allclose(bd.A, -np.eye(3), atol=1e-9)
    assert abs(bd.ptq + 1.0) <= 1e-9
    assert np.allclose(bd.B, np.diag([0.0, -1.0, -1.0]), atol=1e-8)
    # A = -I leaves every direction an eigendirection: observability dies
    assert abs(bd.det_phi) <= 1e-9


def test_boundary_data_outward_right_field():
    bd = boundary_data(linear_system(fr=("1", "0", "0")), (0, 0, 0))
    assert bd.ptq > 0


def test_boundary_data_observability_vanishes_for_orthogonal_eigvec():
    # A diagonal with eigenvector e1; p = e3 is orthogonal to it
    system = FilippovSystem.parse(("-x1", "-2*x2", "-3*x3"),
                                  ("0", "0", "-1"), "x3")
    bd = boundary_data(system, (0, 0, 0))
    assert abs(bd.det_phi) <= 1e-9
    # couple every coordinate so no eigenvector is orthogonal to p
    system2 = FilippovSystem.parse(
        ("-x1 + 0.5*x3", "-2*x2 + 0.3*x3", "0.5*x1 + 0.2*x2 - 3*x3"),
        ("0", "0", "-1"), "x3")
    bd2 = boundary_data(system2, (0, 0, 0))
    assert abs(bd2.det_phi) > 1e-3


def test_local_data_must_be_finite():
    p, q, A = [1.0, 0.0, 0.0], [-1.0, 0.2, -1.0], [[-0.8, 1.0, 0.0],
                                                  [-4.8, 0.0, 1.0],
                                                  [-5.0, 0.0, 0.0]]
    BoundaryData.from_local_data((0, 0, 0), p, q, A)
    for name, bad in (
            ("p", ([1.0, float("nan"), 0.0], q, A)),
            ("q", (p, [-1.0, float("inf"), -1.0], A)),
            ("A", (p, q, [A[0], [-4.8, float("-inf"), 1.0], A[2]])),
            ("p^T q", ([1e200, 0.0, 0.0], [-1e200, 0.0, 0.0], A)),
            ("p^T A^2", (p, q, [[v * 1e160 for v in row] for row in A]))):
        with pytest.raises(NonFiniteDataError, match=re.escape(name)):
            BoundaryData.from_local_data((0, 0, 0), *bad)


def test_observability_is_relative():
    # |det phi| / (|p| |p^T A| |p^T A^2|): scaling a row changes neither
    # side, from 1e-100 to 1e100; -I leaves p^T A parallel to p
    phi = [[1.0, 0.0, 0.0], [-0.8, 1.0, 0.0], [-4.16, -0.8, 1.0]]
    for s in (1e-100, 1e-5, 1.0, 1e100):
        assert is_observable([phi[0], [v * s for v in phi[1]],
                              [v * s * s for v in phi[2]]])
        assert not is_observable([phi[0], [-v * s for v in phi[0]],
                                  [v * s * s for v in phi[0]]])
    assert not is_observable(np.zeros((3, 3)))


def test_boundary_data_structural_identity():
    from filippov.spectrum import pair_from_sum_product, pair_sum_product
    bd = boundary_data(normal_form_system(-0.2, 5, -0.2, 3), (0, 0, 0))
    # p^T B = 0 and 0 is an eigenvalue of B
    assert np.linalg.norm(np.asarray(bd.p) @ bd.B) <= 1e-8 * max(
        1.0, np.linalg.norm(bd.p) * np.linalg.norm(bd.B))
    assert abs(np.linalg.det(bd.B)) <= 1e-8 * max(1.0, np.linalg.norm(bd.B)) ** 3
    # the zero eigenvalue deflates without complaint
    pair = pair_from_sum_product(*pair_sum_product(bd.B))
    assert abs(pair[0].real + pair[1].real - (-0.2)) <= 1e-6
    assert abs((pair[0] * pair[1]).real - 3.0) <= 1e-6


def test_boundary_data_translated_equilibrium():
    # same structure shifted to x_star = (1, -2, 0.5)
    system = FilippovSystem.parse(
        ("-0.8*(x1 - 1) + (x2 + 2)",
         "-4.8*(x1 - 1) + (x3 - 0.5)",
         "-5*(x1 - 1)"),
        ("-1", "0.2", "-1"),
        "x1 - 1",
    )
    bd = boundary_data(system, (1.0, -2.0, 0.5))
    assert np.allclose(bd.p, [1, 0, 0], atol=1e-9)
    assert abs(bd.ptq + 1.0) <= 1e-9
    assert abs(bd.det_phi - 1.0) <= 1e-6
    rate_l, rate_r = normal_rates(system, bd.x_star)
    assert abs(rate_l) <= 1e-8 and abs(rate_r - bd.ptq) <= 1e-8


def test_boundary_data_where_a_sqrt_of_zero_has_a_zero_tangent():
    # x1*sqrt(x1^2 + x2^2) is C^1 at 0 with zero partials, though the
    # derivative of its sqrt is not finite there: A is the linear part's,
    # and the verdict is the normal form's
    linear = normal_form_system(-0.2, 5, -0.2, 3)
    left = ("-1.2*x1 + x2 + x1*sqrt(x1^2 + x2^2)",
            "-5.2*x1 + x3 + x3*(x1^2 + x3^2)^0.5", "-5*x1")
    system = FilippovSystem.parse(left, ("-1", "-0.2", "-3"), "x1")
    bd = boundary_data(system, (0, 0, 0))
    # exactly: central differences with step h read x1*|x1|'s partial as h
    assert np.array_equal(bd.A, boundary_data(linear, (0, 0, 0)).A)
    p = classify_equilibrium(bd).params
    assert np.allclose((p.a, p.b, p.c, p.d), (-0.2, 5, -0.2, 3), atol=1e-12)


def test_boundary_data_rejects_non_equilibrium():
    with pytest.raises(NotAnEquilibriumError):
        boundary_data(linear_system(), (0.5, 0, 0))
    # on the zero set of the left field but off the surface
    system = FilippovSystem.parse(("-x1", "-x2", "-x3"), ("-1", "0", "0"),
                                  "x1 - 1")
    with pytest.raises(NotAnEquilibriumError):
        boundary_data(system, (0, 0, 0))


def test_boundary_data_holds_float_tuples():
    # the one format of the local data, whatever the input's: numpy
    # input gives the same floats as nested lists
    system = normal_form_system(-0.2, 5, -0.2, 3)
    bd = boundary_data(system, np.zeros(3))
    for vector in (bd.x_star, bd.p, bd.q):
        assert type(vector) is tuple and len(vector) == 3
        assert all(type(v) is float for v in vector)
    for matrix in (bd.A, bd.B, bd.phi):
        assert type(matrix) is tuple and len(matrix) == 3
        assert all(type(row) is tuple and len(row) == 3
                   and all(type(v) is float for v in row) for row in matrix)
    raw = (bd.x_star, list(bd.p), list(bd.q), [list(row) for row in bd.A])
    arrays = BoundaryData.from_local_data(*map(np.array, raw))
    assert BoundaryData.from_local_data(*raw) == arrays == bd


def test_points_of_the_wrong_length_are_refused():
    system = normal_form_system(-0.2, 5, -0.2, 3)
    for point in ((0.0, 0.0, 0.0, 7.0), (0.0, 0.0), np.zeros(4)):
        for call in (boundary_data, normal_rates, classify_region,
                     sliding_field, fold_curvature):
            with pytest.raises(ValueError):
                call(system, point)


def test_boundary_data_rejects_tangent_right_field():
    with pytest.raises(TangentRightFieldError):
        boundary_data(linear_system(fr=("0", "1", "0")), (0, 0, 0))


def test_boundary_data_rejects_flat_gradient():
    system = FilippovSystem.parse(("-x1", "-x2", "-x3"), ("-1", "0", "0"),
                                  "x1^2")
    with pytest.raises(DegenerateGradientError):
        boundary_data(system, (0, 0, 0))


# --------------------------------------------------------------------------
# surface classification
# --------------------------------------------------------------------------

def test_normal_rates_constant_field():
    system = FilippovSystem.parse(("1", "0", "0"), ("2", "0", "0"), "x1")
    for point in [(0, 0, 0), (0.0, 3.0, -2.0)]:
        rate_l, rate_r = normal_rates(system, point)
        assert abs(rate_l - 1.0) <= 1e-9
        assert abs(rate_r - 2.0) <= 1e-9


def test_normal_rates_at_equilibrium():
    system = normal_form_system(-0.2, 5, -0.2, 3)
    bd = boundary_data(system, (0, 0, 0))
    rate_l, rate_r = normal_rates(system, bd.x_star)
    assert abs(rate_l) <= 1e-8
    assert abs(rate_r - bd.ptq) <= 1e-8


def region_system(vl, vr):
    return FilippovSystem.parse(("0", "0", f"{vl}"), ("0", "0", f"{vr}"), "x3")


def test_classify_region_cases():
    assert classify_region(region_system(1, -1), (0, 0, 0)) \
        is RegionKind.ATTRACTING_SLIDING
    assert classify_region(region_system(1, 2), (0, 0, 0)) \
        is RegionKind.CROSSING
    assert classify_region(region_system(-1, -2), (0, 0, 0)) \
        is RegionKind.CROSSING
    assert classify_region(region_system(-1, 1), (0, 0, 0)) \
        is RegionKind.REPELLING_SLIDING
    assert classify_region(region_system(0, -1), (0, 0, 0)) \
        is RegionKind.TANGENCY


def test_classify_region_takes_one_gradient(monkeypatch):
    # the on-surface check, the rates and both tolerance scales share one
    # call each of the generated gradient of H and of the two fields, in
    # that order; H's own generated value is not called
    system = region_system(1, -1)
    calls = []
    for owner, field, name in (("switch", system.switch, "compiled_gradient"),
                               ("left", system.left, "compiled"),
                               ("right", system.right, "compiled")):
        monkeypatch.setitem(field.__dict__, name, (
            lambda *x, generated=getattr(field, name), owner=owner:
            calls.append((owner, x)) or generated(*x)))
    monkeypatch.setitem(system.switch.__dict__, "compiled", None)
    assert classify_region(system, (0, 0, 0)) \
        is RegionKind.ATTRACTING_SLIDING
    assert calls == [(owner, (0.0, 0.0, 0.0))
                     for owner in ("switch", "left", "right")]


def test_classify_region_requires_surface_point():
    with pytest.raises(NotOnSurfaceError):
        classify_region(region_system(1, -1), (0, 0, 0.5))


# --------------------------------------------------------------------------
# folds
# --------------------------------------------------------------------------

def test_fold_curvature_matches_matrix_formula():
    # for a linear left field A x with linear H, the curvature at x is
    # p^T A^2 x exactly
    system = normal_form_system(-0.2, 5, -0.2, 3)
    A = boundary_data(system, (0, 0, 0)).A
    p = np.array([1.0, 0.0, 0.0])
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.uniform(-1, 1, size=3)
        want = float(p @ A @ A @ x)
        got = fold_curvature(system, x)
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want))


def test_fold_curvature_vanishes_at_equilibrium():
    system = normal_form_system(-0.2, 5, -0.2, 3)
    assert abs(fold_curvature(system, (0, 0, 0))) <= 1e-6


def test_classify_fold_on_tangency_line():
    # on the tangency line of the companion realization, the curvature
    # equals x3: visible below the equilibrium, invisible above
    system = normal_form_system(-0.2, 5, -0.2, 3)
    assert fold_curvature(system, (0, 0, -1)) < 0 \
        < fold_curvature(system, (0, 0, 1))


# --------------------------------------------------------------------------
# sliding field
# --------------------------------------------------------------------------

def test_sliding_field_equals_left_field_on_tangency():
    system = normal_form_system(-0.2, 5, -0.2, 3)
    x = np.array([0.0, 0.0, -1.0])
    slide = np.asarray(sliding_field(system, x))
    assert np.max(np.abs(slide - system.left(x))) <= 1e-8


def test_sliding_field_symmetric_cancellation():
    system = FilippovSystem.parse(("0", "0", "1"), ("0", "0", "-1"), "x3")
    for point in [(0, 0, 0), (2.0, -1.0, 0.0)]:
        assert np.max(np.abs(sliding_field(system, point))) <= 1e-9


def test_sliding_field_degenerate_rates():
    system = FilippovSystem.parse(("0", "0", "1"), ("0", "1", "1"), "x3")
    with pytest.raises(DegenerateSlidingError):
        sliding_field(system, (0, 0, 0))


def test_sliding_field_tangent_to_surface():
    system = FilippovSystem.parse(
        ("x2", "-x1 - 0.3*x2", "1 + 0.2*x1"),
        ("0.1*x2", "0.5", "-1 - 0.1*x1^2"),
        "x3 + 0.1*x1^2",
    )
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(50):
        x1, x2 = rng.uniform(-1, 1, size=2)
        x = np.array([x1, x2, -0.1 * x1 ** 2])  # on the surface
        rate_l, rate_r = normal_rates(system, x)
        if not (rate_l > 0 > rate_r):
            continue
        slide = sliding_field(system, x)
        grad = np.array([0.2 * x1, 0.0, 1.0])
        bound = 1e-6 * max(1.0, np.linalg.norm(grad) * np.linalg.norm(slide))
        assert abs(grad @ slide) <= bound
        checked += 1
    assert checked >= 10


def test_sliding_jacobian_matches_projector_formula():
    system = normal_form_system(0.2, 5, 0.2, 1)
    bd = boundary_data(system, (0, 0, 0))
    jac = jacobian_fd(lambda x: sliding_field(system, x), bd.x_star)
    scale = max(1.0, np.max(np.abs(bd.B)))
    assert np.max(np.abs(jac - bd.B)) <= 1e-5 * scale


# --------------------------------------------------------------------------
# system-spec files
# --------------------------------------------------------------------------

def spec_dict():
    return {
        "fL": ["-x1", "-x2", "-x3"],
        "fR": ["-1", "0", "0"],
        "H": "x1",
        "x_star": [0, 0, 0],
    }


def test_load_system_spec_roundtrip(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(spec_dict()))
    spec = load_system_spec(path)
    assert spec.x_star == (0.0, 0.0, 0.0)
    bd = boundary_data(spec.system, spec.x_star)
    assert abs(bd.ptq + 1.0) <= 1e-9


def test_system_spec_rejects_unknown_fields():
    data = spec_dict()
    data["extra"] = 1
    with pytest.raises(FilippovError, match="unknown"):
        system_spec_from_dict(data)


def test_system_spec_rejects_missing_and_malformed(tmp_path):
    data = spec_dict()
    del data["H"]
    with pytest.raises(FilippovError, match="missing"):
        system_spec_from_dict(data)
    data = spec_dict()
    data["fL"] = ["-x1", "-x2"]
    with pytest.raises(FilippovError):
        system_spec_from_dict(data)
    # a boolean is an int to Python, 10^400 is beyond the float range, and
    # JSON reads NaN, Infinity and 1e400 as floats that are not finite
    for x_star in ([0, 0, "zero"], [0, 0, True], [False] * 3,
                   [10 ** 400, 0, 0], [0, -10 ** 400, 0], [math.nan, 0, 0],
                   json.loads("[0, 1e400, 0]"), [0, 0, -math.inf]):
        data = spec_dict()
        data["x_star"] = x_star
        with pytest.raises(FilippovError, match="^field 'x_star' must be a "
                           "list of 3 numbers$"):
            system_spec_from_dict(data)
    # bytes that are not UTF-8, and nesting past the recursion limit
    for name, text in (("binary.json", b"\xff\xfe"),
                       ("deep.json", b"[" * 100_000 + b"]" * 100_000)):
        path = tmp_path / name
        path.write_bytes(text)
        with pytest.raises(FilippovError, match="not valid JSON"):
            load_system_spec(path)
