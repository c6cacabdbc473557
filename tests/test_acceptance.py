"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.
"""

import time

import numpy as np
import pytest

import filippov as fp
from filippov.expr import jacobian_fd
from filippov.hybrid import (
    HybridParams,
    LambdaStatus,
    first_return,
    return_multiplier,
)
from filippov.simulate import SimConfig, return_multiplier_empirical, simulate
from filippov.stability import (
    Rotational,
    StableNode,
    UnstableEigenvalue,
    classify_equilibrium,
)
from filippov.sweep import CellVerdict, cell_centers, sweep
from oracles import (
    REFERENCE_RTOL,
    companion_from_eigs,
    companion_matrix,
    companion_orbit,
    crossing_indicator,
    decay_eigvectors,
    eig_gap_product,
    return_reference,
)

# Regression constants: first computed values of the three headline
# multipliers, cross-checked against the empirical oracle below.
LAMBDA_FIG5A = 0.8272034035385081
LAMBDA_FIG5B = 1.2685480666907416
LAMBDA_FIG2 = 0.5784038029806841
REGRESSION_RTOL = 1e-9


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {name}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def random_valid_params(rng):
    a = rng.uniform(-1.5, 1.5)
    b = rng.uniform(a * a / 4 + 0.1, a * a / 4 + 6.0)
    c = rng.uniform(-2.0, 2.0)
    if c > 0:
        d = rng.uniform(c * c / 4 + 0.05, c * c / 4 + 5.0)
    else:
        d = rng.uniform(0.05, 5.0)
    return HybridParams(a, b, c, d)


@pytest.fixture(scope="module")
def defined_sample():
    """50 random valid parameter tuples whose multiplier is defined,
    paired with the closed-form values (shared by criteria 4 and 11)."""
    rng = np.random.default_rng(20240817)
    sample = []
    while len(sample) < 50:
        params = random_valid_params(rng)
        result = return_multiplier(params)
        if result.status is LambdaStatus.DEFINED:
            sample.append((params, result.value))
    return sample


def test_criterion_01_stable_point():
    start = time.perf_counter()
    result = return_multiplier(HybridParams(0.2, 5.0, 0.2, 1.0))
    elapsed = time.perf_counter() - start
    ok = (result.status is LambdaStatus.DEFINED and result.value < 1.0
          and abs(result.value - LAMBDA_FIG5A) <= REGRESSION_RTOL * LAMBDA_FIG5A
          and elapsed < 0.1)
    empirical = return_multiplier_empirical(
        HybridParams(0.2, 5.0, 0.2, 1.0), SimConfig(dt=1e-3, t_max=600.0))
    ok = ok and abs(empirical.value - result.value) <= 1e-6 * max(1.0, result.value)
    report(1, "stable spiral point",
           ok, f"lambda = {result.value!r} < 1 in {elapsed:.3f}s")


def test_criterion_02_unstable_point():
    start = time.perf_counter()
    result = return_multiplier(HybridParams(-0.2, 0.5, -0.5, 8.0))
    elapsed = time.perf_counter() - start
    ok = (result.status is LambdaStatus.DEFINED and result.value > 1.0
          and abs(result.value - LAMBDA_FIG5B) <= REGRESSION_RTOL * LAMBDA_FIG5B
          and elapsed < 0.1)
    empirical = return_multiplier_empirical(
        HybridParams(-0.2, 0.5, -0.5, 8.0), SimConfig(dt=1e-3, t_max=600.0))
    ok = ok and abs(empirical.value - result.value) <= 1e-6 * max(1.0, result.value)
    report(2, "unstable spiral point",
           ok, f"lambda = {result.value!r} > 1 in {elapsed:.3f}s")


def test_criterion_03_returning_orbit():
    result = return_multiplier(HybridParams(-0.2, 5.0, -0.2, 3.0))
    ok = (result.status is LambdaStatus.DEFINED
          and abs(result.value - LAMBDA_FIG2) <= REGRESSION_RTOL * LAMBDA_FIG2)
    report(3, "returning orbit is well-defined", ok,
           f"lambda = {result.value!r}")


def test_criterion_04_oracle_equivalence(defined_sample):
    start = time.perf_counter()
    cfg = SimConfig(dt=1e-3, t_max=600.0)
    worst = 0.0
    ok = True
    for params, closed_value in defined_sample:
        empirical = return_multiplier_empirical(params, cfg)
        if empirical.status is not LambdaStatus.DEFINED:
            ok = False
            break
        worst = max(worst, abs(empirical.value - closed_value)
                    / max(1.0, closed_value))
    elapsed = time.perf_counter() - start
    ok = ok and worst <= 1e-6 and elapsed < 60.0
    report(4, "closed form vs simulation oracle (50 tuples)", ok,
           f"worst relative deviation {worst:.2e} in {elapsed:.1f}s")


def test_criterion_05_decay_orbit_suite():
    rng = np.random.default_rng(0)
    t_grid = np.logspace(-4, 2, 101)[1:]  # 100 points in (1e-4, 1e2]
    failures = []
    trials = 0
    while trials < 1000:
        mags = 10.0 ** rng.uniform(-2.0, 2.0, size=3)
        lams = tuple(sorted(-mags))
        if not (lams[0] < lams[1] < lams[2] < 0.0):
            continue
        trials += 1
        mat = companion_from_eigs(lams)
        for lam, vec in zip(lams, decay_eigvectors(lams)):
            residual = np.linalg.norm(mat @ vec - lam * vec)
            scale = max(1.0, np.linalg.norm(mat) * np.linalg.norm(vec))
            if residual > 1e-8 * scale:
                failures.append((lams, "eigenvector residual"))
        start = companion_orbit(lams, 0.0)
        if np.max(np.abs(start - np.array([0.0, 0.0, -1.0]))) > 1e-12:
            failures.append((lams, "initial condition"))
        if eig_gap_product(lams) <= 0.0:
            failures.append((lams, "gap product"))
        # first component strictly negative: the scale-free indicator
        # carries its exact sign even where the orbit itself underflows
        if np.any(crossing_indicator(lams, t_grid) >= 0.0):
            failures.append((lams, "indicator sign"))
        first = companion_orbit(lams, t_grid)[0]
        if np.any(first > 0.0):
            failures.append((lams, "first component sign"))
    report(5, "decay-orbit property suite (1000 triples)", not failures,
           f"{len(failures)} failures")


def test_criterion_06_return_map_homogeneity():
    rng = np.random.default_rng(61)
    checked = 0
    worst = 0.0
    while checked < 20:
        params = random_valid_params(rng)
        base = first_return(params, -1.0)
        if not base.defined:
            continue
        for nu in (0.5, 1.0, 2.0, 10.0):
            out = first_return(params, -nu)
            worst = max(worst, abs(out.zeta / nu - base.zeta)
                        / abs(base.zeta))
        checked += 1
    report(6, "return map is linear (20 samples, nu in {0.5,1,2,10})",
           worst <= 1e-9, f"worst relative deviation {worst:.2e}")


def test_criterion_07_time_scaling_invariance():
    # fixed eigenvalue data at three time scales, through the chain the
    # CLI runs: local data -> trichotomy -> (a, b, c, d) -> Lambda
    rng = np.random.default_rng(71)
    checked = 0
    worst_params = worst = 0.0
    while checked < 10:
        alpha = rng.uniform(-0.8, 0.8)
        beta = rng.uniform(0.5, 3.0)
        c = rng.uniform(-1.5, 1.5)
        d = rng.uniform(c * c / 4 + 0.05, c * c / 4 + 4.0) if c > 0 \
            else rng.uniform(0.05, 4.0)
        rot = alpha * alpha + beta * beta
        # companion matrix with eigenvalues -1 and alpha +/- i*beta
        A = companion_matrix(2 * alpha - 1, rot - 2 * alpha, -rot)
        want = (2 * alpha, rot, c, d)
        results = []
        for gamma in (0.3, 1.0, 3.7):
            verdict = classify_equilibrium(fp.BoundaryData.from_local_data(
                (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (-1.0, c, -d), gamma * A))
            assert isinstance(verdict, Rotational)
            hp = verdict.params
            for got, w in zip((hp.a, hp.b, hp.c, hp.d), want):
                worst_params = max(worst_params,
                                   abs(got - w) / max(1.0, abs(w)))
            results.append(return_multiplier(hp))
        assert all(r.status is results[1].status for r in results)
        if results[1].status is not LambdaStatus.DEFINED:
            continue
        ref = results[1].value
        for r in results:
            worst = max(worst, abs(r.value - ref) / max(1.0, ref))
        checked += 1
    report(7, "(a, b, c, d) and multiplier invariant under time scaling "
              "(10 samples)", worst_params <= 1e-12 and worst <= 1e-8,
           f"worst parameter deviation {worst_params:.2e}, worst relative "
           f"multiplier deviation {worst:.2e}")


def test_criterion_08_trichotomy_with_simulation():
    # (a) a positive eigenvalue settles instability
    bd_a = fp.BoundaryData.from_local_data(
        (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (-1.0, 0.3, -0.5),
        companion_from_eigs((1.0, -1.0, -2.0)))
    verdict_a = classify_equilibrium(bd_a)
    ok_a = isinstance(verdict_a, UnstableEigenvalue)

    # (b) three distinct negative eigenvalues, sliding pair negative:
    # stable without a return map, and the simulator agrees
    system_b = fp.FilippovSystem.parse(
        ("-6*x1 + x2", "-11*x1 + x3", "-6*x1"), ("-1", "-3", "-2"), "x1")
    verdict_b = classify_equilibrium(fp.boundary_data(system_b, (0, 0, 0)))
    ok_b = isinstance(verdict_b, StableNode)
    rng = np.random.default_rng(99)
    cfg = SimConfig(dt=2e-3, t_max=120.0)
    for _ in range(20):
        orbit = simulate(system_b, rng.uniform(-0.1, 0.1, size=3), cfg)
        ok_b = ok_b and orbit.terminal is fp.Terminal.CONVERGED

    # (c) the stable rotational point, realized as a Filippov system,
    # spirals down to the norm floor
    system_c = fp.FilippovSystem.parse(
        ("-0.8*x1 + x2", "-4.8*x1 + x3", "-5*x1"), ("-1", "0.2", "-1"), "x1")
    verdict_c = classify_equilibrium(fp.boundary_data(system_c, (0, 0, 0)))
    ok_c = isinstance(verdict_c, Rotational)
    orbit_c = simulate(system_c, (0.0, 0.0, -1.0),
                       SimConfig(dt=2e-3, t_max=500.0))
    ok_c = ok_c and orbit_c.terminal is fp.Terminal.CONVERGED
    t_end = orbit_c.segments[-1].samples[-1][0]
    ok_c = ok_c and t_end <= 500.0

    report(8, "trichotomy with simulator confirmation",
           ok_a and ok_b and ok_c,
           f"unstable-eig {ok_a}, stable-node orbits {ok_b}, "
           f"rotational decay at t = {t_end:.1f} {ok_c}")


def _jacobian_corpus():
    rng = np.random.default_rng(7)
    systems = []
    for (tau, sig, delt, ts, ds) in [(-0.8, 4.8, -5.0, 0.2, 1.0),
                                     (-1.2, 5.2, -3.0, -0.2, 3.0),
                                     (-6.0, 11.0, -6.0, -3.0, 2.0)]:
        systems.append(fp.FilippovSystem.parse(
            (f"{tau}*x1 + x2", f"{-sig}*x1 + x3", f"{delt}*x1"),
            ("-1", f"{ts}", f"{-ds}"), "x1"))
    for _ in range(7):
        tau = rng.uniform(-2, 0)
        sig = rng.uniform(3, 6)
        delt = rng.uniform(-6, -2)
        ts = rng.uniform(-3, 0.3)
        ds = rng.uniform(0.5, 4)
        q2 = rng.uniform(-0.5, 0.5, size=6).round(3)
        systems.append(fp.FilippovSystem.parse(
            (f"{tau}*x1 + x2 + {q2[0]}*x1^2 + {q2[1]}*x2*x3",
             f"{-sig}*x1 + x3 + {q2[2]}*x2^2",
             f"{delt}*x1 + {q2[3]}*x1*x2"),
            (f"-1 + {q2[4]}*x2", f"{ts} + {q2[5]}*x3^2", f"{-ds}"),
            f"x1 + {q2[0]}*x2^2 + {q2[1]}*x3^2"))
    return systems


def test_criterion_09_sliding_jacobian_identity():
    worst = 0.0
    for system in _jacobian_corpus():
        bd = fp.boundary_data(system, (0, 0, 0))
        jac = jacobian_fd(lambda x: fp.sliding_field(system, x),
                          np.zeros(3))
        scale = max(1.0, float(np.max(np.abs(bd.B))))
        worst = max(worst, float(np.max(np.abs(jac - bd.B))) / scale)
    report(9, "sliding Jacobian equals projector formula (10 systems)",
           worst <= 1e-5, f"worst relative deviation {worst:.2e}")


def test_criterion_10_parameter_plane_panels():
    start = time.perf_counter()
    grids = {}
    for a in (-1.2, -0.2, 0.2, 1.2):
        for b in (0.5, 2.0, 5.0):
            grids[(a, b)] = sweep(a, b, (-3.0, 3.0), (0.0, 10.0), 40, 40)
    elapsed = time.perf_counter() - start

    ok = elapsed < 30.0
    for (a, b), grid in grids.items():
        cs = cell_centers(-3.0, 3.0, 40)
        ds = cell_centers(0.0, 10.0, 40)
        for i, c in enumerate(cs):
            for j, d in enumerate(ds):
                want_white = d <= 0 or (c > 0 and d < c * c / 4)
                ok = ok and ((grid.verdicts[i][j] is CellVerdict.WHITE)
                             == want_white)

    def cell_verdict(grid, c, d):
        i = min(int((c - grid.c_min) / (grid.c_max - grid.c_min) * grid.nc),
                grid.nc - 1)
        j = min(int((d - grid.d_min) / (grid.d_max - grid.d_min) * grid.nd),
                grid.nd - 1)
        return grid.verdicts[i][j]

    ok = ok and cell_verdict(grids[(0.2, 5.0)], 0.2, 1.0) is CellVerdict.BLUE
    ok = ok and cell_verdict(grids[(-0.2, 0.5)], -0.5, 8.0) is CellVerdict.RED
    report(10, "twelve 40x40 panels, white region exact, known colors",
           ok, f"{elapsed:.1f}s for 12 panels")


def test_criterion_11_event_pipeline_convergence(defined_sample):
    # every defined multiplier against the 50-digit reference (expm, with
    # each event the root next to the package's)
    worst = 0.0
    for params, closed_value in defined_sample:
        out = first_return(params, -1.0)
        ref = return_reference(params, *(ev.t_hit for ev in out.events))
        worst = max(worst, abs(closed_value - ref) / ref)
    ok = worst <= max(1e-13, REFERENCE_RTOL)
    report(11, "defined multipliers match the high-precision reference", ok,
           f"worst relative error {worst:.2e}")
