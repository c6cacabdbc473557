"""The four workloads: seeded inputs, one timed operation, correctness gates.

Input generation uses only numpy and the seed, so the package under test
sees nothing but the generated inputs.  Operations and gates call public,
default-configured functions, looked up on the submodules at call time so
that the tracer's wrappers (see ``spans.py``) see every call.

Each workload runs in complete passes over its inputs; a pass always has
the same composition, so per-run statistics do not depend on where the
clock happened to stop.
"""

from __future__ import annotations

import math
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

# Oracle settings of acceptance criterion 04: RK4 at dt = 1e-3.
ORACLE_DT = 1e-3
ORACLE_T_MAX = 600.0
# An undefined Lambda is an orbit that decays or grows without returning;
# the oracle follows it to its norm floor or ceiling, which at the slowest
# rates the draws allow (about 0.025) takes longer than ORACLE_T_MAX.
ORACLE_T_MAX_UNDEFINED = 2000.0
ORACLE_RTOL = 1e-6
# Closeness to 1 within which a colour comparison is not meaningful.
MARGINAL_SKIP = 1e-6
# (a, b, c, d) recovered by ``classify`` must match the constructed ones.
PARAM_RTOL = 1e-6

SLIDE_KINDS = ("complex", "real", "resonant")
BRANCHES = ("rotational", "stable_node", "unstable_rightward",
            "unstable_eigenvalue", "degenerate")
COLOURS = ("blue", "red", "white", "gray")


def _rng(seed: int, stream: int) -> np.random.Generator:
    # one independent stream per workload, so workloads never share draws
    return np.random.default_rng([seed, stream])


def slide_kind(c: float, d: float) -> str:
    """Eigenstructure of the sliding block [[c, 1], [-d, 0]], with the
    tolerance the package uses to call it resonant."""
    disc = c * c - 4.0 * d
    tol = 1e-12 * max(1.0, c * c + 4.0 * abs(d))
    if disc < -tol:
        return "complex"
    if disc > tol:
        return "real"
    return "resonant"


def draw_valid_params(rng) -> tuple[float, float, float, float]:
    """(a, b, c, d) drawn as the test suite's ``random_valid_params``."""
    a = rng.uniform(-1.5, 1.5)
    b = rng.uniform(a * a / 4 + 0.1, a * a / 4 + 6.0)
    c = rng.uniform(-2.0, 2.0)
    if c > 0:
        d = rng.uniform(c * c / 4 + 0.05, c * c / 4 + 5.0)
    else:
        d = rng.uniform(0.05, 5.0)
    return float(a), float(b), float(c), float(d)


def resonant(c: float) -> tuple[float, float]:
    """A resonant sliding block, c < 0 and d = c^2/4 exactly, made from a
    drawn c in (-2, 2).  |c| is mapped onto (sqrt(0.2), 2) so that d stays
    at or above the draws' lower bound of 0.05: a smaller d makes a slide
    that outlasts the oracle's t_max."""
    c = -(math.sqrt(0.2) + abs(c) * (2.0 - math.sqrt(0.2)) / 2.0)
    return c, c * c / 4.0


def colour_of(result) -> str:
    """Sweep colour of a LambdaResult: blue stable, red unstable, gray
    marginal (mirrors the documented sweep legend)."""
    status = result.status.value
    if status == "defined":
        return "blue" if result.value < 1.0 else "red"
    if status == "undefined-converged":
        return "blue"
    if status == "undefined-diverged":
        return "red"
    return "gray"


def _shares(values: list, keys) -> dict:
    n = max(1, len(values))
    return {k: values.count(k) / n for k in keys}


def _poly(terms) -> str:
    return " + ".join(terms)


def _coef(rng, size, scale):
    return [float(v) for v in rng.uniform(-scale, scale, size=size)]


def system_dict(tau, sigma, delta, q, k) -> dict:
    """A system spec whose left field has linear part
    companion(tau, sigma, delta) plus quadratic terms, whose right field
    takes the value q at the origin, and whose switching surface is a
    curved graph over x1 = 0 through the origin with normal (1, 0, 0)."""
    return {
        "fL": [_poly([f"{tau!r}*x1", "x2", f"{k[0]!r}*x1^2",
                      f"{k[1]!r}*x2*x3"]),
               _poly([f"{-sigma!r}*x1", "x3", f"{k[2]!r}*x2^2",
                      f"{k[3]!r}*x1*x3"]),
               _poly([f"{delta!r}*x1", f"{k[4]!r}*x1*x2",
                      f"{k[5]!r}*x3^2"])],
        "fR": [_poly([f"{q[0]!r}", f"{k[6]!r}*x2"]),
               _poly([f"{q[1]!r}", f"{k[7]!r}*x3^2"]),
               _poly([f"{q[2]!r}", f"{k[8]!r}*x1*x2"])],
        "H": _poly(["x1", f"{k[9]!r}*x2^2", f"{k[10]!r}*x3^2",
                    f"{k[11]!r}*x2*x3"]),
        "x_star": [0.0, 0.0, 0.0],
    }


def companion_of_roots(r1: complex, r2: complex, r3: complex):
    """(tau, sigma, delta) with det(lambda I - A) = lambda^3 - tau lambda^2
    + sigma lambda - delta for A = companion(tau, sigma, delta)."""
    tau = (r1 + r2 + r3).real
    sigma = (r1 * r2 + r1 * r3 + r2 * r3).real
    delta = (r1 * r2 * r3).real
    return float(tau), float(sigma), float(delta)


def _rotational_roots(a, b, gamma):
    alpha = a * gamma / 2.0
    beta = gamma * math.sqrt(4.0 * b - a * a) / 2.0
    return complex(alpha, beta), complex(alpha, -beta)


class Workload:
    """One workload: ``items`` is the list a pass runs through in order."""

    name = ""
    item = ""      # the unit counted by items_per_s
    op = ""        # the unit timed by op_ms.*
    tail_p99 = False  # also print a p99 (needs 1000 inputs, ten beyond it)

    def __init__(self, seed: int):
        self.seed = seed
        self.items = self.generate(seed)

    # -- to implement -------------------------------------------------
    def generate(self, seed: int) -> list:
        raise NotImplementedError

    def bind(self, fp, workdir: Path) -> None:
        """Attach the imported package and a temporary directory."""
        self.fp = fp
        self.workdir = workdir

    def run(self, x):
        """Run one operation; returns (work items done, outcome)."""
        raise NotImplementedError

    def warm_up(self) -> None:
        self.run(self.items[0])

    def failed(self, outcome) -> bool:
        """An operation that came back failed or gray (exceptions are
        counted by the caller)."""
        return False

    def check(self, outcomes: list) -> tuple[int, list[str], dict]:
        """Correctness gate on one pass: (checks made, mismatches, layer
        figures measured by the gate)."""
        raise NotImplementedError

    def mix(self, outcomes: list) -> dict:
        raise NotImplementedError

    def layer_figures(self, outcomes: list, tracer) -> dict:
        """Workload-specific per-layer metrics of one traced pass."""
        return {}


def _oracle_check(fp, params, value, colour, mismatches: list,
                  cost: list) -> None:
    """Compare a closed-form outcome (its colour, and its Lambda or None
    when undefined) with the simulation oracle.  Appends mismatch strings
    to ``mismatches`` and (seconds, steps) of the oracle to ``cost``."""
    hp = fp.hybrid.HybridParams(*params)
    t_max = ORACLE_T_MAX if value is not None else ORACLE_T_MAX_UNDEFINED
    cfg = fp.simulate.SimConfig(dt=ORACLE_DT, t_max=t_max)
    t0 = perf_counter()
    try:
        emp = fp.simulate.return_multiplier_empirical(hp, cfg)
    except fp.errors.FilippovError as exc:
        mismatches.append(f"{params}: oracle failed: {exc}")
        return
    elapsed = perf_counter() - t0
    if value is None:
        if colour != colour_of(emp):
            mismatches.append(f"{params}: undefined {colour} vs oracle "
                              f"{colour_of(emp)}")
        return
    out = fp.hybrid.first_return(hp, -1.0)
    cost.append((elapsed, sum(ev.t_hit for ev in out.events) / ORACLE_DT))
    if abs(value - 1.0) <= MARGINAL_SKIP:
        return
    if colour != colour_of(emp):
        mismatches.append(f"{params}: lambda {value!r} ({colour}) vs oracle "
                          f"{emp}")
    # an oracle orbit that fell below its norm floor before returning
    # (a tiny Lambda) has no value to compare; its colour agreed
    elif emp.defined and abs(emp.value - value) / max(1.0, value) \
            > ORACLE_RTOL:
        mismatches.append(f"{params}: lambda {value!r} vs oracle "
                          f"{emp.value!r}")


def _oracle_figures(cost: list) -> dict:
    seconds = sum(c[0] for c in cost)
    steps = sum(c[1] for c in cost)
    return {"simulate.hybrid_us_per_step":
            seconds / steps * 1e6 if steps else 0.0}


def _slide_figures(tracer, op_kind: dict) -> dict:
    """Per slide kind, the return_multiplier time not spent in the regular
    segment: the sliding segment plus composing the return."""
    total = tracer.per_op("hybrid.return_multiplier")
    regular = tracer.per_op("hybrid.first_hit_plane")
    by_kind = {k: [] for k in SLIDE_KINDS}
    for op, dur in total.items():
        if op in op_kind:
            by_kind[op_kind[op]].append(dur - regular.get(op, 0.0))
    return {f"hybrid.slide_us.{k}": (statistics.fmean(v) * 1e6 if v else 0.0)
            for k, v in by_kind.items()}


def _rotations(fp, params_list) -> float:
    """Mean number of rotations of the regular piece before it first hits
    the switching plane from (0, 0, -1): an input property."""
    turns = []
    for a, b, c, d in params_list:
        ev = fp.hybrid.first_hit_plane(fp.hybrid.HybridParams(a, b, c, d),
                                       (0.0, 0.0, -1.0))
        if hasattr(ev, "t_hit"):
            beta = math.sqrt(4.0 * b - a * a) / 2.0
            turns.append(ev.t_hit * beta / (2.0 * math.pi))
    return statistics.fmean(turns) if turns else 0.0


# ---------------------------------------------------------------------------
# lambda: return_multiplier on a corpus of random valid (a, b, c, d)
# ---------------------------------------------------------------------------

class LambdaWorkload(Workload):
    name = "lambda"
    item = "lambda"
    op = "lambda"
    tail_p99 = True
    CORPUS = 1000
    # resonant sliding blocks have measure zero under random draws, so
    # every RESONANT_EVERY-th entry is made resonant
    RESONANT_EVERY = 25
    ORACLE_DEFINED = 40
    ORACLE_UNDEFINED = 2

    def generate(self, seed):
        rng = _rng(seed, 1)
        corpus = []
        for i in range(self.CORPUS):
            a, b, c, d = draw_valid_params(rng)
            if i % self.RESONANT_EVERY == 0:
                c, d = resonant(c)
            corpus.append((a, b, c, d))
        order = rng.permutation(len(corpus))
        return [corpus[i] for i in order]

    def run(self, x):
        hyb = self.fp.hybrid
        return 1, hyb.return_multiplier(hyb.HybridParams(*x))

    def failed(self, outcome):
        return colour_of(outcome) == "gray"

    def check(self, outcomes):
        rng = _rng(self.seed, 101)
        defined = [i for i, r in enumerate(outcomes) if r.defined]
        undefined = [i for i, r in enumerate(outcomes) if not r.defined]
        picks = list(rng.choice(defined, size=min(self.ORACLE_DEFINED,
                                                  len(defined)),
                                replace=False))
        if undefined:
            picks += list(rng.choice(undefined,
                                     size=min(self.ORACLE_UNDEFINED,
                                              len(undefined)),
                                     replace=False))
        mismatches, cost = [], []
        for i in picks:
            result = outcomes[i]
            _oracle_check(self.fp, self.items[i], result.value,
                          colour_of(result), mismatches, cost)
        return len(picks), mismatches, _oracle_figures(cost)

    def mix(self, outcomes):
        kinds = [slide_kind(x[2], x[3]) for x in self.items]
        return {
            "inputs": len(self.items),
            "slide_kind_share": _shares(kinds, SLIDE_KINDS),
            "colour_share": _shares([colour_of(r) for r in outcomes],
                                    COLOURS),
            "undefined_share": sum(not r.defined for r in outcomes)
            / len(outcomes),
        }

    def layer_figures(self, outcomes, tracer):
        op_kind = {i: slide_kind(x[2], x[3]) for i, x in enumerate(self.items)}
        figures = _slide_figures(tracer, op_kind)
        figures["hybrid.regular_rotations"] = _rotations(self.fp, self.items)
        figures["hybrid.undefined_frac"] = (
            sum(not r.defined for r in outcomes) / len(outcomes))
        return figures


# ---------------------------------------------------------------------------
# classify: system spec -> boundary data -> trichotomy (-> Lambda)
# ---------------------------------------------------------------------------

class ClassifyWorkload(Workload):
    name = "classify"
    item = "system"
    op = "classify"
    CORPUS = 300
    # fixed branch quotas: mostly rotational, every other branch present
    QUOTA = {"rotational": 0.72, "stable_node": 0.07,
             "unstable_rightward": 0.07, "unstable_eigenvalue": 0.07,
             "degenerate": 0.07}

    def generate(self, seed):
        rng = _rng(seed, 2)
        plan = []
        for branch, share in self.QUOTA.items():
            plan += [branch] * round(share * self.CORPUS)
        items = [self._make(rng, branch, n) for n, branch in enumerate(plan)]
        order = rng.permutation(len(items))
        return [items[i] for i in order]

    @staticmethod
    def _make(rng, branch, n):
        """(spec dict, expected branch, expected (a, b, c, d) or None)."""
        a, b, c, d = draw_valid_params(rng)
        if branch == "rotational" and n % LambdaWorkload.RESONANT_EVERY == 0:
            c, d = resonant(c)
        variant = n % 2
        gamma = float(rng.uniform(0.5, 2.0))
        k = _coef(rng, 12, 0.5)
        p1, p2 = _rotational_roots(a, b, gamma)
        real = -gamma
        ts, ds = c * gamma, d * gamma * gamma
        q0 = -1.0
        expected = None
        if branch == "rotational":
            expected = (a, b, c, d)
        elif branch == "stable_node":
            mags = sorted(10.0 ** rng.uniform(-0.5, 0.5, size=3))
            while min(mags[1] / mags[0], mags[2] / mags[1]) < 1.2:
                mags = sorted(10.0 ** rng.uniform(-0.5, 0.5, size=3))
            p1, p2, real = (complex(-m) for m in mags)
        elif branch == "unstable_rightward":
            q0 = 1.0
        elif branch == "unstable_eigenvalue":
            if variant:
                real = gamma  # positive real eigenvalue of A
            else:
                ds = -ds      # real sliding pair with a positive root
        elif variant:  # degenerate: a repeated real eigenvalue of A
            p2 = complex(real)
            p1 = complex(real * float(rng.uniform(1.5, 3.0)))
        else:  # degenerate: a zero eigenvalue in the sliding pair
            ds = 0.0
            ts = -abs(ts) - 0.1
        tau, sigma, delta = companion_of_roots(p1, p2, complex(real))
        spec = system_dict(tau, sigma, delta, (q0, ts, -ds), k)
        return spec, branch, expected

    _BRANCH_OF = {"Rotational": "rotational", "StableNode": "stable_node",
                  "UnstableRightward": "unstable_rightward",
                  "UnstableEigenvalue": "unstable_eigenvalue",
                  "Degenerate": "degenerate"}

    def run(self, x):
        fp = self.fp
        spec = fp.core.system_spec_from_dict(x[0])
        bd = fp.core.boundary_data(spec.system, spec.x_star)
        verdict = fp.stability.classify_equilibrium(bd)
        lam = None
        if isinstance(verdict, fp.stability.Rotational):
            lam = fp.hybrid.return_multiplier(verdict.params)
        return 1, (verdict, lam)

    def failed(self, outcome):
        return outcome[1] is not None and colour_of(outcome[1]) == "gray"

    def check(self, outcomes):
        mismatches = []
        for (_, branch, expected), (verdict, _) in zip(self.items, outcomes):
            got = self._BRANCH_OF[type(verdict).__name__]
            if got != branch:
                mismatches.append(f"expected {branch}, got {verdict}")
                continue
            if expected is not None:
                p = verdict.params
                for want, have in zip(expected, (p.a, p.b, p.c, p.d)):
                    if abs(want - have) > PARAM_RTOL * max(1.0, abs(want)):
                        mismatches.append(f"expected params {expected}, "
                                          f"got {p}")
                        break
        return len(outcomes), mismatches, {}

    def _rotational(self):
        return [x[2] for x in self.items if x[2] is not None]

    def mix(self, outcomes):
        branches = [x[1] for x in self.items]
        kinds = [slide_kind(p[2], p[3]) for p in self._rotational()]
        lams = [lam for _, lam in outcomes if lam is not None]
        return {
            "inputs": len(self.items),
            "branch_share": _shares(branches, BRANCHES),
            "slide_kind_share": _shares(kinds, SLIDE_KINDS),
            "colour_share": _shares([colour_of(r) for r in lams], COLOURS),
        }

    def layer_figures(self, outcomes, tracer):
        op_kind = {i: slide_kind(x[2][2], x[2][3])
                   for i, x in enumerate(self.items) if x[2] is not None}
        figures = _slide_figures(tracer, op_kind)
        figures["hybrid.regular_rotations"] = _rotations(self.fp,
                                                         self._rotational())
        lams = [lam for _, lam in outcomes if lam is not None]
        figures["hybrid.undefined_frac"] = (
            sum(not r.defined for r in lams) / max(1, len(lams)))
        figures["expr.field_evals_per_system"] = (
            tracer.count("expr.eval") / len(self.items))
        for branch in BRANCHES:
            figures[f"stability.branch.{branch}"] = sum(
                self._BRANCH_OF[type(v).__name__] == branch
                for v, _ in outcomes)
        return figures


# ---------------------------------------------------------------------------
# fig-c: sweep + render_grid over the twelve standard (a, b) panels
# ---------------------------------------------------------------------------

# the (a, b) panels and window of `filippov fig-c`
PANEL_A = (-1.2, -0.2, 0.2, 1.2)
PANEL_B = (0.5, 2.0, 5.0)
C_RANGE = (-3.0, 3.0)
D_RANGE = (0.0, 10.0)
PGM_LEVEL = {"white": 255, "blue": 64, "red": 160, "gray": 128}


class FigCWorkload(Workload):
    name = "fig-c"
    item = "cell"
    op = "panel"
    NC = ND = 20
    ORACLE_CELLS = 24

    def generate(self, seed):
        # the default window, shifted by a seeded fraction of one cell so
        # every seed evaluates new cell centres over the same region
        rng = _rng(seed, 3)
        sc, sd = (float(v) for v in rng.uniform(-0.25, 0.25, size=2))
        dc = sc * (C_RANGE[1] - C_RANGE[0]) / self.NC
        dd = sd * (D_RANGE[1] - D_RANGE[0]) / self.ND
        c_range = (C_RANGE[0] + dc, C_RANGE[1] + dc)
        d_range = (D_RANGE[0] + dd, D_RANGE[1] + dd)
        panels = [(a, b) for a in PANEL_A for b in PANEL_B]
        return [(k, a, b, c_range, d_range) for k, (a, b) in enumerate(panels)]

    def _paths(self, k):
        stem = self.workdir / f"panel{k:02d}"
        return stem.with_suffix(".csv"), stem.with_suffix(".pgm")

    def run(self, x):
        k, a, b, c_range, d_range = x
        sw = self.fp.sweep
        grid = sw.sweep(a, b, c_range, d_range, self.NC, self.ND)
        csv_path, pgm_path = self._paths(k)
        sw.render_grid(grid, csv_path, "csv")
        sw.render_grid(grid, pgm_path, "pgm")
        return self.NC * self.ND, grid

    @staticmethod
    def _colours(grid):
        return [v.value for col in grid.verdicts for v in col]

    def failed(self, outcome):
        return "gray" in self._colours(outcome)

    def check(self, outcomes):
        mismatches = []
        cells = []
        for x, grid in zip(self.items, outcomes):
            mismatches += self._read_back(x[0], grid, cells)
        rng = _rng(self.seed, 103)
        numeric = [cell for cell in cells
                   if cell[4] in ("blue", "red") and _is_number(cell[5])]
        picks = rng.choice(len(numeric), size=min(self.ORACLE_CELLS,
                                                  len(numeric)),
                           replace=False)
        cost = []
        for i in picks:
            a, b, c, d, colour, detail = numeric[i]
            _oracle_check(self.fp, (a, b, c, d), float(detail), colour,
                          mismatches, cost)
        checks = 2 * len(outcomes) + len(picks)
        return checks, mismatches, _oracle_figures(cost)

    def _read_back(self, k, grid, cells) -> list[str]:
        """The CSV and PGM on disk must give back the grid's verdicts;
        collects (a, b, c, d, colour, detail) of every CSV row."""
        csv_path, pgm_path = self._paths(k)
        want = [[v.value for v in col] for col in grid.verdicts]
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        problems = []
        if lines[0] != "c,d,verdict,lambda_or_reason":
            problems.append(f"panel {k}: bad CSV header {lines[0]!r}")
        rows = [line.split(",") for line in lines[1:]]
        if [r[2] for r in rows] != [v for col in want for v in col]:
            problems.append(f"panel {k}: CSV verdicts differ from the grid")
        cells += [(grid.a, grid.b, float(r[0]), float(r[1]), r[2], r[3])
                  for r in rows]
        pgm = pgm_path.read_text(encoding="utf-8").split("\n")
        levels = [[int(v) for v in line.split()]
                  for line in pgm[4:] if line]
        expect = [[PGM_LEVEL[want[i][j]] for i in range(grid.nc)]
                  for j in range(grid.nd - 1, -1, -1)]
        if pgm[0] != "P2" or pgm[2] != f"{grid.nc} {grid.nd}" \
                or levels != expect:
            problems.append(f"panel {k}: PGM differs from the grid")
        return problems

    def mix(self, outcomes):
        colours = [c for g in outcomes for c in self._colours(g)]
        return {"panels": len(self.items), "cells_per_panel": self.NC * self.ND,
                "c_range": self.items[0][3], "d_range": self.items[0][4],
                "colour_share": _shares(colours, COLOURS)}

    def layer_figures(self, outcomes, tracer):
        cells = self.NC * self.ND * tracer.count("sweep.sweep")
        figures = {
            "sweep.cell_us": tracer.total("sweep.sweep") / max(1, cells) * 1e6,
            "sweep.render_ms": tracer.total("sweep.render_grid")
            / max(1, tracer.count("sweep.sweep")) * 1e3,
        }
        colours = [c for g in outcomes for c in self._colours(g)]
        for colour in COLOURS:
            figures[f"sweep.verdict.{colour}"] = colours.count(colour)
        details = [d for g in outcomes for col in g.details for d in col]
        applicable = [d for d in details if d != "not-applicable"]
        figures["hybrid.undefined_frac"] = (
            sum(d in ("converged", "diverged") for d in applicable)
            / max(1, len(applicable)))
        return figures


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------------------
# orbit: general simulate on nonlinear rotational systems
# ---------------------------------------------------------------------------

# (a, b, c, d) of the linear parts with their return multipliers: two
# stable (fig. 2 and fig. 5a of the paper's examples) and two unstable
ORBIT_SYSTEMS = ((-0.2, 5.0, -0.2, 3.0), (0.2, 5.0, 0.2, 1.0),
                 (0.4, 5.0, -0.5, 6.0), (0.2, 2.0, -0.5, 4.0))
# At this dt one orbit takes about 0.08 s.  The fastest run of a short
# operation is less often caught by a slow stretch of the machine: over
# eight interleaved pairs of 20 s runs, the spreads were 0.09-0.11 at
# dt = 2e-2 and 0.32-0.33 at dt = 5e-3 (0.3 s orbits).  RK4 stays
# accurate, since |eigenvalue| * dt < 0.06 for these systems: the
# measured rate per return agrees with Lambda as closely as at dt = 5e-3,
# because the nonlinear terms set the difference, not the step.
ORBIT_DT = 2e-2
ORBIT_T_MAX = 14.0
ORBIT_WARM_T_MAX = 0.5


class OrbitWorkload(Workload):
    name = "orbit"
    item = "sample"
    op = "orbit"

    def generate(self, seed):
        rng = _rng(seed, 4)
        items = []
        for a, b, c, d in ORBIT_SYSTEMS:
            k = _coef(rng, 12, 0.3)
            p1, p2 = _rotational_roots(a, b, 1.0)
            tau, sigma, delta = companion_of_roots(p1, p2, complex(-1.0))
            spec = system_dict(tau, sigma, delta, (-1.0, c, -d), k)
            # start just inside H < 0 below the equilibrium
            r = float(rng.uniform(0.02, 0.05))
            x2 = float(rng.uniform(-0.1, 0.1)) * r
            x3 = -r
            x1 = -(k[9] * x2 * x2 + k[10] * x3 * x3 + k[11] * x2 * x3) \
                - float(rng.uniform(0.01, 0.1)) * r
            items.append((spec, (x1, x2, x3), (a, b, c, d)))
        return items

    def run(self, x, t_max=ORBIT_T_MAX):
        fp = self.fp
        spec = fp.core.system_spec_from_dict(x[0])
        orbit = fp.simulate.simulate(
            spec.system, x[1], fp.simulate.SimConfig(dt=ORBIT_DT, t_max=t_max))
        return _samples(orbit), orbit

    def warm_up(self):
        self.run(self.items[0], t_max=ORBIT_WARM_T_MAX)

    def _multipliers(self):
        hyb = self.fp.hybrid
        return [hyb.return_multiplier(hyb.HybridParams(*x[2])).value
                for x in self.items]

    def check(self, outcomes):
        mismatches = []
        for x, lam, orbit in zip(self.items, self._multipliers(), outcomes):
            exits = _slide_exits(orbit)
            if len(exits) < 3:
                mismatches.append(f"{x[2]}: only {len(exits)} slide exits")
            elif (exits[-1] < exits[1]) != (lam < 1.0):
                mismatches.append(f"{x[2]}: lambda {lam:.4f} but slide-exit "
                                  f"amplitude {exits[1]:.3e} -> "
                                  f"{exits[-1]:.3e}")
        return len(outcomes), mismatches, {}

    def mix(self, outcomes):
        samples = sum(_samples(o) for o in outcomes)
        rates = []
        for orbit in outcomes:
            exits = _slide_exits(orbit)
            if len(exits) >= 3:
                rates.append((exits[-1] / exits[1]) ** (1 / (len(exits) - 2)))
        return {"orbits": len(outcomes),
                "lambda": self._multipliers(),
                "measured_rate_per_return": rates,
                "slide_sample_share": _slide_samples(outcomes) / samples}

    def layer_figures(self, outcomes, tracer):
        samples = sum(_samples(o) for o in outcomes)
        return {
            "expr.field_evals_per_sample": tracer.count("expr.eval") / samples,
            "core.gradient_fd_calls_per_sample":
                tracer.count("expr.gradient_fd") / samples,
            "core.fold_curvature_calls":
                tracer.count("core.fold_curvature") / len(outcomes),
            "simulate.us_per_sample":
                tracer.total("simulate.simulate") / samples * 1e6,
            "simulate.slide_sample_frac": _slide_samples(outcomes) / samples,
            "simulate.segments_per_orbit":
                statistics.fmean(len(o.segments) for o in outcomes),
        }


def _samples(orbit) -> int:
    # consecutive segments share their junction sample
    return sum(len(s.samples) for s in orbit.segments) - len(orbit.segments) + 1


def _slide_samples(orbits) -> int:
    return sum(len(s.samples) - 1 for o in orbits for s in o.segments
               if s.regime == "S")


def _slide_exits(orbit) -> list[float]:
    """State norm at each exit from sliding into the left region."""
    segs = orbit.segments
    return [math.sqrt(sum(v * v for v in s.samples[-1][1:]))
            for s, nxt in zip(segs, segs[1:])
            if s.regime == "S" and nxt.regime == "L"]


WORKLOADS = {w.name: w for w in (FigCWorkload, LambdaWorkload,
                                 ClassifyWorkload, OrbitWorkload)}
