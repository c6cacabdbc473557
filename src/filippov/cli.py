"""Command-line front end.

Exit codes: 0 on success, 1 when a computation reports a degenerate or
not-applicable outcome (or a data file is invalid), 2 on usage errors.
Computation failures also emit one machine-readable line on stderr of
the form ``error: <kind>: <message>``.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import time

from . import __version__
from .core import boundary_data, load_system_spec
from .errors import FilippovError
from .hybrid import HybridParams, LambdaResult, return_multiplier
from .simulate import (
    SimConfig,
    export_orbit,
    simulate,
    simulate_hybrid,
)
from .stability import (
    Degenerate,
    Rotational,
    StableNode,
    UnstableEigenvalue,
    UnstableRightward,
    classify_equilibrium,
)
from .sweep import render_grid, sweep

FIG_PANEL_A = (-1.2, -0.2, 0.2, 1.2)
FIG_PANEL_B = (0.5, 2.0, 5.0)


def _slug(exc: Exception) -> str:
    name = type(exc).__name__
    name = name.removesuffix("Error")
    return re.sub(r"(?<!^)(?=[A-Z])", "-", name).lower()


def _fail(exc: Exception) -> int:
    print(f"error: {_slug(exc)}: {exc}", file=sys.stderr)
    return 1


def _usage(message: str) -> int:
    print(f"error: usage: {message}", file=sys.stderr)
    return 2


def _verdict_line(result: LambdaResult) -> str:
    if result.stable is None:
        return "marginal (multiplier at 1; no stability conclusion)"
    return "asymptotically stable" if result.stable else "unstable"


def _print_lambda(result: LambdaResult) -> None:
    print(f"status: {result.status.value}")
    if result.value in (0.0, math.inf):  # beyond the float range
        print(f"log_lambda: {result.log_value!r}")
    elif result.value is not None:
        print(f"lambda: {result.value!r}")
    if result.detail:
        print(f"detail: {result.detail}")
    print(f"verdict: {_verdict_line(result)}")


def cmd_lambda(args) -> int:
    try:
        params = HybridParams(args.a, args.b, args.c, args.d)
        result = return_multiplier(params)
    except FilippovError as exc:
        return _fail(exc)
    _print_lambda(result)
    return 0


def cmd_classify(args) -> int:
    try:
        spec = load_system_spec(args.system)
        bd = boundary_data(spec.system, spec.x_star)
    except (FilippovError, OSError) as exc:
        return _fail(exc)
    print(f"x_star: {list(bd.x_star)}")
    print(f"p: {bd.p.tolist()}")
    print(f"q: {bd.q.tolist()}")
    print(f"p.q: {bd.ptq!r}")
    print(f"det_phi: {bd.det_phi!r}")
    verdict = classify_equilibrium(bd)
    if isinstance(verdict, UnstableRightward):
        print("case: right field directed away from the surface")
        print("stability: unstable")
        return 0
    if isinstance(verdict, UnstableEigenvalue):
        print(f"case: positive eigenvalue {verdict.eigenvalue!r} of the "
              f"{verdict.matrix} Jacobian")
        print("stability: unstable")
        return 0
    if isinstance(verdict, StableNode):
        print(f"case: non-rotational, left eigenvalues {verdict.left_eigs}")
        print("stability: asymptotically stable")
        return 0
    if isinstance(verdict, Degenerate):
        print(f"case: degenerate ({verdict.reason})")
        print("stability: undecided")
        print(f"error: degenerate: {verdict.reason}", file=sys.stderr)
        return 1
    assert isinstance(verdict, Rotational)
    p = verdict.params
    print(f"case: rotational, alpha={verdict.alpha!r} beta={verdict.beta!r} "
          f"gamma={verdict.gamma!r}")
    print(f"hybrid params: a={p.a!r} b={p.b!r} c={p.c!r} d={p.d!r}")
    try:
        result = return_multiplier(p)
    except FilippovError as exc:
        return _fail(exc)
    _print_lambda(result)
    return 0


def _parse_range(text: str) -> tuple[float, float]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError("range must look like LO:HI")
    try:
        return float(lo), float(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def cmd_sweep(args) -> int:
    try:
        grid = sweep(args.a, args.b, args.c_range, args.d_range,
                     args.nc, args.nd)
        render_grid(grid, args.out, args.format)
    except (FilippovError, OSError, ValueError) as exc:
        return _fail(exc)
    print(f"wrote {args.out}")
    return 0


def cmd_orbit(args) -> int:
    try:
        params = HybridParams(args.a, args.b, args.c, args.d)
        cfg = SimConfig(dt=args.dt, t_max=args.t_max)
        orbit = simulate_hybrid(params, args.z0, cfg)
        export_orbit(orbit, args.out)
    except (FilippovError, OSError, ValueError) as exc:
        return _fail(exc)
    print(f"wrote {args.out} (terminal: {orbit.terminal.value})")
    return 0


def cmd_orbit_system(args) -> int:
    try:
        x0 = [float(v) for v in args.x0.split(",")]
    except ValueError:
        return _usage("--x0 must be three comma-separated numbers")
    if len(x0) != 3:
        return _usage("--x0 must have exactly three components")
    try:
        spec = load_system_spec(args.system)
        cfg = SimConfig(dt=args.dt, t_max=args.t_max)
        orbit = simulate(spec.system, x0, cfg, spec.x_star)
        export_orbit(orbit, args.out)
    except (FilippovError, OSError, ValueError) as exc:
        return _fail(exc)
    print(f"wrote {args.out} (terminal: {orbit.terminal.value})")
    return 0


def cmd_fig_c(args) -> int:
    start = time.perf_counter()
    try:
        os.makedirs(args.out, exist_ok=True)
        for a in FIG_PANEL_A:
            for b in FIG_PANEL_B:
                grid = sweep(a, b, args.c_range, args.d_range, args.nc,
                             args.nd)
                stem = os.path.join(args.out, f"sweep_a{a:g}_b{b:g}")
                if args.format in ("csv", "both"):
                    render_grid(grid, stem + ".csv", "csv")
                if args.format in ("pgm", "both"):
                    render_grid(grid, stem + ".pgm", "pgm")
                print(f"panel a={a:g} b={b:g} done "
                      f"({time.perf_counter() - start:.1f}s elapsed)")
    except (FilippovError, OSError, ValueError) as exc:
        return _fail(exc)
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse, with each of its own usage errors as one ``error: usage:``
    line and exit code 2 (subcommand parsers inherit the class)."""

    def error(self, message):
        self.exit(_usage(message))


# "--x0 -0.02,0,-0.05", "--b -inf": a value with a leading minus, which
# argparse would read as an option unless it is joined to its option with
# "="; the non-finite spellings are those float() reads, in any case
_NEGATIVE_VALUE = re.compile(r"-(?:\.?\d|(?:inf|infinity|nan)$)", re.I)


def _join_negative_values(argv: list[str]) -> list[str]:
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1].startswith("--") and "=" not in joined[-1] \
                and _NEGATIVE_VALUE.match(arg):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="filippov",
        description="Stability of boundary equilibria of three-dimensional "
                    "Filippov systems")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lambda", help="return multiplier of the hybrid "
                                      "system for parameters (a, b, c, d)")
    for name in "abcd":
        p.add_argument(f"--{name}", type=float, required=True)
    p.set_defaults(func=cmd_lambda)

    p = sub.add_parser("classify", help="full stability chain for a system "
                                        "file")
    p.add_argument("--system", required=True, help="system spec JSON file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("sweep", help="classify a (c, d) grid for fixed "
                                     "(a, b)")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--c-range", type=_parse_range, required=True,
                   metavar="LO:HI")
    p.add_argument("--d-range", type=_parse_range, required=True,
                   metavar="LO:HI")
    p.add_argument("--nc", type=int, required=True)
    p.add_argument("--nd", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "pgm"), default="csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("orbit", help="export a hybrid-system orbit as CSV")
    for name in "abcd":
        p.add_argument(f"--{name}", type=float, required=True)
    p.add_argument("--z0", type=float, required=True,
                   help="start height on the return line (negative)")
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("orbit-system", help="simulate a system file and "
                                            "export the orbit as CSV")
    p.add_argument("--system", required=True)
    p.add_argument("--x0", required=True, metavar="X,Y,Z")
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_orbit_system)

    p = sub.add_parser("fig-c", help="sweep all twelve standard (a, b) "
                                     "panels")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--nc", type=int, default=200)
    p.add_argument("--nd", type=int, default=200)
    p.add_argument("--c-range", type=_parse_range, default=(-3.0, 3.0),
                   metavar="LO:HI")
    p.add_argument("--d-range", type=_parse_range, default=(0.0, 10.0),
                   metavar="LO:HI")
    p.add_argument("--format", choices=("csv", "pgm", "both"), default="both")
    p.set_defaults(func=cmd_fig_c)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_join_negative_values(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    if hasattr(args, "t_max"):  # orbit, orbit-system: SimConfig's rule
        try:
            SimConfig(dt=args.dt, t_max=args.t_max)
        except ValueError as exc:
            return _usage(f"--dt, --t-max: {exc}")
    z0 = getattr(args, "z0", -1.0)
    if not (math.isfinite(z0) and z0 < 0.0):
        return _usage("--z0 must be finite and negative")
    for name in ("nc", "nd"):  # grid sizes: below 2 is a usage error
        if getattr(args, name, 2) < 2:
            return _usage(f"--{name} must be at least 2")
    for name in ("c_range", "d_range"):
        lo, hi = getattr(args, name, (0.0, 1.0))
        # a finite width hi - lo needs finite ends as well
        if not (lo < hi and math.isfinite(hi - lo)):
            return _usage(f"--{name.replace('_', '-')} must be finite "
                          "with LO < HI and a finite width")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
