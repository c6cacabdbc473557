#!/usr/bin/env python3
"""Benchmark of the filippov stability pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload classify --seed 1 --seconds 40 --trace 0

Workloads: fig-c, lambda, classify, orbit (see README.md).  With
``--trace 0`` the run measures the end-to-end metrics with no tracing;
with ``--trace 1`` it alternates untraced and traced passes over the same
inputs and reports the per-layer metrics.  Every run checks its outputs.
Lines starting with ``#`` describe the run (environment, input mix,
metrics under their workload-specific names); the last line is one JSON
object with the keys correct, attempted, failed and metrics.  The exit
code is 0 when the outputs are correct, 1 when a check failed, 2 when
the run could not start.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# Set-up (import, input generation, warm-up) is repeated, spread over the
# run, and its median reported, so that one slow moment does not decide
# setup_s.
SETUP_REPEATS = 15
# A traced pass is repeated only while the spans kept stay below this.
SPAN_CAP = 1_000_000
MODULES = ("errors", "expr", "core", "spectrum", "stability", "hybrid",
           "simulate", "sweep")

END_TO_END = {
    "items_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "expr.parse_us": "us",
    "expr.field_evals_per_system": "count",
    "expr.field_evals_per_sample": "count",
    "core.boundary_data_us": "us",
    "core.gradient_fd_calls_per_sample": "count",
    "core.sliding_field_us": "us",
    "core.fold_curvature_calls": "count",
    "stability.classify_equilibrium_us": "us",
    "spectrum.eig3_us": "us",
    "stability.branch.rotational": "count",
    "stability.branch.stable_node": "count",
    "stability.branch.unstable_rightward": "count",
    "stability.branch.unstable_eigenvalue": "count",
    "stability.branch.degenerate": "count",
    "hybrid.regular_us": "us",
    "hybrid.regular_rotations": "rotations",
    "hybrid.slide_us.complex": "us",
    "hybrid.slide_us.real": "us",
    "hybrid.slide_us.resonant": "us",
    "hybrid.undefined_frac": "frac",
    "sweep.cell_us": "us",
    "sweep.render_ms": "ms",
    "sweep.verdict.blue": "count",
    "sweep.verdict.red": "count",
    "sweep.verdict.white": "count",
    "sweep.verdict.gray": "count",
    "simulate.us_per_sample": "us",
    "simulate.slide_sample_frac": "frac",
    "simulate.segments_per_orbit": "count",
    "simulate.hybrid_us_per_step": "us",
    "trace.overhead_frac": "frac",
    "trace.accounted_frac": "frac",
    "self_frac.expr": "frac",
    "self_frac.core": "frac",
    "self_frac.spectrum": "frac",
    "self_frac.stability": "frac",
    "self_frac.hybrid": "frac",
    "self_frac.sweep": "frac",
    "self_frac.simulate": "frac",
    "self_frac.bench": "frac",
}
# mean inclusive time per call of a wrapped function, in microseconds
SPAN_MEANS = {
    "expr.parse_us": "expr.parse_expr",
    "core.boundary_data_us": "core.boundary_data",
    "core.sliding_field_us": "core.sliding_field",
    "stability.classify_equilibrium_us": "stability.classify_equilibrium",
    "spectrum.eig3_us": "spectrum.eig3",
    "hybrid.regular_us": "hybrid.first_hit_plane",
}
# the workload's own names for items_per_s and op_ms.*, with the unit and
# scale of the latency as the workload's users read it
NAMED = {
    "fig-c": ("cells_per_s", "panel_s", "s", 1e-3),
    "lambda": ("lambda_per_s", "lambda_us", "us", 1e3),
    "classify": ("classify_per_s", "classify_us", "us", 1e3),
    "orbit": ("samples_per_s", "orbit_s", "s", 1e-3),
}


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package() -> SimpleNamespace:
    """(Re-)import the package from source, as a fresh process would;
    returns its submodules by name."""
    for name in [n for n in sys.modules
                 if n == "filippov" or n.startswith("filippov.")]:
        del sys.modules[name]
    importlib.import_module("filippov")
    return SimpleNamespace(**{m: importlib.import_module(f"filippov.{m}")
                              for m in MODULES})


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(seed: int, numpy_version: str) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "filippov").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    uname = os.uname()
    return {"commit": git_commit(), "src_sha256": digest.hexdigest()[:16],
            "nproc": len(os.sched_getaffinity(0)),
            "threads": threading.active_count(),
            "python": platform.python_version(), "numpy": numpy_version,
            "platform": f"{uname.sysname} {uname.release} {uname.machine}",
            "seed": seed}


@dataclass
class Pass:
    """Outcome of one complete pass over a workload's inputs."""

    latencies: list[float] = field(default_factory=list)
    items: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    wall: float = 0.0


def run_pass(wl, fp, run=None, tracer=None) -> Pass:
    run = run or wl.run
    result = Pass()
    start = perf_counter()
    for i, x in enumerate(wl.items):
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        try:
            n, outcome = run(x)
        except fp.errors.FilippovError as exc:
            result.latencies.append(perf_counter() - t0)
            result.errors.append(f"{type(exc).__name__}: {exc}")
            result.outcomes.append(None)
            continue
        result.latencies.append(perf_counter() - t0)
        result.items += n
        result.failed += bool(wl.failed(outcome))
        result.outcomes.append(outcome)
    result.wall = perf_counter() - start
    return result


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def gate(wl, last: Pass, ops: int, failed: int):
    """Correctness gate: returns (correct, attempted, failed, figures)."""
    if last.errors:
        for err in last.errors[:5]:
            print(f"# error: {err}")
        return False, ops, failed + len(last.errors), {}
    checks, mismatches, figures = wl.check(last.outcomes)
    for line in mismatches[:10]:
        print(f"# mismatch: {line}")
    print(f"# mix {json.dumps(wl.mix(last.outcomes))}")
    correct = not mismatches and failed == 0
    return correct, ops + checks, failed + len(mismatches), figures


def set_up(cls, seed: int, workdir: Path):
    """One set-up: (re-)import the package, generate the inputs, warm up.
    Returns (seconds, workload, package).

    Afterwards the set-up's garbage is collected and what survives (the
    package, numpy, the inputs) is frozen out of later collections.
    Otherwise a full collection scanning the benchmark's own heap lands
    on the same operation of every pass and shows as a tail latency that
    the package does not have."""
    t0 = perf_counter()
    fp = import_package()
    wl = cls(seed)
    wl.bind(fp, workdir)
    wl.warm_up()
    seconds = perf_counter() - t0
    gc.unfreeze()
    gc.collect()
    gc.freeze()
    return seconds, wl, fp


def fastest(best, latencies):
    return latencies if best is None else list(map(min, best, latencies))


def end_to_end(cls, seed: int, workdir: Path, seconds: float):
    seconds_taken, wl, fp = set_up(cls, seed, workdir)
    setup = [seconds_taken]
    best = None  # fastest run of each operation over the passes
    latencies: list[float] = []
    items = passes = failed = 0
    wall = 0.0
    last = None
    start = perf_counter()
    while last is None or perf_counter() - start + last.wall < seconds:
        last = None  # only the last pass keeps its outcomes
        last = run_pass(wl, fp)
        best = fastest(best, last.latencies)
        latencies += last.latencies
        items += last.items
        wall += last.wall
        failed += last.failed + len(last.errors)
        passes += 1
        # the other set-ups are spread over the run, so that their median
        # sees the machine in several of its states
        if len(setup) < SETUP_REPEATS and \
                perf_counter() - start >= seconds * len(setup) / SETUP_REPEATS:
            seconds_taken, wl, fp = set_up(cls, seed, workdir)
            setup.append(seconds_taken)
    ops = len(latencies)
    correct, attempted, failed, _ = gate(wl, last, ops, failed)
    while len(setup) < SETUP_REPEATS:
        setup.append(set_up(cls, seed, workdir)[0])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "items_per_s": last.items / sum(best),
        "op_ms.p50": percentile(best, 0.50) * 1e3,
        "op_ms.p90": percentile(best, 0.90) * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
    }
    rate, lat, unit, scale = NAMED[wl.name]
    print(f"# {rate} = {metrics['items_per_s']:.6g} 1/s (fastest of "
          f"{passes} passes per {wl.op}; as run: {items / wall:.6g} 1/s, "
          f"{items} {wl.item}s in {wall:.3f} s)")
    tails = (0.5, 0.9, 0.99) if wl.tail_p99 else (0.5, 0.9)
    for q in tails:
        print(f"# {lat}.p{round(q * 100)} = "
              f"{percentile(best, q) * 1e3 * scale:.6g} {unit} "
              f"(over {len(best)} {wl.op}s; as run: "
              f"{percentile(latencies, q) * 1e3 * scale:.6g} {unit})")
    print(f"# setup_s = {metrics['setup_s']:.6g} s (median of {len(setup)})")
    print(f"# peak_rss_mb = {rss_mb:.6g} MB")
    print(f"# failed_frac = {failed / attempted:.6g} ({failed}/{attempted})")
    return correct, attempted, failed, metrics


def per_layer(cls, seed: int, workdir: Path, seconds: float):
    from spans import LAYERS, OP_SPAN, Tracer

    _, wl, fp = set_up(cls, seed, workdir)
    tracer = Tracer()
    traced = 0.0
    best_plain = best_traced = None
    ops = failed = 0
    last = None
    start = perf_counter()
    while not tracer.passes or (
            perf_counter() - start + plain.wall + last.wall < seconds
            and len(tracer) < SPAN_CAP):
        plain = run_pass(wl, fp)
        tracer.install()
        try:
            last = run_pass(wl, fp, tracer.wrap(wl.run, OP_SPAN), tracer)
        finally:
            tracer.uninstall()
        tracer.passes += 1
        traced += last.wall
        best_plain = fastest(best_plain, plain.latencies)
        best_traced = fastest(best_traced, last.latencies)
        for p in (plain, last):
            ops += len(p.latencies)
            failed += p.failed + len(p.errors)
    correct, attempted, failed, figures = gate(wl, last, ops, failed)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for name, span in SPAN_MEANS.items():
        metrics[name] = tracer.mean_us(span)
    if not last.errors:
        metrics.update(wl.layer_figures(last.outcomes, tracer))
    metrics.update(figures)
    wall = traced / tracer.passes
    layer_self = tracer.layer_self()
    for layer in LAYERS:
        metrics[f"self_frac.{layer}"] = layer_self[layer] / wall
    metrics["trace.accounted_frac"] = sum(layer_self.values()) / wall
    metrics["trace.overhead_frac"] = sum(best_traced) / sum(best_plain) - 1.0
    spans_path = OUT / f"spans-{wl.name}-seed{wl.seed}.npz"
    tracer.write(spans_path)
    print(f"# {len(tracer)} spans over {tracer.passes} traced passes "
          f"written to {spans_path.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {PER_LAYER[name]}")
    return correct, attempted, failed, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "filippov" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    if "FILIPPOV_JOBS" in os.environ:
        print("error: FILIPPOV_JOBS is set; the benchmark measures the "
              "default serial configuration", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # numpy is a dependency, not part of the package's set-up
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    import numpy

    from workloads import WORKLOADS

    sys.path.insert(0, str(SRC))
    env = environment(args.seed, numpy.__version__)
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# env {json.dumps(env)}")
    if env["threads"] > env["nproc"]:
        print(f"error: {env['threads']} threads exceed nproc = "
              f"{env['nproc']}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as tmp:
        measure = per_layer if args.trace else end_to_end
        correct, attempted, failed, metrics = measure(
            WORKLOADS[args.workload], args.seed, Path(tmp), args.seconds)
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
