"""Smoke tests of the benchmark itself, kept apart from the package's suite.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(cwd: Path, workload: str, trace: int, seed: int = 3):
    # --seconds below one pass: every workload still runs one whole pass
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=300)


def test_benchmark_json_matches_the_runner():
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    # lambda runs by hand only; see README.md, Workloads
    assert {w["name"] for w in BENCH["workloads"]} \
        == set(workloads.WORKLOADS) - {"lambda"}
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} \
        == run.PER_LAYER


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric(workload, trace):
    out = _bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        rate, latency = run.NAMED[workload][:2]
        assert f"# {rate} = " in out.stdout
        assert f"# {latency}.p50 = " in out.stdout


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_determines_the_inputs(workload):
    cls = workloads.WORKLOADS[workload]
    assert cls(5).items == cls(5).items
    assert cls(5).items != cls(6).items


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench(tmp_path, "classify", 0)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_classify_inputs_hit_their_branch_quotas():
    wl = workloads.ClassifyWorkload(7)
    branches = [x[1] for x in wl.items]
    for branch, share in wl.QUOTA.items():
        assert branches.count(branch) == round(share * wl.CORPUS)


def test_tracer_restores_every_binding():
    fp = run.import_package()
    before = {(m, a): getattr(sys.modules[m], a)
              for m, a, _ in spans.FUNCTIONS}
    tracer = spans.Tracer()
    tracer.install()
    assert fp.hybrid.return_multiplier is not before[
        ("filippov.hybrid", "return_multiplier")]
    tracer.uninstall()
    assert before == {(m, a): getattr(sys.modules[m], a)
                      for m, a, _ in spans.FUNCTIONS}
