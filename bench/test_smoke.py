"""Smoke tests for the benchmark on miniature inputs.

Run from the repository root (about a minute on two cores):

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return done.returncode, done.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_run_reports_every_metric(workload, trace):
    code, lines = _run(workload, trace)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert np.isfinite(reported["value"])
        if not trace:
            assert reported["value"] > 0


def test_cold_ik_inputs_follow_the_seed():
    outs = [_run("cold-ik", 1)[1][-1] for _ in range(2)]
    counts = [json.loads(o)["metrics"]["solver.solve.calls"]["value"] for o in outs]
    iters = [json.loads(o)["metrics"]["solver.iterations_mean"]["value"] for o in outs]
    assert counts[0] == counts[1] and iters[0] == iters[1]


def test_spec_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_run_without_the_program_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = _run("cone-compare", 0, cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_compare_check_flags_a_moved_joint(tmp_path):
    config = json.loads((ROOT / "configs" / "cone_benchmark.json").read_text())
    cone = dict(config["cone"], pitch_mm=10.0, samples_per_rev=16)
    out = tmp_path / "out"
    sys.path.insert(0, str(ROOT / "src"))
    from frik.cli import main

    argv = ["compare", "--config", str(ROOT / "configs" / "cone_benchmark.json"),
            "--robot", str(ROOT / "configs" / "irb4600.json"), "--out", str(out),
            "--cone-pitch-mm", "10", "--cone-samples-per-rev", "16"]
    assert main(argv) == 0
    robot = checks.Robot(ROOT / "configs" / "irb4600.json")
    frik_t, adhoc_t = checks.cone_targets(cone, checks.workpiece_frame(config))
    targets = {"adhoc": adhoc_t, "frik": frik_t}
    attempted, failed, problems, _ = checks.check_compare(out, robot, targets, 1e-6)
    assert (attempted, failed, problems) == (2 * len(frik_t) + 2, 0, [])

    path = out / "trajectory_frik.csv"
    lines = path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[1] = repr(float(cells[1]) + 0.01)
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    _, failed, problems, _ = checks.check_compare(out, robot, targets, 1e-6)
    assert failed == 2  # the moved row and the travel report
    assert len(problems) == 2


def test_spans_self_time_excludes_children():
    tracer = Tracer()
    clock_sleep = __import__("time").sleep

    def inner():
        clock_sleep(0.02)

    def outer():
        clock_sleep(0.01)
        traced_inner()
        traced_inner()

    traced_inner = tracer.wrap("m.inner@m", inner)
    tracer.wrap("m.outer@m", outer)()
    stats = tracer.stats()
    assert stats["m.inner@m"]["calls"] == 2
    assert stats["m.outer@m"]["total_s"] >= 0.05
    assert 0.01 <= stats["m.outer@m"]["self_s"] < 0.02
    assert tracer.children_of("m.outer@m", "m.inner@m") == 2
