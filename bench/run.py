"""frik benchmark: one command, three workloads, end-to-end or per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload cone-compare --seed 1 --seconds 45 --trace 0

Workloads are ``cone-compare``, ``cold-ik`` and ``wall-sweep`` (see
bench/README.md). The program is imported from ``src/`` of the checkout the
script sits in; without ``src/frik`` and ``configs/`` the run stops with exit
code 2 before measuring anything.

A run sets up, then repeats its workload's round for ``--seconds`` (a round
starts only if one more fits, and there is at least one), checks every
round's outputs outside the timed part, and prints one line per figure
followed by a last line of JSON:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` frik
runs under the span tracer of bench/spans.py and the metrics are the
per-layer ones.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cone-compare", "cold-ik", "wall-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="miniature inputs for the smoke tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else f"unknown ({ref[5:]} packed)"
    return ref


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine(args, frik, seeded: bool) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "frik": frik.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": seeded,
        "trace": args.trace,
        "seconds": args.seconds,
    }


def _setup_probes(args, count: int) -> list[float]:
    """Set-up seconds of ``count`` fresh interpreters, each importing frik anew."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
    if args.smoke:
        argv.append("--smoke")
    times = []
    for _ in range(count):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def _loop_probe_ms() -> float:
    """Time of a fixed pure-Python loop: a gauge of the machine's speed during the run."""
    start = time.perf_counter()
    sum(i * i for i in range(200_000))
    return (time.perf_counter() - start) * 1e3


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


# Program outputs reported with the per-layer metrics; a workload that does
# not produce one reports 0.
WORKLOAD_OUTPUTS = (
    "analysis.adhoc_travel_deg",
    "analysis.frik_travel_deg",
    "analysis.adhoc_reachable_voxels",
    "analysis.frik_reachable_voxels",
)


def layer_metrics(tracer, workload, rounds: list[float], traced_spans: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run; counts are per round of the workload."""
    from spans import by_function, wrapper_cost_s

    per_site = tracer.stats()
    fn = by_function(per_site)
    n_rounds = len(rounds)
    wall = sum(rounds)

    def calls(key: str) -> float:
        return fn.get(key, {}).get("calls", 0) / n_rounds

    def mean_time(key: str, field: str, scale: float) -> float:
        s = fn.get(key)
        return s[field] / s["calls"] * scale if s and s["calls"] else 0.0

    def share(seconds: float) -> float:
        return 100.0 * seconds / wall

    def incl(key: str) -> float:
        return fn.get(key, {}).get("total_s", 0.0)

    out: dict[str, tuple[float, str]] = {}
    for key in ("robot.chain_frames", "robot.jacobian_from_frames", "robot.hessian_from_frames",
                "solver.damped_step", "solver.task_error", "liegroup.so3_log"):
        out[f"{key}.calls"] = (calls(key), "count")
        out[f"{key}.us"] = (mean_time(key, "total_s", 1e6), "us")
    out["solver.solve.calls"] = (calls("solver.solve"), "count")
    out["solver.solve.self_us"] = (mean_time("solver.solve", "self_s", 1e6), "us")

    solves = tracer.extracted.get("solver.solve", [])
    iters = [it for it, _, _, _ in solves]
    capped = sum(it for it, converged, _, _ in solves if not converged)
    saturated = sum(s for _, _, s, _ in solves)
    steps = sum(n for _, _, _, n in solves)
    out["solver.iterations_mean"] = (statistics.fmean(iters) if iters else 0.0, "count")
    out["solver.iterations_p99"] = (_percentile(iters, 99), "count")
    out["solver.capped_iteration_share"] = (100.0 * capped / sum(iters) if iters else 0.0, "%")
    missed = sum(1 for _, converged, _, _ in solves if not converged)
    out["solver.not_converged_share"] = (100.0 * missed / len(solves) if solves else 0.0, "%")
    out["solver.saturated_step_share"] = (100.0 * saturated / steps if steps else 0.0, "%")

    sweep_paths = "solver.solve_toolpath@analysis"
    solved = tracer.children_of(sweep_paths, "solver.solve@solver") / n_rounds
    extra = dict.fromkeys(WORKLOAD_OUTPUTS, 0.0)
    extra.update(workload.layer_values())
    useful = sum(v for k, v in extra.items() if k.endswith("_reachable_voxels"))
    useful *= getattr(workload, "path_length", 0)
    out["analysis.solve_toolpath.calls"] = (
        per_site.get(sweep_paths, {}).get("calls", 0) / n_rounds, "count")
    out["analysis.targets_solved"] = (solved, "count")
    out["analysis.useful_target_share"] = (100.0 * useful / solved if solved else 0.0, "%")
    out["analysis.manipulability_jl.calls"] = (calls("analysis.manipulability_jl"), "count")
    out["analysis.manipulability_jl.pct"] = (share(incl("analysis.manipulability_jl")), "%")
    out["analysis.workspace_sweep.self_pct"] = (
        share(fn.get("analysis.workspace_sweep", {}).get("self_s", 0.0)), "%")
    out["toolpath.generate_cone_spiral.pct"] = (share(incl("toolpath.generate_cone_spiral")), "%")
    out["toolpath.assign_adhoc_orientation.pct"] = (share(incl("toolpath.assign_adhoc_orientation")), "%")
    out["toolpath.base_poses.calls"] = (calls("toolpath.base_poses"), "count")
    out["toolpath.base_poses.pct"] = (share(incl("toolpath.base_poses")), "%")
    out["config.load_config.ms"] = (mean_time("config.load_config", "total_s", 1e3), "ms")
    cli_self = sum(s["self_s"] for key, s in fn.items() if key.startswith("cli."))
    out["cli.self_pct"] = (share(cli_self), "%")
    for key, value in extra.items():
        out[key] = (float(value), "deg" if key.endswith("_deg") else "count")

    added = traced_spans * wrapper_cost_s()
    out["trace.overhead_pct"] = (100.0 * added / max(wall - added, 1e-9), "%")
    return out


def _solve_summary(result) -> tuple[int, bool, int, int]:
    flags = result.saturation_flags or []
    return result.iterations, bool(result.converged), sum(flags), len(flags)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "frik" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: {ROOT} lacks src/frik or configs/; run from a frik checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)

    began = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    frik = importlib.import_module("frik")
    importlib.import_module("frik.cli")
    if Path(frik.__file__).resolve().parent != ROOT / "src" / "frik":
        print(f"error: imported frik from {frik.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    from spans import Tracer
    from workloads import WORKLOADS, Round

    workload = WORKLOADS[args.workload](frik, out_dir, args.seed, args.smoke, bool(args.trace))
    tracer = None
    if args.trace:
        tracer = Tracer()
        extract = {"solver.solve": _solve_summary}
        if hasattr(workload, "keep_sweep"):
            extract["analysis.workspace_sweep"] = workload.keep_sweep
        tracer.install(extract)
    workload.setup()
    setup_s = time.perf_counter() - began
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    workload.prepare_checks()

    spans_before = tracer.span_count if tracer else 0
    rounds: list[Round] = []
    probe_ms = []
    started = time.perf_counter()
    last = 0.0
    # A round starts only if one more fits in the time left, so that a run
    # of long rounds (the sweep) does not overrun --seconds by a whole round.
    while not rounds or time.perf_counter() - started + last <= args.seconds:
        begun = time.perf_counter()
        rounds.append(Round())
        workload.run_round(rounds[-1])
        probe_ms.append(_loop_probe_ms())
        last = time.perf_counter() - begun
    peak_rss = _peak_rss_mb()
    walls = [sum(r.wall.values()) for r in rounds]
    wall_s = workload.wall_s(rounds)

    if tracer:
        tracer.uninstall()
        metrics = layer_metrics(tracer, workload, walls, tracer.span_count - spans_before)
        metrics["trace.wall_s"] = (wall_s, "s")
    else:
        setups = [setup_s] + _setup_probes(args, 4)
        metrics = {
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (peak_rss, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }

    figures = {f"{label}_wall_s": statistics.median(r.wall[label] for r in rounds)
               for label in rounds[0].wall}
    figures.update(workload.figures())
    figures["machine_loop_ms"] = statistics.median(probe_ms)
    info = machine(args, frik, workload.seeded)
    report = {
        "machine": info,
        "rounds": len(walls),
        "round_wall_s": walls,
        "figures": figures,
        "problems": workload.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (out_dir / f"result_trace{args.trace}.json").write_text(json.dumps(report, indent=1))

    print("machine " + json.dumps(info))
    print(f"rounds {len(walls)}; operations failed {workload.failed} of {workload.attempted}")
    for problem in workload.problems[:20]:
        print(f"problem {problem}")
    for name, value in figures.items():
        print(f"figure {name} {value!r}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    correct = not workload.problems
    print(json.dumps({
        "correct": correct,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
