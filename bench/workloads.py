"""The benchmark's workloads: inputs, one timed round, and the checks after it.

Each workload builds its inputs in ``setup`` (timed as part of setup_s),
then ``run_round`` repeats the same work: the calls into frik run inside
``Round.timing`` and the output checks run after them, outside it.
``wall_s`` turns a run's rounds into one round's wall time at the fastest
machine speed the run saw (see ``Workload.wall_s``). The run directory is
``.bench_out/<workload>`` under the repository root.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import checks

BENCH_CONFIG = Path("configs/cone_benchmark.json")
# Miniature sizes for the smoke tests: the golden-run cone of
# tests/test_acceptance.py (16 samples/rev, 10 mm pitch), a 2 x 2 sweep
# grid and 20 cold-start targets.
SMOKE_CONE = {"pitch_mm": 10.0, "samples_per_rev": 16}
SMOKE_VOXEL_MM = 1200.0
SMOKE_QUERIES = 20
SWEEP_VOXEL_MM = 400.0
COLD_QUERIES = 400
COLD_SPREAD_RAD = 0.8


class Round:
    """Wall seconds of one round's timed calls, per label and per part."""

    def __init__(self):
        self.wall: dict[str, float] = {}
        self.parts: list[float] = []

    @contextlib.contextmanager
    def timing(self, label: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.wall[label] = self.wall.get(label, 0.0) + time.perf_counter() - start


class Workload:
    """Shared bookkeeping: operation counts, problems found by the checks."""

    name = ""
    seeded = False

    def __init__(self, frik, out_dir: Path, seed: int, smoke: bool, traced: bool):
        self.frik = frik
        self.out = out_dir
        self.seed = seed
        self.smoke = smoke
        self.traced = traced
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.config = json.loads(BENCH_CONFIG.read_text())
        self.cone = dict(self.config["cone"], **(SMOKE_CONE if smoke else {}))
        self.cone_flags = []
        if smoke:
            self.cone_flags = ["--cone-pitch-mm", str(SMOKE_CONE["pitch_mm"]),
                               "--cone-samples-per-rev", str(SMOKE_CONE["samples_per_rev"])]

    def count(self, attempted: int, failed: int, problems: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)

    def _cli(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.frik.cli.main(argv)

    def _write_config(self, name: str, config: dict) -> str:
        path = self.out / name
        path.write_text(json.dumps(config, indent=1))
        return str(path)

    def layer_values(self) -> dict[str, float]:
        """Workload-level outputs reported beside the per-layer metrics."""
        return {}

    def wall_s(self, rounds: list[Round]) -> float:
        """One round's wall time with each timed part at its fastest over the rounds.

        The parts are listed in the same order every round. The host's other
        tenants slow the whole machine by up to about 1.8x for seconds at a
        time and never speed it up, so a part's fastest time is the program's
        own cost and its median is mostly the share of the run that was slow.
        """
        return float(np.min([r.parts for r in rounds], axis=0).sum())


class ConeCompare(Workload):
    """``frik compare`` on the bundled cone benchmark, Halley then Newton."""

    name = "cone-compare"

    def setup(self) -> None:
        newton = copy.deepcopy(self.config)
        newton["solver"]["method"] = "newton"
        self.runs = {"halley": str(BENCH_CONFIG), "newton": self._write_config("newton.json", newton)}

    def prepare_checks(self) -> None:
        frik_t, adhoc_t = checks.cone_targets(self.cone, checks.workpiece_frame(self.config))
        self.targets = {"adhoc": adhoc_t, "frik": frik_t}
        self.robot = checks.Robot(Path(self.config["robot"]))
        self.epsilon = float(self.config["solver"]["epsilon"])
        self.us = {(label, mode): [] for label in self.runs for mode in self.targets}
        self.iterations = {key: [] for key in self.us}
        self.rest: dict[str, list[float]] = {label: [] for label in self.runs}
        self.travel: dict[tuple[str, str], float] = {}

    def run_round(self, rnd: Round) -> None:
        n = len(self.targets["frik"])
        for label, config in self.runs.items():
            out = self.out / label
            with rnd.timing(label):
                code = self._cli(["compare", "--config", config, "--out", str(out)] + self.cone_flags)
            if code != 0:
                self.count(2 * n + 2, 2 * n + 2, [f"{label}: frik compare exited {code}"])
                self.rest[label].append(rnd.wall[label])
                continue
            attempted, failed, problems, columns = checks.check_compare(
                out, self.robot, self.targets, self.epsilon
            )
            self.count(attempted, failed, [f"{label} {p}" for p in problems])
            solves = sum(float(c["us"].sum()) for c in columns.values()) * 1e-6
            self.rest[label].append(rnd.wall[label] - solves)
            for mode, cols in columns.items():
                self.us[label, mode].append(cols["us"])
                self.iterations[label, mode].append(cols["iterations"])
                self.travel[label, mode] = checks.travel_deg(cols["q"])[1]

    def wall_s(self, rounds: list[Round]) -> float:
        """One round's wall time at the fastest machine speed the run saw.

        A warm-started target's solve does the same arithmetic as every other
        target's with the same iteration count in the same call and mode, so
        each target is timed at the fastest solve of its class over all the
        run's rounds, and the rest of each call (path, output files) at its
        fastest round. A class pools thousands of solves spread over the whole
        run, so it meets the fast machine in a run of four or five rounds,
        where a per-target minimum over the same rounds often would not (see
        ``Workload.wall_s``).
        """
        total = sum(min(rest) for rest in self.rest.values())
        for key, per_round in self.us.items():
            if not per_round:
                continue
            us = np.concatenate(per_round)
            iterations = np.concatenate(self.iterations[key])
            for k in np.unique(iterations):
                cls = us[iterations == k]
                total += len(cls) / len(per_round) * float(cls.min()) * 1e-6
        return float(total)

    def figures(self) -> dict[str, float]:
        out = {}
        for (label, mode), per_round in self.us.items():
            if per_round:
                us = np.concatenate(per_round)
                out[f"{label}.{mode}_us_p50"] = float(np.percentile(us, 50))
                out[f"{label}.{mode}_us_p99"] = float(np.percentile(us, 99))
                out[f"{label}.{mode}_iterations_mean"] = float(np.mean(np.concatenate(
                    self.iterations[label, mode])))
        for (label, mode), deg in self.travel.items():
            out[f"{label}.{mode}_travel_deg"] = deg
        return out

    def layer_values(self) -> dict[str, float]:
        return {f"analysis.{mode}_travel_deg": self.travel.get(("halley", mode), 0.0)
                for mode in ("adhoc", "frik")}


class ColdIK(Workload):
    """One-shot ``frik.solve`` from the benchmark q0 to seeded random targets, r=5 and r=6."""

    name = "cold-ik"
    seeded = True
    modes = (("frik", 5), ("adhoc", 6))

    def setup(self) -> None:
        frik = self.frik
        config = frik.load_config(BENCH_CONFIG)
        self.model = frik.load_robot(config.robot_file)
        self.q0 = config.q0_rad
        self.settings = replace(config.solver, record_residuals=self.traced)
        self.robot = checks.Robot(Path(config.robot_file))
        n = SMOKE_QUERIES if self.smoke else COLD_QUERIES
        rng = np.random.default_rng(self.seed)
        q = self.q0 + rng.uniform(-COLD_SPREAD_RAD, COLD_SPREAD_RAD, (n, self.model.n))
        self.targets = self.robot.fk(np.clip(q, self.robot.joint_min, self.robot.joint_max))
        self.projectors = {mode: frik.TaskProjector(r) for mode, r in self.modes}

    def prepare_checks(self) -> None:
        self.us = {mode: [] for mode, _ in self.modes}
        self.not_converged = {mode: 0 for mode, _ in self.modes}

    def run_round(self, rnd: Round) -> None:
        solve, clock = self.frik.solve, time.perf_counter
        for mode, r in self.modes:
            proj, results, times = self.projectors[mode], [], []
            with rnd.timing(mode):
                for target in self.targets:
                    t0 = clock()
                    results.append(solve(self.model, target, self.q0, proj, self.settings))
                    times.append(clock() - t0)
            rnd.parts += times
            self.us[mode] += [t * 1e6 for t in times]
            converged = np.array([res.converged for res in results])
            q = np.array([res.q for res in results])
            reached = self.robot.fk(q)
            ok = checks.pose_ok(reached, self.targets, full_pose=(r == 6))
            wrong = int((converged & ~ok).sum())
            # A solve that stops at the iteration cap returns converged=False
            # with its best-effort joints. It is a failed query, and a wrong
            # answer only if the report does not hold (cap not reached,
            # residual below epsilon, or non-finite joints).
            capped = np.array([res.iterations == self.settings.max_iterations
                               and np.linalg.norm(res.residual) >= self.settings.epsilon
                               for res in results])
            false_miss = int((~converged & ~capped).sum())
            non_finite = int((~np.isfinite(q).all(axis=1)).sum())
            misses = int((~converged).sum())
            self.not_converged[mode] += misses
            problems = [f"{mode}: {n} {what}" for n, what in (
                (wrong, "converged solves miss their target"),
                (false_miss, "solves report non-convergence before the cap or below epsilon"),
                (non_finite, "solves return non-finite joints")) if n]
            self.count(len(results), wrong + misses + non_finite, problems)

    def figures(self) -> dict[str, float]:
        out = {}
        for mode, us in self.us.items():
            out[f"{mode}_us_p50"] = float(np.percentile(us, 50))
            out[f"{mode}_us_p99"] = float(np.percentile(us, 99))
            out[f"{mode}_not_converged"] = self.not_converged[mode]
        return out


class WallSweep(Workload):
    """``frik workspace`` on a 400 mm wall grid (36 voxels, both modes), two workers.

    The traced run sweeps with one worker so that every span stays in this
    process.
    """

    name = "wall-sweep"

    def setup(self) -> None:
        config = copy.deepcopy(self.config)
        config["sweep"]["voxel_mm"] = SMOKE_VOXEL_MM if self.smoke else SWEEP_VOXEL_MM
        self.path = self._write_config("sweep.json", config)
        self.jobs = "1" if self.traced else "2"
        sweep = config["sweep"]
        n_y = max(1, round((sweep["y_max_mm"] - sweep["y_min_mm"]) / sweep["voxel_mm"]))
        n_z = max(1, round((sweep["z_max_mm"] - sweep["z_min_mm"]) / sweep["voxel_mm"]))
        self.voxels = n_y * n_z

    def prepare_checks(self) -> None:
        self.path_length = len(checks.cone_targets(self.cone, np.eye(4))[0])
        self.reachable: dict[str, int] = {}
        self.sweeps: list = []

    def run_round(self, rnd: Round) -> None:
        out = self.out / "sweep"
        argv = ["workspace", "--config", self.path, "--out", str(out), "--jobs", self.jobs]
        argv += self.cone_flags
        with rnd.timing("sweep"):
            code = self._cli(argv)
        rnd.parts.append(rnd.wall["sweep"])
        if code != 0:
            self.count(2 * self.voxels, 2 * self.voxels, [f"frik workspace exited {code}"])
            return
        causes = self.sweeps.pop() if self.sweeps else None
        attempted, failed, problems, counts = checks.check_workspace(out, self.voxels, causes)
        self.count(attempted, failed, problems)
        self.reachable = counts

    def keep_sweep(self, maps) -> None:
        """Record the failure causes of a traced sweep as CSV row indices per mode."""
        self.sweeps.append(
            {m.mode: {iy * m.reachable.shape[1] + iz for iy, iz in m.causes} for m in maps}
        )

    def figures(self) -> dict[str, float]:
        return {f"{mode}_reachable_voxels": n for mode, n in self.reachable.items()}

    def layer_values(self) -> dict[str, float]:
        return {f"analysis.{mode}_reachable_voxels": self.reachable.get(mode, 0)
                for mode in ("adhoc", "frik")}


WORKLOADS = {w.name: w for w in (ConeCompare, ColdIK, WallSweep)}
