"""Run configuration: defaults, JSON config files, CLI overrides.

A run needs a robot (file or the bundled IRB4600), exactly one toolpath
source (a file or the cone generator block), a workpiece placement, a start
configuration, solver settings, and optionally a sweep grid. Values resolve
as: built-in defaults < config file < command-line flags.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .analysis import SweepSpec
from .errors import FrikError
from .liegroup import make_pose, quat_to_rot, rot_to_quat
from .solver import SolverSettings
from .toolpath import ConeSpec

DEFAULT_Q0_DEG = (-112.0, -7.0, 57.0, -80.0, -34.0, 9.0)

# Benchmark workpiece placement: on the wall plane (x = 0) at y = -1.1 m,
# z = 0.9 m. The cone axis points up (+z): with the tool frame at the bare
# flange, upright mounting keeps both solve modes inside the wrist's
# asymmetric joint-5 limits, which wall-normal mounting does not.
DEFAULT_WORKPIECE_POS_MM = (0.0, -1100.0, 900.0)


class ConfigError(FrikError):
    """A configuration file or flag combination is invalid."""


def default_workpiece_frame() -> np.ndarray:
    return make_pose(np.eye(3), np.array(DEFAULT_WORKPIECE_POS_MM))


@dataclass
class RunConfig:
    robot_file: str | None = None
    solver: SolverSettings = field(default_factory=SolverSettings)
    task_dof: int = 5
    toolpath_file: str | None = None
    cone: ConeSpec | None = field(default_factory=ConeSpec)
    workpiece: np.ndarray = field(default_factory=default_workpiece_frame)
    workpiece_explicit: bool = False
    q0_rad: np.ndarray = field(
        default_factory=lambda: np.radians(np.array(DEFAULT_Q0_DEG))
    )
    sweep: SweepSpec = field(default_factory=SweepSpec)
    out_dir: str = "out"
    seed: int = 0
    jobs: int = 1

    def validate(self) -> None:
        if (self.toolpath_file is None) == (self.cone is None):
            raise ConfigError(
                "exactly one toolpath source required: a toolpath file or a cone block"
            )
        if self.task_dof not in (3, 5, 6):
            raise ConfigError(f"task_dof must be 3, 5 or 6, got {self.task_dof}")
        if self.jobs < 1:
            raise ConfigError("jobs must be at least 1")


def _parse_solver(block: dict) -> tuple[SolverSettings, int | None]:
    known = {
        "lambda",
        "e_max",
        "epsilon",
        "max_iterations",
        "method",
        "task_dof",
    }
    unknown = set(block) - known
    if unknown:
        raise ConfigError(f"unknown solver keys: {sorted(unknown)}")
    kwargs = {}
    if "lambda" in block:
        kwargs["lam"] = float(block["lambda"])
    for key in ("e_max", "epsilon"):
        if key in block:
            kwargs[key] = float(block[key])
    if "max_iterations" in block:
        kwargs["max_iterations"] = int(block["max_iterations"])
    if "method" in block:
        kwargs["method"] = str(block["method"])
    task_dof = int(block["task_dof"]) if "task_dof" in block else None
    try:
        return SolverSettings(**kwargs), task_dof
    except ValueError as exc:
        raise ConfigError(f"bad solver settings: {exc}") from exc


def _parse_cone(block: dict) -> ConeSpec:
    try:
        return ConeSpec(
            diameter=float(block.get("diameter_mm", 100.0)),
            height=float(block.get("height_mm", 50.0)),
            pitch=float(block.get("pitch_mm", 2.0)),
            samples_per_rev=int(block.get("samples_per_rev", 114)),
            standoff=float(block.get("standoff_mm", 0.0)),
        )
    except ValueError as exc:
        raise ConfigError(f"bad cone block: {exc}") from exc


def _parse_frame(block: dict) -> np.ndarray:
    position = np.asarray(block.get("pos_mm", (0.0, 0.0, 0.0)), dtype=float)
    quat = np.asarray(block.get("quat", (0.0, 0.0, 0.0, 1.0)), dtype=float)
    norm = float(np.linalg.norm(quat))
    if abs(norm - 1.0) > 1e-6:
        raise ConfigError(f"workpiece quaternion norm {norm} deviates from 1")
    return make_pose(quat_to_rot(quat / norm), position)


def _parse_q0(block) -> np.ndarray:
    if isinstance(block, dict):
        if "deg" in block:
            return np.radians(np.asarray(block["deg"], dtype=float))
        if "rad" in block:
            return np.asarray(block["rad"], dtype=float)
    raise ConfigError('q0 must be {"deg": [...]} or {"rad": [...]}')


def _parse_sweep(block: dict) -> SweepSpec:
    try:
        return SweepSpec(
            y_min_mm=float(block.get("y_min_mm", -2400.0)),
            y_max_mm=float(block.get("y_max_mm", 0.0)),
            z_min_mm=float(block.get("z_min_mm", 0.0)),
            z_max_mm=float(block.get("z_max_mm", 2400.0)),
            voxel_mm=float(block.get("voxel_mm", 100.0)),
        )
    except ValueError as exc:
        raise ConfigError(f"bad sweep block: {exc}") from exc


def load_config(path: str | Path) -> RunConfig:
    """Parse a JSON run-configuration file into a RunConfig."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    known = {
        "robot",
        "solver",
        "toolpath",
        "cone",
        "workpiece",
        "q0",
        "sweep",
        "out_dir",
        "seed",
        "jobs",
    }
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"{path}: unknown top-level keys: {sorted(unknown)}")
    if "toolpath" in raw and "cone" in raw:
        raise ConfigError(f"{path}: give either a toolpath file or a cone block, not both")

    config = RunConfig()
    if raw.get("robot") is not None:
        config.robot_file = str(raw["robot"])
    if "solver" in raw:
        config.solver, task_dof = _parse_solver(raw["solver"])
        if task_dof is not None:
            config.task_dof = task_dof
    if "toolpath" in raw:
        config.toolpath_file = str(raw["toolpath"])
        config.cone = None
    if "cone" in raw:
        config.cone = _parse_cone(raw["cone"])
    if "workpiece" in raw:
        config.workpiece = _parse_frame(raw["workpiece"])
        config.workpiece_explicit = True
    if "q0" in raw:
        config.q0_rad = _parse_q0(raw["q0"])
    if "sweep" in raw:
        config.sweep = _parse_sweep(raw["sweep"])
    if "out_dir" in raw:
        config.out_dir = str(raw["out_dir"])
    if "seed" in raw:
        config.seed = int(raw["seed"])
    if "jobs" in raw:
        config.jobs = int(raw["jobs"])
    return config


def resolved_dict(config: RunConfig) -> dict:
    """Full resolved configuration, JSON-ready, for audit headers."""
    solver = config.solver
    out = {
        "robot": config.robot_file or "builtin:irb4600",
        "solver": {
            "lambda": solver.lam,
            "e_max": solver.e_max,
            "epsilon": solver.epsilon,
            "max_iterations": solver.max_iterations,
            "method": solver.method,
            "task_dof": config.task_dof,
        },
        "workpiece": {
            "pos_mm": config.workpiece[:3, 3].tolist(),
            "quat": rot_to_quat(config.workpiece[:3, :3]).tolist(),
        },
        "q0": {"deg": np.degrees(config.q0_rad).tolist()},
        "sweep": {
            "y_min_mm": config.sweep.y_min_mm,
            "y_max_mm": config.sweep.y_max_mm,
            "z_min_mm": config.sweep.z_min_mm,
            "z_max_mm": config.sweep.z_max_mm,
            "voxel_mm": config.sweep.voxel_mm,
        },
        "out_dir": config.out_dir,
        "seed": config.seed,
        "jobs": config.jobs,
    }
    if config.toolpath_file is not None:
        out["toolpath"] = config.toolpath_file
    if config.cone is not None:
        out["cone"] = {
            "diameter_mm": config.cone.diameter,
            "height_mm": config.cone.height,
            "pitch_mm": config.cone.pitch,
            "samples_per_rev": config.cone.samples_per_rev,
            "standoff_mm": config.cone.standoff,
        }
    return out


def apply_flag_overrides(config: RunConfig, args) -> RunConfig:
    """Fold parsed argparse flags into a config; flags win over file values."""
    if getattr(args, "robot", None):
        config.robot_file = args.robot
    if getattr(args, "toolpath", None):
        config.toolpath_file = args.toolpath
        config.cone = None
    if getattr(args, "task_dof", None):
        config.task_dof = args.task_dof
    if getattr(args, "out", None):
        config.out_dir = args.out
    if getattr(args, "jobs", None) is not None:
        config.jobs = args.jobs
    if getattr(args, "seed", None) is not None:
        config.seed = args.seed
    cone_flags = {
        "diameter": getattr(args, "cone_diameter_mm", None),
        "height": getattr(args, "cone_height_mm", None),
        "pitch": getattr(args, "cone_pitch_mm", None),
        "samples_per_rev": getattr(args, "cone_samples_per_rev", None),
        "standoff": getattr(args, "cone_standoff_mm", None),
    }
    updates = {k: v for k, v in cone_flags.items() if v is not None}
    if updates:
        base = config.cone if config.cone is not None else ConeSpec()
        try:
            config.cone = replace(base, **updates)
        except ValueError as exc:
            raise ConfigError(f"bad cone flags: {exc}") from exc
        config.toolpath_file = None
    return config
