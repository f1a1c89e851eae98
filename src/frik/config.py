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
from .solver import TASK_DOFS, SolverSettings
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
    jobs: int = 1

    def validate(self) -> None:
        if (self.toolpath_file is None) == (self.cone is None):
            raise ConfigError(
                "exactly one toolpath source required: a toolpath file or a cone block"
            )
        if self.task_dof not in TASK_DOFS:
            raise ConfigError(f"task_dof must be 3, 5 or 6, got {self.task_dof}")
        if self.jobs < 1:
            raise ConfigError("jobs must be at least 1")


# JSON key -> dataclass field of each block. The dataclass holds the defaults
# and the validation; the solver block also carries the run's task_dof.
SOLVER_KEYS = {
    "lambda": "lam",
    "e_max": "e_max",
    "epsilon": "epsilon",
    "max_iterations": "max_iterations",
    "method": "method",
}
CONE_KEYS = {
    "diameter_mm": "diameter",
    "height_mm": "height",
    "pitch_mm": "pitch",
    "samples_per_rev": "samples_per_rev",
    "standoff_mm": "standoff",
}
SWEEP_KEYS = {key: key for key in ("y_min_mm", "y_max_mm", "z_min_mm", "z_max_mm", "voxel_mm")}
TOP_LEVEL_KEYS = (
    "robot", "solver", "toolpath", "cone", "workpiece", "q0", "sweep", "out_dir", "jobs"
)


def _check_block(name: str, block, keys) -> dict:
    """``block`` itself, once it is a JSON object holding no key outside ``keys``."""
    if not isinstance(block, dict):
        raise ConfigError(f"{name} block must be a JSON object, got {type(block).__name__}")
    unknown = set(block) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    return block


def _coerce(key: str, value, default):
    """``value`` as the type of ``default``; an int field takes only integral
    numbers, not booleans, where ``int()`` would truncate or accept them."""
    if isinstance(default, int) and (isinstance(value, bool) or not float(value).is_integer()):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return type(default)(value)


def _build(base, table: dict[str, str], values: dict, what: str):
    """``base`` with the table's keys found in ``values``, each coerced to
    the type of the field's default."""
    try:
        fields = {
            name: _coerce(key, values[key], getattr(base, name))
            for key, name in table.items()
            if key in values
        }
        return replace(base, **fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def _dump(obj, table: dict[str, str]) -> dict:
    return {key: getattr(obj, name) for key, name in table.items()}


def _parse_frame(block) -> np.ndarray:
    block = _check_block("workpiece", block, ("pos_mm", "quat"))
    position = np.asarray(block.get("pos_mm", (0.0, 0.0, 0.0)), dtype=float)
    quat = np.asarray(block.get("quat", (0.0, 0.0, 0.0, 1.0)), dtype=float)
    norm = float(np.linalg.norm(quat))
    if abs(norm - 1.0) > 1e-6:
        raise ConfigError(f"workpiece quaternion norm {norm} deviates from 1")
    return make_pose(quat_to_rot(quat / norm), position)


def _parse_q0(block) -> np.ndarray:
    block = _check_block("q0", block, ("deg", "rad"))
    if len(block) != 1:
        raise ConfigError('q0 must hold exactly one of "deg" or "rad"')
    ((unit, values),) = block.items()
    q = np.asarray(values, dtype=float)
    return np.radians(q) if unit == "deg" else q


def _from_dict(raw) -> RunConfig:
    raw = _check_block("top-level", raw, TOP_LEVEL_KEYS)
    if "toolpath" in raw and "cone" in raw:
        raise ConfigError("give either a toolpath file or a cone block, not both")

    config = RunConfig()
    if raw.get("robot") is not None:
        config.robot_file = str(raw["robot"])
    if "solver" in raw:
        block = _check_block("solver", raw["solver"], [*SOLVER_KEYS, "task_dof"])
        config.solver = _build(config.solver, SOLVER_KEYS, block, "solver block")
        config = _build(config, {"task_dof": "task_dof"}, block, "solver block")
    if "toolpath" in raw:
        config.toolpath_file = str(raw["toolpath"])
        config.cone = None
    if "cone" in raw:
        block = _check_block("cone", raw["cone"], CONE_KEYS)
        config.cone = _build(config.cone, CONE_KEYS, block, "cone block")
    if "workpiece" in raw:
        config.workpiece = _parse_frame(raw["workpiece"])
        config.workpiece_explicit = True
    if "q0" in raw:
        config.q0_rad = _parse_q0(raw["q0"])
    if "sweep" in raw:
        block = _check_block("sweep", raw["sweep"], SWEEP_KEYS)
        config.sweep = _build(config.sweep, SWEEP_KEYS, block, "sweep block")
    if "out_dir" in raw:
        config.out_dir = str(raw["out_dir"])
    return _build(config, {"jobs": "jobs"}, raw, "top-level block")


def load_config(path: str | Path) -> RunConfig:
    """Parse a JSON run-configuration file into a RunConfig."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        return _from_dict(json.loads(path.read_text()))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def resolved_dict(config: RunConfig) -> dict:
    """Full resolved configuration, JSON-ready, for audit headers."""
    out = {
        "robot": config.robot_file,
        "solver": {**_dump(config.solver, SOLVER_KEYS), "task_dof": config.task_dof},
        "workpiece": {
            "pos_mm": config.workpiece[:3, 3].tolist(),
            "quat": rot_to_quat(config.workpiece[:3, :3]).tolist(),
        },
        "q0": {"deg": np.degrees(config.q0_rad).tolist()},
        "sweep": _dump(config.sweep, SWEEP_KEYS),
        "out_dir": config.out_dir,
        "jobs": config.jobs,
    }
    if config.toolpath_file is not None:
        out["toolpath"] = config.toolpath_file
    if config.cone is not None:
        out["cone"] = _dump(config.cone, CONE_KEYS)
    return out


def apply_flag_overrides(config: RunConfig, args) -> RunConfig:
    """Fold parsed argparse flags into a config; flags win over file values.
    Each cone key of ``CONE_KEYS`` is read from its ``--cone-<key>`` flag."""
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
    flags = {key: getattr(args, f"cone_{key}", None) for key in CONE_KEYS}
    updates = {key: value for key, value in flags.items() if value is not None}
    if updates:
        config.cone = _build(config.cone or ConeSpec(), CONE_KEYS, updates, "cone flags")
        config.toolpath_file = None
    return config
