"""Run configuration: defaults, JSON config files, CLI overrides.

A run needs a robot (file or the bundled IRB4600), one toolpath source (a
file or the cone generator block), a workpiece placement, a start
configuration, solver settings, and optionally a sweep grid. Values resolve
as: built-in defaults < config file < command-line flags. The ``workpiece``
block is a pose record and ``q0`` a number list, read by ``liegroup``'s
``pose_from_record`` and ``finite_numbers`` as toolpath files are; the
audit header writes the workpiece back with ``pose_record``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .analysis import SweepSpec
from .errors import FrikError, ParseError
from .liegroup import _ValueEquality, finite_numbers, make_pose, pose_from_record, pose_record
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


@dataclass(frozen=True, eq=False)
class RunConfig(_ValueEquality):
    """One run's settings, validated on construction. ``source`` is a cone
    spec or a toolpath file's path. ``workpiece`` is the placement frame; None
    puts a cone at the default placement and keeps a file's own frame. The
    arrays are read-only copies of the arrays given; configs compare and
    hash by value."""

    robot_file: str | None = None
    solver: SolverSettings = field(default_factory=SolverSettings)
    task_dof: int = 5
    source: ConeSpec | str = field(default_factory=ConeSpec)
    workpiece: np.ndarray | None = None
    q0_rad: np.ndarray = field(
        default_factory=lambda: np.radians(np.array(DEFAULT_Q0_DEG))
    )
    sweep: SweepSpec = field(default_factory=SweepSpec)
    out_dir: str = "out"
    jobs: int = 1

    def __post_init__(self):
        for name in ("workpiece", "q0_rad"):
            if (value := getattr(self, name)) is not None:
                object.__setattr__(self, name, np.array(value, dtype=float))
                getattr(self, name).setflags(write=False)
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
# argparse flag (dest) -> RunConfig field; a flag left out or empty keeps the field
FLAG_FIELDS = {
    "robot": "robot_file", "toolpath": "source", "task_dof": "task_dof", "out": "out_dir",
    "jobs": "jobs",
}


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
    """A workpiece block as a pose: the pose record, at the origin without
    ``pos_mm`` and unrotated without ``quat`` or ``rot``."""
    block = _check_block("workpiece", block, ("pos_mm", "quat", "rot"))
    record = {"pos_mm": [0.0, 0.0, 0.0], **block}
    if "quat" not in record:
        record.setdefault("rot", np.eye(3).tolist())
    try:
        return pose_from_record(record)
    except ParseError as exc:
        raise ConfigError(f"bad workpiece block: {exc}") from exc


def _parse_q0(block) -> np.ndarray:
    block = _check_block("q0", block, ("deg", "rad"))
    if len(block) != 1:
        raise ConfigError('q0 must hold exactly one of "deg" or "rad"')
    (unit,) = block
    try:
        q = finite_numbers(block, unit)
    except ParseError as exc:
        raise ConfigError(f"bad q0 block: {exc}") from exc
    return np.radians(q) if unit == "deg" else q


def _from_dict(raw) -> RunConfig:
    raw = _check_block("top-level", raw, TOP_LEVEL_KEYS)
    if "toolpath" in raw and "cone" in raw:
        raise ConfigError("give either a toolpath file or a cone block, not both")

    config = RunConfig()
    if raw.get("robot") is not None:
        config = replace(config, robot_file=str(raw["robot"]))
    if "solver" in raw:
        block = _check_block("solver", raw["solver"], [*SOLVER_KEYS, "task_dof"])
        config = replace(config, solver=_build(config.solver, SOLVER_KEYS, block, "solver block"))
        config = _build(config, {"task_dof": "task_dof"}, block, "solver block")
    if "toolpath" in raw:
        config = replace(config, source=str(raw["toolpath"]))
    if "cone" in raw:
        block = _check_block("cone", raw["cone"], CONE_KEYS)
        config = replace(config, source=_build(ConeSpec(), CONE_KEYS, block, "cone block"))
    if "workpiece" in raw:
        config = replace(config, workpiece=_parse_frame(raw["workpiece"]))
    if "q0" in raw:
        config = replace(config, q0_rad=_parse_q0(raw["q0"]))
    if "sweep" in raw:
        block = _check_block("sweep", raw["sweep"], SWEEP_KEYS)
        config = replace(config, sweep=_build(config.sweep, SWEEP_KEYS, block, "sweep block"))
    if "out_dir" in raw:
        config = replace(config, out_dir=str(raw["out_dir"]))
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
    """Full resolved configuration, JSON-ready, for audit headers; it loads
    back as the same config (q0 in rad; ``workpiece`` as its pose record, or
    left out when None)."""
    out = {
        "robot": config.robot_file,
        "solver": {**_dump(config.solver, SOLVER_KEYS), "task_dof": config.task_dof},
        "q0": {"rad": config.q0_rad.tolist()},
        "sweep": _dump(config.sweep, SWEEP_KEYS),
        "out_dir": config.out_dir,
        "jobs": config.jobs,
    }
    if isinstance(config.source, ConeSpec):
        out["cone"] = _dump(config.source, CONE_KEYS)
    else:
        out["toolpath"] = config.source
    if config.workpiece is not None:
        out["workpiece"] = pose_record(config.workpiece)
    return out


def apply_flag_overrides(config: RunConfig, args) -> RunConfig:
    """``config`` with the parsed argparse flags folded in; flags win over file
    values. Each cone key of ``CONE_KEYS`` is read from its ``--cone-<key>``
    flag; over a toolpath source, cone flags start from ``ConeSpec()``."""
    fields = {name: getattr(args, flag, None) for flag, name in FLAG_FIELDS.items()}
    config = replace(config, **{k: v for k, v in fields.items() if v not in (None, "")})
    flags = {key: getattr(args, f"cone_{key}", None) for key in CONE_KEYS}
    updates = {key: value for key, value in flags.items() if value is not None}
    if updates:
        base = config.source if isinstance(config.source, ConeSpec) else ConeSpec()
        config = replace(config, source=_build(base, CONE_KEYS, updates, "cone flags"))
    return config
