"""Toolpath data model, cone-spiral generation, and file round-tripping.

A toolpath is one (N, 4, 4) array of target poses in path order, expressed
relative to a workpiece frame; a target's index is its position in the
array. Each target's z-axis is the required tool-approach direction
(pointing into the surface). ``base_poses`` maps the whole path to the
robot base with one broadcast product.

A toolpath file holds its frame and every target as the pose records that
``liegroup.pose_from_record`` reads and ``liegroup.pose_record`` writes,
so a saved path loads back bit for bit. CSV import takes quaternion
columns; the loaders prefix every error with the file and record.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ParseError
from .liegroup import _dot, _ValueEquality, pose_from_record, pose_record


@dataclass(frozen=True, eq=False)
class Toolpath(_ValueEquality):
    """Target poses (N, 4, 4) in workpiece coordinates, in path order, plus
    the workpiece placement frame. Both are read-only copies of the arrays
    given, and toolpaths compare and hash by their values."""

    poses: np.ndarray
    frame: np.ndarray = field(default_factory=lambda: np.eye(4))

    def __post_init__(self):
        for name in ("poses", "frame"):
            value = np.array(getattr(self, name), dtype=float)
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        if self.poses.ndim != 3 or self.poses.shape[1:] != (4, 4) or not len(self.poses):
            raise ValueError(f"poses must be a non-empty (N, 4, 4) array, got {self.poses.shape}")

    def __len__(self) -> int:
        return len(self.poses)

    def base_poses(self) -> np.ndarray:
        """(N, 4, 4) target poses in the robot base frame."""
        return self.frame @ self.poses

    def with_frame(self, frame: np.ndarray) -> "Toolpath":
        return replace(self, frame=frame)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.sqrt(_dot(v, v))[..., None]


def _pose_stack(x_axis: np.ndarray, z_axis: np.ndarray, position: np.ndarray) -> np.ndarray:
    """(N, 4, 4) poses from unit x and z axes (y = z x x) and positions."""
    poses = np.tile(np.eye(4), (len(position), 1, 1))
    poses[:, :3, :3] = np.stack([x_axis, np.cross(z_axis, x_axis), z_axis], -1)
    poses[:, :3, 3] = position
    return poses


@dataclass(frozen=True)
class ConeSpec:
    """Cone-spiral parameters: diameter/height of the cone, spiral pitch per
    revolution, samples per revolution, and TCP standoff along the outward
    surface normal (all mm)."""

    diameter: float = 100.0
    height: float = 50.0
    pitch: float = 2.0
    samples_per_rev: int = 114
    standoff: float = 0.0

    def __post_init__(self):
        # written so that NaN fails them
        if not (self.diameter > 0 and self.height > 0 and self.pitch > 0):
            raise ValueError("diameter, height and pitch must be positive")
        if not self.standoff >= 0:
            raise ValueError("standoff must be non-negative")
        if not self.samples_per_rev >= 8:
            raise ValueError("samples_per_rev must be at least 8")


def cone_surface_point(spec: ConeSpec, azimuth, z) -> np.ndarray:
    """Surface point(s) at ``azimuth`` and height ``z``: scalars or arrays of
    equal shape, stacked along a last axis of 3."""
    radius = 0.5 * spec.diameter * (1.0 - z / spec.height)
    return np.stack([radius * np.cos(azimuth), radius * np.sin(azimuth), z], -1)


def cone_outward_normal(spec: ConeSpec, azimuth) -> np.ndarray:
    """Unit outward surface normal(s); independent of height along a ruling."""
    slope = 0.5 * spec.diameter / spec.height
    return _unit(np.stack(np.broadcast_arrays(np.cos(azimuth), np.sin(azimuth), slope), -1))


def generate_cone_spiral(spec: ConeSpec) -> Toolpath:
    """Spiral of tool targets over the cone surface, base to apex.

    Consecutive targets advance 2*pi/samples_per_rev in azimuth and
    pitch/samples_per_rev in climb; the final target lands exactly on the
    apex. Each target sits ``standoff`` outside the surface with its z-axis
    along the inward normal and its x-axis along the up-slant tangent.
    """
    slope = 0.5 * spec.diameter / spec.height
    climb = spec.pitch / spec.samples_per_rev
    k = np.arange(math.ceil(spec.height / climb) + 1)
    azimuth = 2.0 * math.pi * k / spec.samples_per_rev
    z = np.minimum(k * climb, spec.height)
    normal = cone_outward_normal(spec, azimuth)
    position = cone_surface_point(spec, azimuth, z) + spec.standoff * normal
    tangent_up = _unit(
        np.stack([-slope * np.cos(azimuth), -slope * np.sin(azimuth), np.ones_like(azimuth)], -1)
    )
    return Toolpath(poses=_pose_stack(tangent_up, -normal, position))


def assign_adhoc_orientation(path: Toolpath) -> Toolpath:
    """Pin each target's free spin by aligning its x-axis with the workpiece x.

    The workpiece-frame x-axis is projected onto the plane perpendicular to
    the target's approach direction (which is preserved exactly); y completes
    the right-handed frame. Targets whose approach direction is parallel to
    the workpiece x project the workpiece y-axis instead, which is then
    perpendicular to it.
    """
    z_axis = path.poses[:, :3, 2]

    def reject(ref: np.ndarray, z: np.ndarray) -> np.ndarray:
        return ref - _dot(ref, z)[:, None] * z

    projected = reject(np.array([1.0, 0.0, 0.0]), z_axis)
    fallback = np.sqrt(_dot(projected, projected)) < 1e-9
    projected[fallback] = reject(np.array([0.0, 1.0, 0.0]), z_axis[fallback])
    poses = _pose_stack(_unit(projected), z_axis, path.poses[:, :3, 3])
    return Toolpath(poses=poses, frame=path.frame)


def _pose(record, where: str) -> np.ndarray:
    """``pose_from_record`` with ``where`` leading its error message."""
    try:
        return pose_from_record(record)
    except ParseError as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def _target_pose(record: dict, i: int, where: str) -> np.ndarray:
    """Pose of a file's ``i``-th target record, whose ``k`` (if given) must be ``i``."""
    pose = _pose(record, where)
    k = record.get("k", i)
    if type(k) is not int or k != i:
        raise ParseError(f"{where}: k must be {i} (integers 0, 1, 2, ... in file order), got {k!r}")
    return pose


def _load_json(path: Path) -> Toolpath:
    text = path.read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top level must be an object")
    records = raw.get("targets")
    if not isinstance(records, list) or not records:
        raise ParseError(f"{path}: targets must be a non-empty list of records")
    poses = [_target_pose(rec, i, f"{path}: target record {i}") for i, rec in enumerate(records)]
    frame_rec = raw.get("frame")
    frame = np.eye(4) if frame_rec is None else _pose(frame_rec, f"{path}: frame")
    return Toolpath(poses=np.stack(poses), frame=frame)


_CSV_COLUMNS = ["k", "x_mm", "y_mm", "z_mm", "qx", "qy", "qz", "qw"]


def _load_csv(path: Path) -> Toolpath:
    poses = []
    with path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise ParseError(f"{path}: empty file")
        missing = [c for c in _CSV_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise ParseError(f"{path}: missing columns {missing}")
        for i, row in enumerate(reader):
            where = f"{path}: line {i + 2}"
            try:
                record = {
                    "k": int(row["k"]),
                    "pos_mm": [float(row[c]) for c in ("x_mm", "y_mm", "z_mm")],
                    "quat": [float(row[c]) for c in ("qx", "qy", "qz", "qw")],
                }
            except (TypeError, ValueError) as exc:
                raise ParseError(f"{where}: {exc}") from exc
            poses.append(_target_pose(record, i, where))
    if not poses:
        raise ParseError(f"{path}: no targets")
    return Toolpath(poses=np.stack(poses))


def load_toolpath(path: str | Path) -> Toolpath:
    """Read a toolpath file; JSON by default, CSV for a ``.csv`` suffix."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return _load_csv(path)
    return _load_json(path)


def toolpath_to_dict(path: Toolpath) -> dict:
    return {
        "frame": pose_record(path.frame),
        "targets": [{"k": k, **pose_record(pose)} for k, pose in enumerate(path.poses)],
    }


def save_toolpath(path: Toolpath, file: str | Path) -> None:
    Path(file).write_text(json.dumps(toolpath_to_dict(path), indent=1, sort_keys=True))
