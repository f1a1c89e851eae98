"""Output checks for the benchmark, written against numpy alone.

Nothing here imports frik: forward kinematics, the cone-spiral targets and
the joint-travel sums are recomputed from the robot and run-config JSON
files, so a wrong answer from the program cannot also hide in its checker.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# A converged solve drives its task residual (mm and rad) below 1e-6; these
# leave room for the degree round trip through the trajectory CSV.
POS_TOL_MM = 1e-4
ROT_TOL_RAD = 1e-5
TRAVEL_RTOL = 1e-9


class Robot:
    """DH chain read from a robot description file (see configs/irb4600.json)."""

    def __init__(self, path: Path):
        raw = json.loads(Path(path).read_text())
        rows = raw["dh"]
        self.a = np.array([r["a_mm"] for r in rows], dtype=float)
        self.alpha = np.array([r["alpha_rad"] for r in rows], dtype=float)
        self.d = np.array([r["d_mm"] for r in rows], dtype=float)
        self.offset = np.array([r.get("theta_rad", 0.0) for r in rows], dtype=float)
        limits = raw["joint_limits_rad"]
        self.joint_min = np.array(limits["min"], dtype=float)
        self.joint_max = np.array(limits["max"], dtype=float)
        tool = raw.get("tool")
        self.tool = np.eye(4) if tool is None else np.array(tool, dtype=float).reshape(4, 4)
        self.modified = raw.get("dh_convention", "standard") == "modified"

    def fk(self, q: np.ndarray) -> np.ndarray:
        """Base-to-TCP poses, shape (m, 4, 4), for joint rows ``q`` of shape (m, n)."""
        q = np.atleast_2d(np.asarray(q, dtype=float))
        m = q.shape[0]
        t = np.broadcast_to(np.eye(4), (m, 4, 4)).copy()
        for i in range(len(self.a)):
            theta = q[:, i] + self.offset[i]
            rz = _rot_z(theta)
            rz[:, 2, 3] = self.d[i]
            rx = _rot_x(np.full(m, self.alpha[i]))
            rx[:, 0, 3] = self.a[i]
            t = t @ (rx @ rz if self.modified else rz @ rx)
        return t @ self.tool


def _rot_z(theta: np.ndarray) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    out = np.zeros((len(theta), 4, 4))
    out[:, 0, 0], out[:, 0, 1], out[:, 1, 0], out[:, 1, 1] = c, -s, s, c
    out[:, 2, 2] = out[:, 3, 3] = 1.0
    return out


def _rot_x(alpha: np.ndarray) -> np.ndarray:
    c, s = np.cos(alpha), np.sin(alpha)
    out = np.zeros((len(alpha), 4, 4))
    out[:, 1, 1], out[:, 1, 2], out[:, 2, 1], out[:, 2, 2] = c, -s, s, c
    out[:, 0, 0] = out[:, 3, 3] = 1.0
    return out


def _quat_to_rot(quat) -> np.ndarray:
    x, y, z, w = np.asarray(quat, dtype=float) / np.linalg.norm(quat)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def workpiece_frame(config: dict) -> np.ndarray:
    block = config.get("workpiece", {})
    frame = np.eye(4)
    frame[:3, :3] = _quat_to_rot(block.get("quat", (0.0, 0.0, 0.0, 1.0)))
    frame[:3, 3] = block.get("pos_mm", (0.0, 0.0, 0.0))
    return frame


def cone_targets(cone: dict, frame: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Base-frame cone-spiral targets: (functionally redundant, ad hoc), each (m, 4, 4).

    Targets climb pitch/samples_per_rev per step from base to apex, sit on
    the surface with z along the inward normal and x up the slant; the ad
    hoc copy pins x to the workpiece x-axis projected into the tool plane.
    """
    diameter = float(cone.get("diameter_mm", 100.0))
    height = float(cone.get("height_mm", 50.0))
    pitch = float(cone.get("pitch_mm", 2.0))
    per_rev = int(cone.get("samples_per_rev", 114))
    standoff = float(cone.get("standoff_mm", 0.0))
    slope = 0.5 * diameter / height
    climb = pitch / per_rev
    k = np.arange(math.ceil(height / climb) + 1)
    azimuth = 2.0 * math.pi * k / per_rev
    z = np.minimum(k * climb, height)
    c, s = np.cos(azimuth), np.sin(azimuth)
    normal = np.stack([c, s, np.full_like(c, slope)], axis=1)
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    radius = 0.5 * diameter * (1.0 - z / height)
    position = np.stack([radius * c, radius * s, z], axis=1) + standoff * normal
    up = np.stack([-slope * c, -slope * s, np.ones_like(c)], axis=1)
    up /= np.linalg.norm(up, axis=1, keepdims=True)
    approach = -normal

    def poses(x_axis):
        local = np.zeros((len(k), 4, 4))
        local[:, :3, 0] = x_axis
        local[:, :3, 1] = np.cross(approach, x_axis)
        local[:, :3, 2] = approach
        local[:, :3, 3] = position
        local[:, 3, 3] = 1.0
        return frame @ local

    ref = np.array([1.0, 0.0, 0.0])
    projected = ref - (approach @ ref)[:, None] * approach
    if np.any(np.linalg.norm(projected, axis=1) < 1e-9):
        raise ValueError("cone approach axis parallel to workpiece x: no ad hoc frame")
    projected /= np.linalg.norm(projected, axis=1, keepdims=True)
    return poses(up), poses(projected)


def pose_ok(reached: np.ndarray, target: np.ndarray, full_pose: bool) -> np.ndarray:
    """Per pose: position and tool z-axis (and the full rotation if asked) match."""
    pos = np.linalg.norm(reached[:, :3, 3] - target[:, :3, 3], axis=1)
    cos_z = np.einsum("ij,ij->i", reached[:, :3, 2], target[:, :3, 2])
    ok = (pos < POS_TOL_MM) & (np.arccos(np.clip(cos_z, -1.0, 1.0)) < ROT_TOL_RAD)
    if full_pose:
        rel = np.einsum("mji,mjk->mik", target[:, :3, :3], reached[:, :3, :3])
        cos_r = 0.5 * (np.trace(rel, axis1=1, axis2=2) - 1.0)
        ok &= np.arccos(np.clip(cos_r, -1.0, 1.0)) < ROT_TOL_RAD
    return ok


def _data_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh) if row and not row[0].startswith("#")]


def read_trajectory(path: Path) -> dict[str, np.ndarray]:
    """Columns of a trajectory CSV by name; joints as (m, n) radians under ``q``."""
    header, *rows = _data_rows(path)
    table = np.array(rows, dtype=float).reshape(len(rows), len(header))
    cols = {name: table[:, i] for i, name in enumerate(header)}
    joints = [name for name in header if name.startswith("q") and name.endswith("_deg")]
    cols["q"] = np.radians(np.stack([cols[name] for name in joints], axis=1))
    return cols


def travel_deg(q: np.ndarray) -> tuple[np.ndarray, float]:
    steps = np.diff(np.degrees(q), axis=0)
    return np.abs(steps).sum(axis=0), float(np.linalg.norm(steps, axis=1).sum())


def read_travel_report(path: Path) -> dict[str, dict[str, float]]:
    """{mode: {"J1": deg, ..., "overall_6d": deg}} from a two-mode travel report."""
    header, *rows = _data_rows(path)
    modes = [name.split("_")[1] for name in header[1:3]]
    return {mode: {row[0]: float(row[1 + i]) for row in rows} for i, mode in enumerate(modes)}


def check_compare(out_dir: Path, robot: Robot, targets: dict[str, np.ndarray], epsilon: float):
    """Check one ``frik compare`` output directory.

    Returns (attempted, failed, problems, per-mode trajectory columns). Each
    trajectory row is one operation: it fails if the row is missing, its
    residual is not below ``epsilon`` or its recomputed pose misses the
    target (position and tool axis; the full pose for ad hoc). The travel
    report is one more operation per mode.
    """
    problems: list[str] = []
    report = read_travel_report(out_dir / "travel_report.csv")
    attempted = failed = 0
    columns = {}
    for mode, target in targets.items():
        cols = read_trajectory(out_dir / f"trajectory_{mode}.csv")
        columns[mode] = cols
        m = min(len(cols["k"]), len(target))
        attempted += len(target) + 1
        ok = np.zeros(len(target), dtype=bool)
        ok[:m] = (cols["residual"][:m] < epsilon) & pose_ok(
            robot.fk(cols["q"][:m]), target[:m], full_pose=(mode == "adhoc")
        )
        ok[:m] &= cols["k"][:m] == np.arange(m)
        if not ok.all():
            bad = np.flatnonzero(~ok)
            problems.append(f"{mode}: {len(bad)} rows miss their target, first k={bad[0]}")
            failed += len(bad)
        per_joint, overall = travel_deg(cols["q"])
        claimed = report[mode]
        expect = np.array([claimed[f"J{i + 1}"] for i in range(len(per_joint))])
        if not (
            np.allclose(per_joint, expect, rtol=TRAVEL_RTOL, atol=1e-9)
            and math.isclose(overall, claimed["overall_6d"], rel_tol=TRAVEL_RTOL)
        ):
            problems.append(f"{mode}: travel report {claimed['overall_6d']} != recomputed {overall}")
            failed += 1
    return attempted, failed, problems, columns


def read_workspace(out_dir: Path) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray], dict]:
    """(reachable flags, mean_w cells) per mode from workspace.csv, plus the summary."""
    header, *rows = _data_rows(out_dir / "workspace.csv")
    col = {name: i for i, name in enumerate(header)}
    reach, mean_w = {}, {}
    for mode in ("adhoc", "frik"):
        reach[mode] = np.array([row[col[f"reachable_{mode}"]] == "1" for row in rows])
        mean_w[mode] = np.array(
            [float(row[col[f"w_{mode}"]]) if row[col[f"w_{mode}"]] else math.nan for row in rows]
        )
    summary = json.loads((out_dir / "workspace_summary.json").read_text())["summary"]
    return reach, mean_w, summary


def check_workspace(out_dir: Path, voxels: int, causes: dict[str, set[int]] | None = None):
    """Check one ``frik workspace`` output directory.

    Each voxel and mode is one operation. It fails if it is missing, if a
    reachable voxel lacks a finite positive mean manipulability (or an
    unreachable one carries a value), or, when the sweep's own failure
    causes are given (as CSV row indices per mode), if it is reachable while
    a cause is recorded for it or unreachable without one. The summary's reachable counts must match
    the CSV. Returns (attempted, failed, problems, reachable counts).
    """
    reach, mean_w, summary = read_workspace(out_dir)
    problems: list[str] = []
    attempted = 2 * voxels
    failed = 0
    counts = {}
    for mode in ("adhoc", "frik"):
        ok_rows = reach[mode]
        w = mean_w[mode]
        good = np.where(ok_rows, np.isfinite(w) & (w > 0), np.isnan(w))
        if causes is not None:
            flagged = np.zeros(len(ok_rows), dtype=bool)
            flagged[sorted(causes[mode])] = True
            good &= ok_rows != flagged
        failed += int((~good).sum()) + max(0, voxels - len(ok_rows))
        if not good.all() or len(ok_rows) != voxels:
            problems.append(f"{mode}: {int((~good).sum())} inconsistent voxels of {len(ok_rows)}")
        counts[mode] = int(ok_rows.sum())
        if summary[mode]["reachable_voxels"] != counts[mode]:
            problems.append(f"{mode}: summary says {summary[mode]['reachable_voxels']} reachable")
            failed += 1
    return attempted, failed, problems, counts
