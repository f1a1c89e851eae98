"""Kinematic performance metrics: joint-limit-weighted manipulability,
joint-travel accounting and workpiece-placement sweeps over a wall grid."""

from __future__ import annotations

import collections
import math
import multiprocessing
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, OutOfLimits, PathFailed, PathFailure
from .robot import RobotModel, geometric_jacobian
from .solver import SolverSettings, TaskProjector, solve_toolpath
from .toolpath import Toolpath, assign_adhoc_orientation


def joint_limit_weights(model: RobotModel, q: np.ndarray) -> np.ndarray:
    """Per-joint penalties s_i = (max - q)(q - min) / (max - min)^2.

    Each s_i is a downward parabola in q_i: zero exactly at either limit and
    maximal (1/4) at midrange. Raises OutOfLimits outside [min, max], where
    the penalty would turn negative.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != model.joint_min.shape:
        raise DimensionMismatch(f"expected q of length {model.n}, got shape {q.shape}")
    if np.any(q < model.joint_min) or np.any(q > model.joint_max):
        raise OutOfLimits(f"q {np.round(q, 4)} outside joint limits")
    span = model.joint_max - model.joint_min
    return (model.joint_max - q) * (q - model.joint_min) / (span * span)


def manipulability_jl(model: RobotModel, q: np.ndarray) -> float:
    """Joint-limit-weighted manipulability sqrt(det(J W J^T)).

    W is the diagonal of ``joint_limit_weights``; the Jacobian carries mm
    linear rows, so magnitudes are mm^3-scaled. Zero when any joint sits at a
    limit or the Jacobian is rank-deficient.
    """
    weights = joint_limit_weights(model, q)
    jac = geometric_jacobian(model, q)
    gram = (jac * weights) @ jac.T
    return math.sqrt(max(np.linalg.det(gram), 0.0))


@dataclass(frozen=True)
class TravelReport:
    """Joint-space travel of a trajectory, in degrees."""

    per_joint_deg: np.ndarray
    overall_deg: float


def joint_travel(trajectory: list[np.ndarray]) -> TravelReport:
    """Accumulated |dq| per joint and accumulated Euclidean step norm.

    The overall figure sums the per-step 6D step lengths, so it never exceeds
    the sum of the per-joint totals.
    """
    if len(trajectory) == 0:
        raise ValueError("empty trajectory")
    lengths = {len(q) for q in trajectory}
    if len(lengths) != 1:
        raise DimensionMismatch("trajectory configurations must have uniform length")
    arr = np.asarray(trajectory, dtype=float)
    steps = np.diff(arr, axis=0)
    per_joint = np.degrees(np.abs(steps).sum(axis=0)) if len(steps) else np.zeros(arr.shape[1])
    overall = float(np.degrees(np.linalg.norm(steps, axis=1).sum())) if len(steps) else 0.0
    return TravelReport(per_joint_deg=per_joint, overall_deg=overall)


@dataclass(frozen=True)
class SweepSpec:
    """Wall-grid extents (base frame, mm) and voxel size for placement sweeps.

    The wall is the x = 0 plane; voxel centers tile [y_min, y_max] x
    [z_min, z_max].
    """

    y_min_mm: float = -2400.0
    y_max_mm: float = 0.0
    z_min_mm: float = 0.0
    z_max_mm: float = 2400.0
    voxel_mm: float = 100.0

    def __post_init__(self):
        if self.voxel_mm <= 0:
            raise ValueError("voxel size must be positive")
        if self.y_max_mm <= self.y_min_mm or self.z_max_mm <= self.z_min_mm:
            raise ValueError("grid extents must be non-empty")

    def centers(self) -> tuple[np.ndarray, np.ndarray]:
        n_y = max(1, int(round((self.y_max_mm - self.y_min_mm) / self.voxel_mm)))
        n_z = max(1, int(round((self.z_max_mm - self.z_min_mm) / self.voxel_mm)))
        y = self.y_min_mm + self.voxel_mm * (np.arange(n_y) + 0.5)
        z = self.z_min_mm + self.voxel_mm * (np.arange(n_z) + 0.5)
        return y, z


@dataclass
class WorkspaceMap:
    """Per-voxel reachability, mean manipulability and failure cause for one solve mode."""

    mode: str
    y_centers: np.ndarray
    z_centers: np.ndarray
    reachable: np.ndarray
    mean_w: np.ndarray
    causes: dict[tuple[int, int], PathFailure] = field(default_factory=dict)

    @property
    def reachable_count(self) -> int:
        return int(self.reachable.sum())

    def reachable_means(self) -> np.ndarray:
        return self.mean_w[self.reachable]


MODES = ("adhoc", "frik")


def mode_problem(path: Toolpath, mode: str, task_dof: int) -> tuple[Toolpath, TaskProjector]:
    """The toolpath and task a solve mode solves for ``path``: ``adhoc`` pins
    each target's spin (``assign_adhoc_orientation``) and solves the full
    6-DOF task; ``frik`` solves ``path`` as given on a ``task_dof`` task."""
    if mode == "adhoc":
        return assign_adhoc_orientation(path), TaskProjector(6)
    if mode == "frik":
        return path, TaskProjector(task_dof)
    raise ValueError(f"unknown solve mode {mode!r}")


def _evaluate_mode(
    ctx: dict, path: Toolpath, proj: TaskProjector
) -> tuple[float, PathFailure | None]:
    """Mean manipulability along ``path`` solved from the sweep's q0, or NaN
    and the failure that ended the path."""
    model = ctx["model"]
    beyond = np.linalg.norm(path.base_positions(), axis=1) > ctx["reach"]
    if beyond.any():
        return math.nan, PathFailure("out_of_reach", int(beyond.argmax()))
    try:
        results = solve_toolpath(model, path, ctx["q0"], proj, ctx["settings"])
    except PathFailed as exc:
        return math.nan, exc.failure
    return float(np.mean([manipulability_jl(model, res.q) for res in results])), None


_WORKER: dict = {}


def _init_worker(payload: dict) -> None:
    _WORKER.update(payload)


def _evaluate_voxel(frame: np.ndarray) -> list[tuple[float, PathFailure | None]]:
    ctx = _WORKER
    return [_evaluate_mode(ctx, path.with_frame(frame), proj) for path, proj in ctx["problems"]]


def workspace_sweep(
    model: RobotModel,
    path_template: Toolpath,
    sweep: SweepSpec,
    q0: np.ndarray,
    settings: SolverSettings = SolverSettings(),
    jobs: int = 1,
    frik_task_dof: int = 5,
) -> tuple[WorkspaceMap, WorkspaceMap]:
    """Evaluate workpiece placement on every wall voxel in both solve modes.

    The toolpath template is re-framed at each voxel center (keeping the
    template frame's rotation and x offset) and solved twice from ``q0``:
    once with the ad hoc fully-constrained orientation (6-DOF task) and once
    functionally redundant. A voxel counts as reachable only if every target
    converges with all joints inside their limits; otherwise the
    PathFailure that ended its path (``solve_toolpath``'s, or
    ``out_of_reach`` for a target beyond the reach bound) is recorded as the
    voxel's cause, not raised. Returns ``(adhoc_map, frik_map)``.
    """
    y_centers, z_centers = sweep.centers()
    shape = (len(y_centers), len(z_centers))
    # one placement frame per voxel, (n_y, n_z, 4, 4), flattened y-major
    frames = np.tile(path_template.frame, (*shape, 1, 1))
    frames[..., 1, 3] = y_centers[:, None]
    frames[..., 2, 3] = z_centers
    frames = frames.reshape(-1, 4, 4)
    payload = {
        "model": model,
        "problems": [mode_problem(path_template, mode, frik_task_dof) for mode in MODES],
        "q0": np.asarray(q0, dtype=float),
        "settings": settings,
        "reach": model.reach_bound(),
    }
    if jobs > 1:
        chunk = max(1, len(frames) // (jobs * 8))
        with multiprocessing.Pool(jobs, initializer=_init_worker, initargs=(payload,)) as pool:
            cells = pool.map(_evaluate_voxel, frames, chunksize=chunk)
    else:
        _init_worker(payload)
        cells = [_evaluate_voxel(frame) for frame in frames]

    maps = []
    for mode, mode_cells in zip(MODES, zip(*cells)):
        mean_w, causes = zip(*mode_cells)
        failed = {divmod(v, shape[1]): cause for v, cause in enumerate(causes) if cause is not None}
        reachable = np.array([cause is None for cause in causes]).reshape(shape)
        mean_w = np.array(mean_w).reshape(shape)
        maps.append(WorkspaceMap(mode, y_centers, z_centers, reachable, mean_w, failed))
    return tuple(maps)


def _mode_stats(wmap: WorkspaceMap) -> dict:
    means = wmap.reachable_means()
    stats = {
        "reachable_voxels": wmap.reachable_count,
        "causes": dict(collections.Counter(cause.kind for cause in wmap.causes.values())),
    }
    for name, reduce in (("max_w", np.max), ("mean_w", np.mean), ("std_w", np.std)):
        stats[name] = float(reduce(means)) if means.size else None
    return stats


def workspace_summary(map_adhoc: WorkspaceMap, map_frik: WorkspaceMap) -> dict:
    """Reachable-voxel counts, manipulability statistics and failure-cause
    counts (keyed by ``PathFailure.kind``) for both modes."""
    adhoc = _mode_stats(map_adhoc)
    frik = _mode_stats(map_frik)
    summary = {"adhoc": adhoc, "frik": frik}
    if adhoc["reachable_voxels"]:
        summary["reachable_pct_change"] = 100.0 * (
            frik["reachable_voxels"] - adhoc["reachable_voxels"]
        ) / adhoc["reachable_voxels"]
    frik_only = [
        c for c in map_frik.causes
        if map_adhoc.reachable[c] and not map_frik.reachable[c]
    ]
    summary["adhoc_reachable_frik_not"] = len(frik_only)
    return summary
