"""Kinematic performance metrics: joint-limit-weighted manipulability,
joint-travel accounting and workpiece-placement sweeps over a wall grid."""

from __future__ import annotations

import collections
import math
import multiprocessing
from dataclasses import dataclass, field

import numpy as np

# the LAPACK gufunc behind np.linalg.det, called without its wrapper (see
# manipulability_jl)
from numpy.linalg import _umath_linalg

from .errors import DimensionMismatch, OutOfLimits, PathFailure, RotationNearPi
from .robot import RobotModel, chain_stack_lanes, jacobian_from_frames
from .solver import (
    LaneWorkspace,
    SolverSettings,
    TaskProjector,
    solve_lanes,
    target_failures,
    wrist_branch_check,
)
from .toolpath import Toolpath, assign_adhoc_orientation


def joint_limit_weights(model: RobotModel, q: np.ndarray) -> np.ndarray:
    """Per-joint penalties s_i = (max - q)(q - min) / (max - min)^2.

    Each s_i is a downward parabola in q_i: zero exactly at either limit and
    maximal (1/4) at midrange. Raises OutOfLimits outside [min, max], where
    the penalty would turn negative. ``q`` is (n,) or a (V, n) lane stack.
    """
    q = np.asarray(q, dtype=float)
    if q.shape[-1:] != model.joint_min.shape:
        raise DimensionMismatch(f"expected q of length {model.n}, got shape {q.shape}")
    if (q < model.joint_min).any() or (q > model.joint_max).any():
        raise OutOfLimits(f"q {np.round(q, 4)} outside joint limits")
    span = model.joint_max - model.joint_min
    return (model.joint_max - q) * (q - model.joint_min) / (span * span)


def manipulability_jl(
    model: RobotModel, q: np.ndarray, walk: np.ndarray | None = None
) -> float | np.ndarray:
    """Joint-limit-weighted manipulability sqrt(det(J W J^T)).

    W is the diagonal of ``joint_limit_weights``; the Jacobian carries mm
    linear rows, so magnitudes are mm^3-scaled. Zero when any joint sits at a
    limit or the Jacobian is rank-deficient. A (V, n) lane stack of ``q``
    gives (V,) values from one chain walk of the stack, each rounded as its
    lane's own call. ``walk``, when given, must be that walk,
    ``chain_stack_lanes(model, q)`` (e.g. the ``walk`` of the ``solve_lanes``
    that returned ``q``), and is taken in place of walking. The determinant
    is the LAPACK gufunc that ``np.linalg.det`` wraps, with the same bits.
    """
    weights = np.atleast_2d(joint_limit_weights(model, q))
    if walk is None:
        walk = chain_stack_lanes(model, np.atleast_2d(q))
    n = model.n
    axes, origins = walk[:n, :, :3, 2].swapaxes(0, 1), walk[:n, :, :3, 3].swapaxes(0, 1)
    jac, _ = jacobian_from_frames(walk[n, :, :3, 3], axes, origins)
    # an (L, 6, n) copy, as solve_lanes' damped steps take: the gram's
    # matmul must see each lane's rows as a one-lane call does
    jac = np.ascontiguousarray(jac.transpose(2, 0, 1))
    gram = (jac * weights[:, None]) @ jac.swapaxes(1, 2)
    w = np.sqrt(np.maximum(_umath_linalg.det(gram, signature="d->d"), 0.0))
    return float(w[0]) if np.ndim(q) == 1 else w


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
        # written so that NaN and the infinities fail them
        if not 0 < self.voxel_mm < math.inf:
            raise ValueError("voxel size must be positive and finite")
        if not (
            -math.inf < self.y_min_mm < self.y_max_mm < math.inf
            and -math.inf < self.z_min_mm < self.z_max_mm < math.inf
        ):
            raise ValueError("grid extents must be finite and non-empty")

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


# lane-targets whose manipulability _sweep_mode takes in one call. The
# call's walk, links and Jacobians peak near 2 kB per lane-target (0.3 MB
# at 128), so one call for a whole path would take tens of MB (38 MB for
# the bundled cone's 2851 targets at 7 lanes)
W_BLOCK = 128


def _sweep_mode(
    model: RobotModel,
    path: Toolpath,
    proj: TaskProjector,
    frames: np.ndarray,
    q0: np.ndarray,
    settings: SolverSettings,
) -> tuple[np.ndarray, np.ndarray, dict[int, PathFailure]]:
    """Solve ``path`` placed at each of the (V, 4, 4) ``frames`` from ``q0``,
    all placements in lockstep, one lane per voxel.

    Each lane meets the targets of ``solve_toolpath`` of its placement and
    its path rules, ``wrist_branch_check`` at k = 0 and ``target_failures``,
    and rounds as it does, so the results are that call's: whether the
    voxel is reachable, its mean manipulability (NaN when not) and the
    PathFailure of each voxel that is not, keyed by voxel. A voxel with a
    target beyond the reach bound fails as ``out_of_reach`` before any
    solve. Targets are re-framed one at a time, for the live lanes only, and
    each target's lanes start from the chain walk their last solve ended on
    (``solve_lanes``' ``walk``). Every solve writes into one
    ``LaneWorkspace`` for the live lanes, built again only when a voxel
    fails. The live lanes' joints are kept over a
    block of targets, at most ``W_BLOCK`` lane-targets (one target when more
    lanes than that are live), and their manipulability is taken in one
    ``manipulability_jl`` call per block; a lane that fails leaves the block
    with its joints, and the last target closes the last block. Each value
    is a pure function of its joints, so it is the one a call per target
    would give. A block of one target takes the walk its solve returned, the
    walk at the same joints, rather than walking again.
    """
    reach = model.reach_bound()
    causes: dict[int, PathFailure] = {}
    positions = path.poses[:, :3, 3]
    for v, frame in enumerate(frames):
        beyond = np.linalg.norm(positions @ frame[:3, :3].T + frame[:3, 3], axis=1) > reach
        if beyond.any():
            causes[v] = PathFailure("out_of_reach", int(beyond.argmax()))
    live = np.array([v for v in range(len(frames)) if v not in causes], dtype=int)
    q = np.tile(q0, (len(live), 1))
    walk = work = None
    w = np.empty((len(frames), len(path)))
    block: list[np.ndarray] = []
    for k, pose in enumerate(path.poses):
        if not live.size:
            break
        if work is None or work.lanes != len(live):
            work = LaneWorkspace(model, proj.r, len(live))
        t_d = frames[live] @ pose
        q, converged, _, half_turn, walk = solve_lanes(model, t_d, q, proj, settings, walk, work)
        if k == 0:
            for lane in np.flatnonzero(converged):
                try:
                    check = wrist_branch_check(model, t_d[lane], q0, q[lane], proj, settings)
                except RotationNearPi:
                    half_turn[lane] = True
                    continue
                if check is not None:
                    q[lane], walk[:, lane] = check.q, check.walk
        failures = target_failures(model, q, converged, half_turn, k)
        for lane, failure in failures.items():
            causes[int(live[lane])] = failure
        if failures:
            ok = np.ones(len(live), dtype=bool)
            ok[list(failures)] = False
            live, q = live[ok], q[ok]
            walk = walk[:, ok]
            block = [joints[ok] for joints in block]
        block.append(q)
        if live.size and ((len(block) + 1) * len(live) > W_BLOCK or k == len(path) - 1):
            held = np.stack(block, 1)
            w[live, k + 1 - len(block) : k + 1] = manipulability_jl(
                model, held.reshape(-1, model.n), walk if len(block) == 1 else None
            ).reshape(held.shape[:2])
            block = []
    mean_w = np.full(len(frames), math.nan)
    for v in live:
        mean_w[v] = np.mean(w[v])
    reachable = np.zeros(len(frames), dtype=bool)
    reachable[live] = True
    return reachable, mean_w, causes


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
    voxel's cause, not raised. Each mode solves all voxels as one lane stack
    (``_sweep_mode``); with ``jobs`` >= 2 the modes run in worker processes,
    at most one per mode. Returns ``(adhoc_map, frik_map)``.
    """
    y_centers, z_centers = sweep.centers()
    shape = (len(y_centers), len(z_centers))
    # one placement frame per voxel, (n_y, n_z, 4, 4), flattened y-major
    frames = np.tile(path_template.frame, (*shape, 1, 1))
    frames[..., 1, 3] = y_centers[:, None]
    frames[..., 2, 3] = z_centers
    frames = frames.reshape(-1, 4, 4)
    q0 = np.asarray(q0, dtype=float)
    tasks = [
        (model, *mode_problem(path_template, mode, frik_task_dof), frames, q0, settings)
        for mode in MODES
    ]
    if jobs > 1:
        with multiprocessing.Pool(min(jobs, len(tasks))) as pool:
            results = pool.starmap(_sweep_mode, tasks)
    else:
        results = [_sweep_mode(*task) for task in tasks]

    maps = []
    for mode, (reachable, mean_w, causes) in zip(MODES, results):
        failed = {divmod(v, shape[1]): causes[v] for v in sorted(causes)}
        maps.append(WorkspaceMap(
            mode, y_centers, z_centers, reachable.reshape(shape), mean_w.reshape(shape), failed
        ))
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
