"""Functionally redundant inverse kinematics (FRIK).

``solve`` iterates in the target frame. Each iteration walks the chain in
the base frame, as the (n + 1, 4, 4) frame stack of ``robot.chain_stack``,
and rotates the whole stack once by R_d^T, one matmul: the TCP pose, the
joint axes and the origins are views of the result, along the target's
axes. There the task is the first r of the six twist rows (r = 5 drops the
spin about the target z-axis, r = 3 keeps position only), so the error,
``task_error``, is formed with r rows, and the Jacobian of the rotated walk
is already the projected one: the task Jacobian is its first r rows. The
joint update, ``task_step``, clamps the error to ``e_max``, takes a damped
least-squares step (Wampler 1986) on those rows, and for the "halley" method
solves again on the first r rows of the Jacobian augmented by half the
Hessian contracted along that first step, J + H dq / 2, giving third-order
convergence. ``H dq`` is formed in O(n), without the n x n tensor, by
``robot.rolled_hessian_product`` from the rolled rows the Jacobian was
crossed on; it turns with the frame as J does, so it too is taken on the
rotated walk. The error is formed in Python floats and written into one
r-vector.

Every iteration walks the chain once, at its joints; the last walk is the
one whose error ends the solve, taken at the returned joints. ``solve``
returns that walk's frame stack as ``SolveResult.walk`` and takes a start
stack as ``walk``, so a caller that starts the next solve from the returned
joints hands the walk on instead of walking again: every warm-started
target of ``solve_toolpath`` after the first walks once less (after a kept
k = 0 wrist flip, from the check solve's walk). ``solve_lanes`` carries its
lanes' walks the same way, in the same format (``LaneSolves.walk``, the
(n + 1, L, 4, 4) stack of ``robot.chain_stack_lanes``, lane v a
``chain_stack``), from one target of the workspace sweep to the next. A
walk is a pure function of model and joints, so no result changes, and
every walk is still computed inside some solve's timer.

The error is the position difference plus an orientation error tuned to
the task. For r = 6 the orientation error is the rotation vector taking the
TCP orientation onto the target; for r = 5 it is the minimal rotation
aligning the TCP z-axis with the target z-axis, which depends on the target
only through its z-axis. That makes every solver iterate invariant, up to
round-off, to re-spinning the target about its own z-axis, and a converged
r = 5 solve places the TCP position on the target exactly (within
tolerance).

``solve_lanes`` iterates ``solve`` for a stack of problems in lockstep, each
lane rounding exactly as its own ``solve`` (the workspace sweep's kernel).
Its lanes keep their own walk function, error and damped step, which
measured faster on stacks: they rotate the TCP before the convergence check
and the axes and origins of the lanes that go on after it, sliced from the
frame stack. The Jacobian and the Halley product are ``solve``'s kernels,
called once on a lane stack whose lane axis is last. The rules that end or
adjust a path, ``target_failures`` and ``wrist_branch_check``, are kept here
once, scalar code that ``solve_toolpath`` and the sweep both call.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

# the LAPACK gufuncs behind np.linalg.solve, called without its wrapper (see
# damped_step)
from numpy.linalg import _umath_linalg

from .errors import DimensionMismatch, PathFailed, PathFailure, RotationNearPi
from .liegroup import PI_MARGIN, SMALL_ANGLE, _dot, so3_log
from .robot import (
    RobotModel,
    chain_stack,
    chain_stack_lanes,
    jacobian_from_frames,
    rolled_hessian_product,
)

TASK_DOFS = (3, 5, 6)


@dataclass(frozen=True)
class TaskProjector:
    """Task dimension r: how many of the six twist components the task keeps."""

    r: int

    def __post_init__(self):
        if self.r not in TASK_DOFS:
            raise ValueError(f"task dimension must be one of {TASK_DOFS}, got {self.r}")


@dataclass(frozen=True)
class SolverSettings:
    """Iteration parameters. ``lam`` is the damping factor (must be > 0).

    The default damping is small relative to the Jacobian's angular-row
    scale: large enough to bound steps through singular configurations, small
    enough that near-singular but reachable targets still converge to tight
    tolerances within the iteration cap.
    """

    lam: float = 0.02
    e_max: float = 50.0
    epsilon: float = 1e-6
    max_iterations: int = 100
    method: str = "halley"
    record_residuals: bool = False

    def __post_init__(self):
        # written so that NaN and the infinities fail them
        if not 0 < self.lam < math.inf:
            raise ValueError("lam must be positive and finite")
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if not 0 < self.e_max < math.inf:
            raise ValueError("e_max must be positive and finite")
        if not 1 <= self.max_iterations < math.inf:
            raise ValueError("max_iterations must be at least 1 and finite")
        if self.method not in ("newton", "halley"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass
class SolveResult:
    """Outcome of one ``solve``.

    ``saturation_flags`` (with ``record_residuals``) holds, for each step,
    whether its target-frame task error norm exceeded ``e_max``, so that the
    step was clamped. ``walk`` is the base-frame chain walk at ``q`` as its
    (n + 1, 4, 4) frame stack (``chain_stack``), the one the last iteration
    took, for the next solve from ``q`` to start from.
    """

    q: np.ndarray
    converged: bool
    iterations: int
    residual: np.ndarray
    wall_time_us: float
    saturation_flags: list[bool] | None = field(default=None, repr=False)
    walk: np.ndarray | None = field(default=None, repr=False, compare=False)


def task_error(tcp: np.ndarray, p_d: np.ndarray, r: int) -> np.ndarray:
    """The r-row task error of a TCP pose given in the target frame.

    ``tcp`` is the TCP's (3, 4) ``[R | p]`` along the target's axes
    (R_d^T R_e, R_d^T p_e) and ``p_d`` the target position along them
    (R_d^T p_d). The rows are the position difference, then the orientation
    error the task constrains: none for r = 3; for r = 5 the x and y rows of
    the minimal rotation carrying the TCP z-axis onto the target's (its z
    row is zero), which depends on the target only through its z-axis; for
    r = 6 the rotation vector taking the TCP orientation onto the target.
    """
    if r == 3:
        return p_d - tcp[:, 3]
    err = np.empty(r)
    np.subtract(p_d, tcp[:, 3], out=err[:3])
    if r == 6:
        err[3:] = so3_log(tcp[:, :3].T)
        return err
    e0, e1, e2 = tcp[:, 2].tolist()
    s = math.sqrt(e0 * e0 + e1 * e1)
    if s < 1e-12:
        # (anti)parallel axes: no turn, or a half-turn about the target y-axis
        err[3] = 0.0
        err[4] = 0.0 if e2 > 0.0 else np.pi
    else:
        k = float(np.arctan2(s, e2)) / s
        err[3] = k * e1
        err[4] = -k * e0
    return err


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a 1-D vector, rounded as it rounds (the square
    root of ``v.dot(v)``) without its call overhead."""
    return math.sqrt(v.dot(v))


def damped_step(j_hat: np.ndarray, dx_hat: np.ndarray, lam: float) -> np.ndarray:
    """Damped least-squares joint update J^T (J J^T + lam^2 I)^-1 dx.

    Minimises ||dx - J dq||^2 + lam^2 ||dq||^2. lam > 0 keeps the r x r
    system positive definite, so the step stays bounded by ||dx|| / (2 lam)
    at any rank.

    The system is solved by the LAPACK gufunc that ``np.linalg.solve``
    wraps, with the same bits: at r <= 6 the wrapper's array conversion,
    type dispatch and error-state handling cost about twice the solve. Its
    singular-matrix error cannot arise with lam > 0, and a non-finite input
    gives a non-finite step, which ``solve`` refuses at its step bound.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    gram = j_hat @ j_hat.T
    gram.flat[:: gram.shape[0] + 1] += lam * lam
    return j_hat.T @ _umath_linalg.solve1(gram, dx_hat, signature="dd->d")


def task_step(
    jac: np.ndarray,
    rolled: np.ndarray | None,
    err_hat: np.ndarray,
    err_norm: float,
    r: int,
    settings: SolverSettings,
) -> np.ndarray:
    """The joint update ``solve`` takes from a target-frame Jacobian and error.

    ``jac`` is the 6-row Jacobian of a chain walk rotated into the target
    frame, ``err_hat`` the r-row task error (``task_error``) and ``err_norm``
    its norm. The error is clamped to ``settings.e_max``, then the damped
    step is taken on the first r rows of ``jac``. With the Jacobian's
    ``rolled`` rows (``jacobian_from_frames``) the step is re-solved on the
    first r rows of J + H dq / 2 (Halley), ``H dq`` from
    ``rolled_hessian_product``, which turns with the frame as J does; with
    ``None`` the damped Newton step is returned. The result is bounded by
    the clamped error's norm over 2 lam.
    """
    if err_norm > settings.e_max:
        step_err = err_hat * (settings.e_max / err_norm)
    else:
        step_err = err_hat
    dq = damped_step(jac[:r], step_err, settings.lam)
    if rolled is not None:
        halley = jac + 0.5 * rolled_hessian_product(rolled, dq)
        dq = damped_step(halley[:r], step_err, settings.lam)
    return dq


def solve(
    model: RobotModel,
    t_d: np.ndarray,
    q0: np.ndarray,
    proj: TaskProjector,
    settings: SolverSettings = SolverSettings(),
    walk: np.ndarray | None = None,
) -> SolveResult:
    """Iterate from ``q0`` until the target-frame task error norm drops
    below epsilon.

    Returns a soft result: ``converged=False`` with the best-effort joints
    when the iteration cap is hit. The returned residual is the final
    target-frame task error (unsaturated). What is promised is convergence
    below epsilon and the step bound ||dq|| <= ||e|| / (2 lam) on every
    step, not a fall of the residual norm on every step: that norm adds mm
    to rad, and it can rise on an unsaturated step when the orientation
    error dominates.
    ``walk``, when given, must be ``chain_stack(model, q0)``, e.g. the
    ``walk`` of the solve that returned ``q0``; the first iteration takes it
    in place of walking (see the module docstring).
    """
    q = np.array(q0, dtype=float)
    if q.shape != (model.n,):
        raise DimensionMismatch(f"expected q0 of length {model.n}, got shape {q.shape}")
    n, r = model.n, proj.r
    use_halley = settings.method == "halley"
    bound_factor = 1.0 / (2.0 * settings.lam)
    sats: list[bool] | None = [] if settings.record_residuals else None

    start = time.perf_counter()
    rd_t = t_d[:3, :3].T
    p_d = (rd_t @ t_d[:3, 3:])[:, 0]
    converged = False
    for it in range(settings.max_iterations + 1):
        if it or walk is None:
            walk = chain_stack(model, q)
        # the walk along the target's axes: one rotation per iteration
        turned = rd_t @ walk[:, :3]
        tcp = turned[n]
        dx_hat = task_error(tcp, p_d, r)
        res_norm = _norm(dx_hat)
        residual = dx_hat
        iterations = it
        if res_norm < settings.epsilon:
            converged = True
            break
        if it == settings.max_iterations:
            break
        if sats is not None:
            sats.append(res_norm > settings.e_max)

        jac, rolled = jacobian_from_frames(tcp[:, 3], turned[:n, :, 2], turned[:n, :, 3])
        dq = task_step(jac, rolled if use_halley else None, dx_hat, res_norm, r, settings)
        # Damping guarantee sigma/(sigma^2 + lam^2) <= 1/(2 lam) on the
        # clamped error; a violation means the step math is broken, not that
        # the pose is hard.
        limit = bound_factor * min(1.0, settings.e_max / res_norm) * res_norm
        step_norm = _norm(dq)
        assert step_norm <= limit * (1.0 + 1e-9) and math.isfinite(step_norm), (
            f"damped step {step_norm} exceeds bound {limit}"
        )
        q = q + dq

    wall_us = (time.perf_counter() - start) * 1e6
    return SolveResult(
        q=q,
        converged=converged,
        iterations=iterations,
        residual=residual,
        wall_time_us=wall_us,
        saturation_flags=sats,
        walk=walk,
    )


class LaneSolves(NamedTuple):
    """Outcome of ``solve_lanes``, one entry per lane: the joints (L, n),
    whether the lane converged, its iteration count, whether it stopped on a
    half-turn orientation error, where ``solve`` raises RotationNearPi, and
    the base-frame chain walk at its joints as the (n + 1, L, 4, 4) frame
    stack of ``chain_stack_lanes``: lane v, ``walk[:, v]``, is the walk it
    took at the iteration where it left (converged, half-turn or cap), its
    ``solve``'s ``walk``."""

    q: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    half_turn: np.ndarray
    walk: np.ndarray


def _lane_rotation_vector(rotation: np.ndarray, vee: np.ndarray) -> np.ndarray:
    """``so3_log`` of each rotation in an (L, 3, 3) stack, written to the
    (L, 3) ``vee``, and which lanes it would refuse as within PI_MARGIN of a
    half-turn."""
    trace = rotation[:, 0, 0] + rotation[:, 1, 1] + rotation[:, 2, 2]
    # np.clip without its dispatch; a NaN passes through as there
    theta = np.arccos(np.minimum(np.maximum(0.5 * (trace - 1.0), -1.0), 1.0))
    np.subtract(rotation[:, 2, 1], rotation[:, 1, 2], out=vee[:, 0])
    np.subtract(rotation[:, 0, 2], rotation[:, 2, 0], out=vee[:, 1])
    np.subtract(rotation[:, 1, 0], rotation[:, 0, 1], out=vee[:, 2])
    vee *= 0.5
    turned = theta >= SMALL_ANGLE
    if np.count_nonzero(turned) == len(turned):
        vee *= (theta / np.sin(theta))[:, None]
    else:
        vee[turned] *= (theta[turned] / np.sin(theta[turned]))[:, None]
    return theta >= np.pi - PI_MARGIN


def _lane_task_error(tcp: np.ndarray, p_d: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """``task_error`` of each lane of an (L, 3, 4) target-frame TCP stack and
    (L, 3) target positions, and the lanes whose 6-DOF error is a half-turn."""
    if r == 3:
        return p_d - tcp[:, :, 3], np.zeros(len(tcp), dtype=bool)
    err = np.empty((len(tcp), r))
    np.subtract(p_d, tcp[:, :, 3], out=err[:, :3])
    if r == 6:
        return err, _lane_rotation_vector(tcp[:, :, :3].swapaxes(-1, -2), err[:, 3:])
    e0, e1, e2 = tcp[:, 0, 2], tcp[:, 1, 2], tcp[:, 2, 2]
    s = np.sqrt(e0 * e0 + e1 * e1)
    bent = s >= 1e-12
    flat = np.count_nonzero(bent) < len(bent)
    k = np.arctan2(s, e2) / (np.where(bent, s, 1.0) if flat else s)
    np.multiply(k, e1, out=err[:, 3])
    np.multiply(-k, e0, out=err[:, 4])
    if flat:
        # (anti)parallel axes take the scalar rule's constants
        err[~bent, 3:] = 0.0
        err[~bent & ~(e2 > 0.0), 4] = np.pi
    return err, np.zeros(len(tcp), dtype=bool)


def _lane_damped_step(j_hat: np.ndarray, dx_hat: np.ndarray, lam: float) -> np.ndarray:
    """``damped_step`` of each lane: ``j_hat`` (L, r, n), ``dx_hat`` (L, r)."""
    gram = j_hat @ j_hat.swapaxes(-1, -2)
    # each lane's diagonal, as a strided view of the contiguous (L, r, r) stack
    gram.reshape(len(gram), -1)[:, :: gram.shape[-1] + 1] += lam * lam
    y = _umath_linalg.solve(gram, dx_hat[..., None], signature="dd->d")
    return (j_hat.swapaxes(-1, -2) @ y)[..., 0]


def _lane_task_step(jac, rolled, err_hat, err_norm, r, settings: SolverSettings) -> np.ndarray:
    """``task_step`` of each lane: ``jac`` (6, n, L) and ``rolled`` (12, n,
    L) or None, as ``jacobian_from_frames`` returns them for a lane stack,
    ``err_hat`` (L, r) and its norms ``err_norm`` (L,)."""
    if np.count_nonzero(err_norm > settings.e_max):
        clamp = np.where(err_norm > settings.e_max, settings.e_max / err_norm, 1.0)
        err_hat = err_hat * clamp[:, None]
    lam = settings.lam
    # numpy's stacked matmul rounds the strided rows of a transposed view
    # otherwise than solve's (r, n) rows, so the steps take (L, r, n) copies
    dq = _lane_damped_step(np.ascontiguousarray(jac[:r].transpose(2, 0, 1)), err_hat, lam)
    if rolled is not None:
        halley = jac + 0.5 * rolled_hessian_product(rolled, dq.T)
        dq = _lane_damped_step(np.ascontiguousarray(halley[:r].transpose(2, 0, 1)), err_hat, lam)
    return dq


def solve_lanes(
    model: RobotModel,
    t_d: np.ndarray,
    q0: np.ndarray,
    proj: TaskProjector,
    settings: SolverSettings = SolverSettings(),
    walk: np.ndarray | None = None,
) -> LaneSolves:
    """``solve`` for a stack of L problems at once: targets ``t_d``
    (L, 4, 4) from starts ``q0`` (L, n), iterated in lockstep.

    Each lane takes exactly the steps, and rounds exactly as, ``solve`` of
    its own target and start: the chain is walked on (L, ...) stacks, the
    Jacobian and Halley product are taken with the lane axis last, the
    damped systems are solved on (L, r, r) stacks, and dot products and
    norms use ``_dot``. A lane leaves the iteration when it converges, when
    its error is a half-turn (``solve`` would raise RotationNearPi) or at
    the iteration cap; the rest go on. A lane's iteration count, outcome,
    joints and walk are stored once, as it leaves, and until the first lane
    leaves the joints are stepped in place, with no lane indexing. As
    ``solve`` does, the first iteration takes ``walk``, when given, in place
    of walking: it must be ``chain_stack_lanes(model, q0)``, e.g. the
    ``walk`` of the ``solve_lanes`` that returned ``q0``. The returned walk
    holds each lane's last walk, at its returned joints.
    """
    q = np.array(q0, dtype=float)
    lanes = len(q)
    if q.shape != (lanes, model.n) or t_d.shape != (lanes, 4, 4):
        raise DimensionMismatch(
            f"expected (L, {model.n}) starts and (L, 4, 4) targets, got {q.shape} and {t_d.shape}"
        )
    n, r = model.n, proj.r
    use_halley = settings.method == "halley"
    bound_factor = 1.0 / (2.0 * settings.lam)
    converged = np.zeros(lanes, dtype=bool)
    half_turn = np.zeros(lanes, dtype=bool)
    iterations = np.zeros(lanes, dtype=int)
    # the lanes still iterating, and their joints: q itself until one leaves
    active = np.arange(lanes)
    q_active = q
    rd = t_d[:, :3, :3]
    p_d = (rd.swapaxes(-1, -2) @ t_d[:, :3, 3:])[..., 0]
    final_walk = None
    for it in range(settings.max_iterations + 1):
        if it or walk is None:
            walk = chain_stack_lanes(model, q_active)
        tcp = rd.swapaxes(-1, -2) @ walk[n, :, :3]
        dx_hat, turned = _lane_task_error(tcp, p_d, r)
        res_norm = np.sqrt(_dot(dx_hat, dx_hat))
        done = res_norm < settings.epsilon
        go = ~(done | turned)
        moving = np.count_nonzero(go)
        stop = it == settings.max_iterations or not moving
        if stop or moving < len(active):
            # the leaving lanes' outcome, joints and walk: their last iteration's
            leave = slice(None) if stop else ~go
            gone = active[leave]
            iterations[gone] = it
            converged[gone] = (done & ~turned)[leave]
            half_turn[gone] = turned[leave]
            if q_active is not q:
                q[gone] = q_active[leave]
            if stop and len(active) == lanes:
                final_walk = walk
            else:
                if final_walk is None:
                    final_walk = np.empty((n + 1, lanes, 4, 4))
                final_walk[:, gone] = walk[:, leave]
        if stop:
            break
        if moving < len(active):
            active, rd, p_d, q_active = active[go], rd[go], p_d[go], q_active[go]
            walk, tcp = walk[:, go], tcp[go]
            dx_hat, res_norm = dx_hat[go], res_norm[go]
        axes = walk[:n, :, :3, 2].swapaxes(0, 1) @ rd
        origins = walk[:n, :, :3, 3].swapaxes(0, 1) @ rd

        jac, rolled = jacobian_from_frames(tcp[:, :, 3], axes, origins)
        dq = _lane_task_step(jac, rolled if use_halley else None, dx_hat, res_norm, r, settings)
        # the damping bound of solve, lane by lane
        limit = bound_factor * np.minimum(1.0, settings.e_max / res_norm) * res_norm
        step_norm = np.sqrt(_dot(dq, dq))
        within = (step_norm <= limit * (1.0 + 1e-9)) & np.isfinite(step_norm)
        assert np.count_nonzero(within) == len(within), (
            f"damped step {step_norm.max()} exceeds bound"
        )
        q_active += dq
    return LaneSolves(q, converged, iterations, half_turn, final_walk)


def wrist_flip(
    model: RobotModel, q_start: np.ndarray, q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(left, flipped)`` for joints ``q`` (n,) or (V, n): whether each sits
    on the other wrist branch than ``q_start`` (q5 of the opposite sign; only
    six-axis arms have the branch), and ``q`` moved onto ``q_start``'s
    branch, (q4 + pi * s, -q5, q6 + pi) with s moving q4 toward the middle of
    its range."""
    if model.n != 6:
        return np.zeros(q.shape[:-1], dtype=bool), q
    left = ~(q_start[4] * q[..., 4] >= 0.0)
    flipped = np.array(q, dtype=float)
    flipped[..., 3] += np.where(q[..., 3] < model.midrange()[3], np.pi, -np.pi)
    flipped[..., 4] = -q[..., 4]
    flipped[..., 5] += np.pi
    return left, flipped


def target_failures(model: RobotModel, q, converged, half_turn, k: int) -> dict[int, PathFailure]:
    """The PathFailure at target ``k`` of each row of joints ``q`` (V, n)
    that the path cannot take, keyed by row, from the row's solve outcome
    ``converged`` and ``half_turn`` (V,); an (n,) ``q`` with scalar flags is
    row 0. A half-turn error (where ``solve`` raises RotationNearPi) is
    ``rotation_near_pi``, else an unconverged solve ``not_converged``, else
    joints outside the limits ``joint_limit``, naming the 1-based joint with
    the smallest margin and that margin in degrees (< 0)."""
    q = np.atleast_2d(q)
    converged, half_turn = np.atleast_1d(converged), np.atleast_1d(half_turn)
    inside = (q >= model.joint_min) & (q <= model.joint_max)
    taken = converged & ~half_turn
    if np.count_nonzero(taken) == len(taken) and np.count_nonzero(inside) == inside.size:
        return {}
    failures = {}
    for row in np.flatnonzero(~(taken & inside.all(-1))):
        if taken[row]:
            margin = np.degrees(np.minimum(q[row] - model.joint_min, model.joint_max - q[row]))
            failure = PathFailure("joint_limit", k, int(margin.argmin()) + 1, margin.min())
        else:
            failure = PathFailure("rotation_near_pi" if half_turn[row] else "not_converged", k)
        failures[int(row)] = failure
    return failures


def wrist_branch_check(
    model: RobotModel, t_d: np.ndarray, q_start: np.ndarray, q: np.ndarray, proj, settings
) -> SolveResult | None:
    """The k = 0 wrist-branch step of ``solve_toolpath`` for a first
    solution ``q`` to ``t_d``: when q5 has the opposite sign to
    ``q_start``'s, what ``solve`` from the flipped joints (``wrist_flip``)
    returns if it converges in 0 iterations, else None. Only that solve's
    iteration 0 is taken (the same walk, error and test), so a flip that
    misses is not iterated; a half-turn error there raises RotationNearPi.
    On a six-axis spherical wrist the flip reaches the same TCP pose, and
    the test keeps other robots on the unflipped solution. So a path keeps
    its start's wrist branch, and is not wound toward the asymmetric q5
    limits by whichever branch a cold solve's saturated steps reach."""
    left, flipped = wrist_flip(model, q_start, q)
    if not left:
        return None
    start = time.perf_counter()
    walk = chain_stack(model, flipped)
    rd_t = t_d[:3, :3].T
    error = task_error((rd_t @ walk[:, :3])[model.n], (rd_t @ t_d[:3, 3:])[:, 0], proj.r)
    if not _norm(error) < settings.epsilon:
        return None
    return SolveResult(flipped, True, 0, error, (time.perf_counter() - start) * 1e6, walk=walk)


def solve_toolpath(
    model: RobotModel,
    toolpath,
    q0: np.ndarray,
    proj: TaskProjector,
    settings: SolverSettings = SolverSettings(),
) -> list[SolveResult]:
    """Solve every target in order, warm-starting each from the previous joints.

    Warm starting is what keeps the greedy per-target updates continuous and
    the accumulated joint travel low. The first, cold solve may carry the
    wrist across q5 = 0, and ``wrist_branch_check`` may move it back onto
    q0's branch. Stops at the first target the robot cannot take (after the
    wrist-branch step) and raises PathFailed with its ``target_failures``
    record.

    Each solve hands its final chain walk to the next (``solve``'s
    ``walk``), and the kept results drop it once it is handed on.
    """
    poses = toolpath.base_poses()
    results: list[SolveResult] = []
    q = np.asarray(q0, dtype=float)
    walk = None
    for k, t_d in enumerate(poses):
        try:
            result = solve(model, t_d, q, proj, settings, walk)
            if result.converged and k == 0:
                check = wrist_branch_check(model, t_d, q, result.q, proj, settings)
                if check is not None:
                    result = replace(result, q=check.q, residual=check.residual, walk=check.walk,
                                     wall_time_us=result.wall_time_us + check.wall_time_us)
        except RotationNearPi:
            raise PathFailed(target_failures(model, q, False, True, k)[0]) from None
        if not (result.converged and model.within_limits(result.q)):
            raise PathFailed(target_failures(model, result.q, result.converged, False, k)[0])
        results.append(result)
        q, walk = result.q, result.walk
        result.walk = None
    return results
