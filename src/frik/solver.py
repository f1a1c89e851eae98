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

``solve`` writes every iteration with ``out=`` into a ``SolveWorkspace``,
buffers and views made once for a model, task dimension and method, which
``solve_toolpath`` builds once per path and hands to every target's solve
(a call given none builds its own). The walk's frame stack, the error and
the joints stay new arrays on each iteration, since a solve returns them.
``solve_lanes`` iterates ``solve`` for a stack of problems in lockstep, each
lane rounding exactly as its own ``solve`` (the workspace sweep's kernel).
It writes every iteration into a ``LaneWorkspace`` the same way, made once
for a lane count, which the sweep holds across its targets. Its lanes keep
their own walk function, error and damped step, which measured faster on
stacks: they rotate the TCP before the convergence check and the axes and
origins of the lanes that go on after it, sliced from the frame stack. The
Jacobian and the Halley product are ``solve``'s kernels, called once on a
lane stack whose lane axis is last. The rules that end or adjust a path,
``target_failures`` and ``wrist_branch_check``, are kept here once, scalar
code that ``solve_toolpath`` and the sweep both call.
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
from .liegroup import PI_MARGIN, SMALL_ANGLE, so3_log
from .robot import (
    ChainWork,
    HalleyWork,
    JacobianWork,
    LaneWalk,
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


class DampedWork:
    """The buffers ``damped_step`` writes for an (r, n) ``j_hat``: the gram,
    its diagonal as a view, the solve's ``y`` and the step ``dq``."""

    def __init__(self, r: int, n: int):
        self.gram = np.empty((r, r))
        self.diagonal = self.gram.reshape(r * r)[:: r + 1]
        self.y, self.dq = np.empty(r), np.empty(n)


def damped_step(
    j_hat: np.ndarray, dx_hat: np.ndarray, lam: float, work: DampedWork | None = None
) -> np.ndarray:
    """Damped least-squares joint update J^T (J J^T + lam^2 I)^-1 dx.

    Minimises ||dx - J dq||^2 + lam^2 ||dq||^2. lam > 0 keeps the r x r
    system positive definite, so the step stays bounded by ||dx|| / (2 lam)
    at any rank.

    The system is solved by the LAPACK gufunc that ``np.linalg.solve``
    wraps, with the same bits: at r <= 6 the wrapper's array conversion,
    type dispatch and error-state handling cost about twice the solve. Its
    singular-matrix error cannot arise with lam > 0, and a non-finite input
    gives a non-finite step, which ``solve`` refuses at its step bound.
    ``work``, when given, is a ``DampedWork`` of ``j_hat``'s shape, and the
    step is its ``dq``, which the next call into it overwrites.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if work is None:
        work = DampedWork(*j_hat.shape)
    j_t = j_hat.T
    np.matmul(j_hat, j_t, out=work.gram)
    np.add(work.diagonal, lam * lam, out=work.diagonal)
    _umath_linalg.solve1(work.gram, dx_hat, signature="dd->d", out=work.y)
    return np.matmul(j_t, work.y, out=work.dq)


def task_step(
    jac: np.ndarray,
    rolled: np.ndarray | None,
    err_hat: np.ndarray,
    err_norm: float,
    r: int,
    settings: SolverSettings,
    work: SolveWorkspace | None = None,
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
    the clamped error's norm over 2 lam. ``work``, when given, is the
    ``SolveWorkspace`` whose Jacobian ``jac`` and ``rolled`` are: the damped
    steps and the Halley product are written into its buffers, and so is the
    returned step, which the next call into it overwrites.
    """
    if err_norm > settings.e_max:
        step_err = err_hat * (settings.e_max / err_norm)
    else:
        step_err = err_hat
    step, halley = (None, None) if work is None else (work.step, work.halley)
    dq = damped_step(jac[:r], step_err, settings.lam, step)
    if rolled is not None:
        # the first r rows of J + H dq / 2, written over those of H dq
        rows = rolled_hessian_product(rolled, dq, halley)[:r]
        np.multiply(rows, 0.5, out=rows)
        np.add(jac[:r], rows, out=rows)
        dq = damped_step(rows, step_err, settings.lam, step)
    return dq


class SolveWorkspace:
    """``solve``'s buffers for one model, task dimension ``r`` and method,
    with their views sliced once, so that its iterations write into them
    with ``out=`` rather than allocate and slice anew: the walk's angles and
    links (``robot.ChainWork``), the (n + 1, 3, 4) walk rotated onto the
    target's axes, with its TCP, axes and origins as views, the Jacobian's
    rolled rows and lever arms (``robot.JacobianWork``), the Halley
    product's terms (``robot.HalleyWork``, "halley" only), into whose first
    r rows the Halley Jacobian is written, and the damped steps' gram and
    step (``DampedWork``). ``solve_toolpath`` holds one for a path and hands
    it to every target's ``solve``. A workspace serves one call at a time.
    """

    def __init__(self, model: RobotModel, r: int, method: str):
        n = model.n
        self.model, self.r, self.method = model, r, method
        self.walk = ChainWork(model)
        self.turned = np.empty((n + 1, 3, 4))
        self.tcp = self.turned[n]
        self.p_tcp = self.tcp[:, 3]
        self.axes, self.origins = self.turned[:n, :, 2], self.turned[:n, :, 3]
        self.jacobian = JacobianWork((n,))
        self.halley = HalleyWork(self.jacobian.rolled) if method == "halley" else None
        self.step = DampedWork(r, n)


def solve(
    model: RobotModel,
    t_d: np.ndarray,
    q0: np.ndarray,
    proj: TaskProjector,
    settings: SolverSettings = SolverSettings(),
    walk: np.ndarray | None = None,
    work: SolveWorkspace | None = None,
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

    Every iteration writes into ``work``, a ``SolveWorkspace`` of the model,
    task and method (built for the call when None). No array returned is one
    of its buffers, so a later call into it changes no result.
    """
    q = np.array(q0, dtype=float)
    if q.shape != (model.n,):
        raise DimensionMismatch(f"expected q0 of length {model.n}, got shape {q.shape}")
    r = proj.r
    start = time.perf_counter()
    if work is None:
        work = SolveWorkspace(model, r, settings.method)
    elif (
        work.r != r
        or work.method != settings.method
        or (work.model is not model and work.model != model)
    ):
        raise ValueError("the workspace was built for another model, task dimension or method")
    use_halley = settings.method == "halley"
    bound_factor = 1.0 / (2.0 * settings.lam)
    sats: list[bool] | None = [] if settings.record_residuals else None
    rd_t = t_d[:3, :3].T
    p_d = (rd_t @ t_d[:3, 3:])[:, 0]
    converged = False
    for it in range(settings.max_iterations + 1):
        if it or walk is None:
            walk = chain_stack(model, q, work.walk)
        # the walk along the target's axes: one rotation per iteration
        np.matmul(rd_t, walk[:, :3], out=work.turned)
        dx_hat = task_error(work.tcp, p_d, r)
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

        jac, rolled = jacobian_from_frames(work.p_tcp, work.axes, work.origins, work.jacobian)
        dq = task_step(jac, rolled if use_halley else None, dx_hat, res_norm, r, settings, work)
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


class _StepWork:
    """The buffers ``_lane_damped_step`` writes for one (L, r, n) ``j_hat``
    buffer, with its views sliced once; ``empty`` makes each buffer, as for
    ``robot.LaneWalk``."""

    def __init__(self, j_hat: np.ndarray, empty=np.empty):
        lanes, r, n = j_hat.shape
        self.j_t = j_hat.swapaxes(-1, -2)
        self.gram = empty((lanes, r, r))
        # each lane's diagonal, as a strided view of the contiguous (L, r, r) stack
        self.diagonal = self.gram.reshape(lanes, r * r)[:, :: r + 1]
        self.y, self.step = empty((lanes, r, 1)), empty((lanes, n, 1))
        self.dq = self.step[..., 0]


# how many lane counts a LaneWorkspace keeps views for: a call's start and
# a few counts its lanes leave it at
KEPT_SIZES = 5


class LaneWorkspace:
    """``solve_lanes``' buffers for one model, task dimension ``r`` and lane
    count, with their views sliced once, so that its iterations write into
    them with ``out=`` rather than allocate and slice anew: the frame stack
    and links (``robot.LaneWalk``), the target-frame TCP, axes and origins,
    the error and its norm, the Jacobian's rolled rows and lever arms
    (``robot.JacobianWork``), the Halley product's terms
    (``robot.HalleyWork``), the C-contiguous (L, r, n) copies of the
    Jacobian and the Halley Jacobian that the damped steps take, and their
    grams and steps. The workspace sweep holds one for its live lanes,
    hands it to every ``solve_lanes`` call and builds the next only when a
    voxel fails. A workspace serves one call at a time.

    ``for_lanes`` gives the workspace for fewer lanes as views of these
    buffers, the leading lanes of each, so no memory is added and the
    constants are shared. Each lane still rounds as in buffers of its own
    size: the leading lanes of a lane-leading buffer are C-contiguous, as a
    smaller buffer is, and on the stacks whose lane axis is inside, the
    kernels only copy, combine elementwise, take running sums and matmuls
    whose strides take numpy's path for buffers of any size (the lane-parity
    tests run through such views). A call whose lanes leave at different
    iterations goes on there for the lanes that remain. The views are kept
    for the ``KEPT_SIZES`` lane counts asked for last, not for every count
    seen: at the full grid's 513 lanes the buffers take about 3 MB.
    """

    def __init__(self, model: RobotModel, r: int, lanes: int, base: LaneWorkspace | None = None):
        n = model.n
        self.model, self.r, self.lanes = model, r, lanes
        # the views for_lanes made, by lane count, least recently asked first
        self._kept: dict[int, LaneWorkspace] = {}
        if base is None:
            # the buffers, in the order they are made, for for_lanes to slice
            self._buffers: list[np.ndarray] = []

            def empty(shape, dtype=float):
                self._buffers.append(np.empty(shape, dtype))
                return self._buffers[-1]
        else:
            self._buffers = base._buffers
            buffers = iter(base._buffers)

            def empty(shape, dtype=float):
                return next(buffers)[tuple(map(slice, shape))]
        self.walk = LaneWalk(model, lanes, empty)
        frames = self.walk.frames
        self.frames, self.tcp_frame = frames, frames[n, :, :3]
        self.axes_frame = frames[:n, :, :3, 2].swapaxes(0, 1)
        self.origins_frame = frames[:n, :, :3, 3].swapaxes(0, 1)
        self.tcp = empty((lanes, 3, 4))
        self.p_tcp = self.tcp[:, :, 3]
        self.axes, self.origins = empty((2, lanes, n, 3))
        self.jacobian = JacobianWork((n, lanes), empty)
        self.halley = HalleyWork(self.jacobian.rolled, empty)
        # the damped steps' (L, r, n) rows of J and of H dq
        self.jac_rows = self.jacobian.jac[:r].transpose(2, 0, 1)
        self.hdq_rows = self.halley.out[:r].transpose(2, 0, 1)
        self.j_hat = empty((lanes, r, n))
        self.step = _StepWork(self.j_hat, empty)
        dq = self.step.dq
        self.dq_t, self.dq_row, self.dq_col = dq.T, dq[:, None, :], dq[:, :, None]
        self.err = empty((lanes, r))
        self.err_pos = self.err[:, :3]
        self.err_row, self.err_col = self.err[:, None], self.err[..., None]
        # lane vectors: the error norm, the step's norm and bound, three scratch rows
        self.norm, self.step_norm, self.limit, *self.scratch = empty((6, lanes))
        # the dot products of error and step, (L, 1, 1) as _dot's matmul writes them
        self.dots = empty((2, lanes, 1, 1))
        self.err_dot, self.dq_dot = self.dots[:, :, 0, 0]
        # lane masks: converged, going on, scratch, half-turned (all False but at r = 6)
        self.done, self.go, self.mask, self.turned = empty((4, lanes), bool)
        self.turned[...] = False
        tcp = self.tcp
        if r == 5:
            self.tcp_z = tcp[:, 0, 2], tcp[:, 1, 2], tcp[:, 2, 2]
            self.err_tilt = self.err[:, 3], self.err[:, 4]
        elif r == 6:
            # R_d^T R_e is the transpose of the TCP's rotation rows
            self.trace_terms = tcp[:, 0, 0], tcp[:, 1, 1], tcp[:, 2, 2]
            self.skew_pairs = (
                (tcp[:, 1, 2], tcp[:, 2, 1]),
                (tcp[:, 2, 0], tcp[:, 0, 2]),
                (tcp[:, 0, 1], tcp[:, 1, 0]),
            )
            self.vee = self.err[:, 3:]
            self.vee_cols = self.vee.T
            self.ratio_col = self.scratch[2][:, None]

    def for_lanes(self, lanes: int) -> LaneWorkspace:
        """The workspace of this model and task for ``lanes`` lanes: views of
        the buffers this one is made of or a view of, or, for more lanes than
        those hold, a workspace of its own."""
        if lanes == self.lanes:
            return self
        if lanes > len(self._buffers[0]):
            return LaneWorkspace(self.model, self.r, lanes)
        work = self._kept.pop(lanes, None)
        if work is None:
            work = LaneWorkspace(self.model, self.r, lanes, self)
            if len(self._kept) >= KEPT_SIZES:
                del self._kept[next(iter(self._kept))]
        self._kept[lanes] = work
        return work


def _lane_rotation_vector(work: LaneWorkspace) -> np.ndarray:
    """``so3_log`` of each lane's R_d^T R_e, from ``work.tcp``, written to
    the rotation rows of ``work.err``, and which lanes it would refuse as
    within PI_MARGIN of a half-turn."""
    trace, theta, ratio = work.scratch
    d0, d1, d2 = work.trace_terms
    np.add(d0, d1, out=trace)
    np.add(trace, d2, out=trace)
    # 0.5 (trace - 1) into [-1, 1]: np.clip without its dispatch; a NaN
    # passes through as there
    np.subtract(trace, 1.0, out=trace)
    np.multiply(0.5, trace, out=trace)
    np.maximum(trace, -1.0, out=trace)
    np.minimum(trace, 1.0, out=trace)
    np.arccos(trace, out=theta)
    for (a, b), vee in zip(work.skew_pairs, work.vee_cols):
        np.subtract(a, b, out=vee)
    np.multiply(work.vee, 0.5, out=work.vee)
    moved = np.greater_equal(theta, SMALL_ANGLE, out=work.mask)
    if np.count_nonzero(moved) == len(moved):
        np.sin(theta, out=ratio)
        np.divide(theta, ratio, out=ratio)
        np.multiply(work.vee, work.ratio_col, out=work.vee)
    else:
        work.vee[moved] *= (theta[moved] / np.sin(theta[moved]))[:, None]
    return np.greater_equal(theta, np.pi - PI_MARGIN, out=work.turned)


def _lane_task_error(work: LaneWorkspace, p_d: np.ndarray) -> np.ndarray:
    """``task_error`` of each lane of ``work.tcp``, the (L, 3, 4)
    target-frame TCP stack, and the (L, 3) target positions ``p_d``, written
    to ``work.err`` with its norms in ``work.norm``; returns which lanes'
    6-DOF error is a half-turn."""
    np.subtract(p_d, work.p_tcp, out=work.err_pos)
    turned = _lane_rotation_vector(work) if work.r == 6 else work.turned
    if work.r == 5:
        e0, e1, e2 = work.tcp_z
        s, k, _ = work.scratch
        np.multiply(e0, e0, out=s)
        np.multiply(e1, e1, out=k)
        np.add(s, k, out=s)
        np.sqrt(s, out=s)
        bent = np.greater_equal(s, 1e-12, out=work.mask)
        flat = np.count_nonzero(bent) < len(bent)
        np.arctan2(s, e2, out=k)
        np.divide(k, np.where(bent, s, 1.0) if flat else s, out=k)
        tilt_x, tilt_y = work.err_tilt
        np.multiply(k, e1, out=tilt_x)
        np.negative(k, out=k)
        np.multiply(k, e0, out=tilt_y)
        if flat:
            # (anti)parallel axes take the scalar rule's constants
            work.err[~bent, 3:] = 0.0
            work.err[~bent & ~(e2 > 0.0), 4] = np.pi
    # each lane's norm, rounded as _dot rounds it
    np.matmul(work.err_row, work.err_col, out=work.dots[0])
    np.sqrt(work.err_dot, out=work.norm)
    return turned


def _lane_damped_step(
    j_hat: np.ndarray, dx_hat: np.ndarray, lam: float, work: _StepWork | None = None
) -> np.ndarray:
    """``damped_step`` of each lane: ``j_hat`` (L, r, n), ``dx_hat`` (L, r).
    ``work``, when given, is the ``_StepWork`` of this ``j_hat`` buffer, and
    the step is its ``dq``, which the next call into it overwrites."""
    if work is None:
        work = _StepWork(j_hat)
    np.matmul(j_hat, work.j_t, out=work.gram)
    np.add(work.diagonal, lam * lam, out=work.diagonal)
    _umath_linalg.solve(work.gram, dx_hat[..., None], signature="dd->d", out=work.y)
    np.matmul(work.j_t, work.y, out=work.step)
    return work.dq


def _lane_task_step(work: LaneWorkspace, halley: bool, settings: SolverSettings) -> np.ndarray:
    """``task_step`` of each lane, from ``work``'s Jacobian (and, with
    ``halley``, its rolled rows), error and norms: the (L, n) step
    ``work.step.dq``."""
    err_hat, err_norm = work.err, work.norm
    if np.count_nonzero(err_norm > settings.e_max):
        clamp = np.where(err_norm > settings.e_max, settings.e_max / err_norm, 1.0)
        err_hat = err_hat * clamp[:, None]
    lam = settings.lam
    # numpy's stacked matmul rounds the strided rows of a transposed view
    # otherwise than solve's (r, n) rows, so the steps take (L, r, n) copies
    work.j_hat[...] = work.jac_rows
    dq = _lane_damped_step(work.j_hat, err_hat, lam, work.step)
    if halley:
        rolled_hessian_product(work.jacobian.rolled, work.dq_t, work.halley)
        # the first r rows of J + H dq / 2
        np.multiply(work.hdq_rows, 0.5, out=work.hdq_rows)
        np.add(work.jac_rows, work.hdq_rows, out=work.j_hat)
        dq = _lane_damped_step(work.j_hat, err_hat, lam, work.step)
    return dq


def solve_lanes(
    model: RobotModel,
    t_d: np.ndarray,
    q0: np.ndarray,
    proj: TaskProjector,
    settings: SolverSettings = SolverSettings(),
    walk: np.ndarray | None = None,
    work: LaneWorkspace | None = None,
) -> LaneSolves:
    """``solve`` for a stack of L problems at once: targets ``t_d``
    (L, 4, 4) from starts ``q0`` (L, n), iterated in lockstep.

    Each lane takes exactly the steps, and rounds exactly as, ``solve`` of
    its own target and start: the chain is walked on (L, ...) stacks, the
    Jacobian and Halley product are taken with the lane axis last, the
    damped systems are solved on (L, r, r) stacks, and dot products and
    norms take ``_dot``'s form. A lane leaves the iteration when it
    converges, when its error is a half-turn (``solve`` would raise
    RotationNearPi) or at the iteration cap; the rest go on. A lane's
    iteration count, outcome, joints and walk are stored once, as it leaves,
    and until the first lane leaves the joints are stepped in place, with no
    lane indexing. As ``solve`` does, the first iteration takes ``walk``,
    when given, in place of walking: it must be ``chain_stack_lanes(model,
    q0)``, e.g. the ``walk`` of the ``solve_lanes`` that returned ``q0``.
    The returned walk holds each lane's last walk, at its returned joints.

    Every iteration writes into ``work``, a ``LaneWorkspace`` of the model
    and task (built for the call when None), and the lanes that go on after
    others leave go on in its ``for_lanes`` workspace. No array returned is
    one of its buffers, so a later call into it changes no result.
    """
    q = np.array(q0, dtype=float)
    lanes = len(q)
    if q.shape != (lanes, model.n) or t_d.shape != (lanes, 4, 4):
        raise DimensionMismatch(
            f"expected (L, {model.n}) starts and (L, 4, 4) targets, got {q.shape} and {t_d.shape}"
        )
    n, r = model.n, proj.r
    if work is None:
        work = LaneWorkspace(model, r, lanes)
    elif work.r != r or (work.model is not model and work.model != model):
        raise ValueError("the workspace was built for another model or task dimension")
    start, work = work, work.for_lanes(lanes)
    use_halley = settings.method == "halley"
    bound_factor = 1.0 / (2.0 * settings.lam)
    converged = np.zeros(lanes, dtype=bool)
    half_turn = np.zeros(lanes, dtype=bool)
    iterations = np.zeros(lanes, dtype=int)
    # the lanes still iterating, and their joints: q itself until one leaves
    active = np.arange(lanes)
    q_active = q
    rd = t_d[:, :3, :3]
    rd_t = rd.swapaxes(-1, -2)
    p_d = (rd_t @ t_d[:, :3, 3:])[..., 0]
    final_walk = None
    for it in range(settings.max_iterations + 1):
        if it or walk is None:
            chain_stack_lanes(model, q_active, work.walk)
        else:
            work.frames[...] = walk
        np.matmul(rd_t, work.tcp_frame, out=work.tcp)
        turned = _lane_task_error(work, p_d)
        done = np.less(work.norm, settings.epsilon, out=work.done)
        go = np.logical_or(done, turned, out=work.go)
        np.logical_not(go, out=go)
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
                final_walk = walk if it == 0 and walk is not None else work.frames.copy()
            else:
                if final_walk is None:
                    final_walk = np.empty((n + 1, lanes, 4, 4))
                final_walk[:, gone] = work.frames[:, leave]
        if stop:
            break
        if moving < len(active):
            active, rd, p_d, q_active = active[go], rd[go], p_d[go], q_active[go]
            rd_t = rd.swapaxes(-1, -2)
            # the lanes that go on, in the workspace for that many
            # (views of the same buffers: the going lanes are copied out first)
            going = start.for_lanes(moving)
            going.frames[...] = work.frames[:, go]
            going.tcp[...] = work.tcp[go]
            going.err[...] = work.err[go]
            going.norm[...] = work.norm[go]
            work = going
        np.matmul(work.axes_frame, rd, out=work.axes)
        np.matmul(work.origins_frame, rd, out=work.origins)
        jacobian_from_frames(work.p_tcp, work.axes, work.origins, work.jacobian)
        dq = _lane_task_step(work, use_halley, settings)
        # the damping bound of solve, lane by lane
        res_norm, limit, step_norm = work.norm, work.limit, work.step_norm
        np.divide(settings.e_max, res_norm, out=limit)
        np.minimum(1.0, limit, out=limit)
        np.multiply(bound_factor, limit, out=limit)
        np.multiply(limit, res_norm, out=limit)
        np.matmul(work.dq_row, work.dq_col, out=work.dots[1])
        np.sqrt(work.dq_dot, out=step_norm)
        within = np.less_equal(step_norm, limit * (1.0 + 1e-9), out=work.mask)
        within &= np.isfinite(step_norm)
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
    ``walk``), and the kept results drop it once it is handed on. Every
    solve writes into one ``SolveWorkspace``, built once for the path.
    """
    poses = toolpath.base_poses()
    results: list[SolveResult] = []
    q = np.asarray(q0, dtype=float)
    walk = None
    work = SolveWorkspace(model, proj.r, settings.method)
    for k, t_d in enumerate(poses):
        try:
            result = solve(model, t_d, q, proj, settings, walk, work)
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
