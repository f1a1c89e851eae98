import math
from dataclasses import replace

import numpy as np
import pytest

import frik.analysis as analysis_module
import frik.robot as robot_module
import frik.solver as solver_module
from frik.analysis import (
    MODES,
    SweepSpec,
    joint_limit_weights,
    joint_travel,
    manipulability_jl,
    mode_problem,
    workspace_summary,
    workspace_sweep,
)
from frik.errors import DimensionMismatch, OutOfLimits, PathFailed, PathFailure
from frik.liegroup import make_pose, pose_inverse, rot_x, rot_y
from frik.robot import forward_kinematics, geometric_jacobian
from frik.solver import (
    SolverSettings,
    TaskProjector,
    solve,
    solve_toolpath,
    wrist_branch_check,
    wrist_flip,
)
from frik.toolpath import ConeSpec, Toolpath, generate_cone_spiral


def svd_manipulability_oracle(model, q):
    """Product of singular values of J sqrt(W): independent of the det route."""
    weights = joint_limit_weights(model, q)
    jac = geometric_jacobian(model, q)
    return float(np.prod(np.linalg.svd(jac * np.sqrt(weights), compute_uv=False)))


# ---------------------------------------------------------------------------
# joint-limit weights
# ---------------------------------------------------------------------------


def test_weights_vanish_exactly_at_limits(model):
    q = model.midrange()
    q[0] = model.joint_max[0]
    q[3] = model.joint_min[3]
    weights = joint_limit_weights(model, q)
    assert weights[0] == 0.0
    assert weights[3] == 0.0


def test_weights_peak_at_quarter_at_midrange(model):
    weights = joint_limit_weights(model, model.midrange())
    assert np.allclose(weights, 0.25, atol=1e-15)


def test_weights_symmetric_parabola(model):
    mid = model.midrange()
    span = model.joint_max - model.joint_min
    for frac in (0.1, 0.25, 0.4):
        above = joint_limit_weights(model, mid + frac * span / 2)
        below = joint_limit_weights(model, mid - frac * span / 2)
        assert np.allclose(above, below, atol=1e-12)
        assert np.all(above < 0.25)


def test_weights_reject_out_of_limits(model):
    q = model.midrange()
    q[1] = model.joint_max[1] + 1e-6
    with pytest.raises(OutOfLimits):
        joint_limit_weights(model, q)
    with pytest.raises(DimensionMismatch, match="expected q of length 6"):
        joint_limit_weights(model, q[:5])


# ---------------------------------------------------------------------------
# manipulability
# ---------------------------------------------------------------------------


def test_manipulability_zero_at_joint_limit(model):
    q = model.midrange()
    reference = manipulability_jl(model, q)
    q[0] = model.joint_max[0]
    at_limit = manipulability_jl(model, q)
    assert at_limit < 1e-6 * reference


def test_manipulability_midrange_scalar_factor(model):
    # W = I/4 at midrange pulls out of the determinant as c^3 with c = 1/4
    q = model.midrange()
    jac = geometric_jacobian(model, q)
    expected = 0.25**3 * math.sqrt(np.linalg.det(jac @ jac.T))
    assert abs(manipulability_jl(model, q) - expected) < 1e-9 * expected


def test_manipulability_matches_svd_oracle(model):
    rng = np.random.default_rng(41)
    for _ in range(25):
        q = rng.uniform(model.joint_min, model.joint_max)
        value = manipulability_jl(model, q)
        oracle = svd_manipulability_oracle(model, q)
        assert abs(value - oracle) < 1e-9 * max(1.0, oracle)


def test_manipulability_weight_scaling_is_cubic(model):
    rng = np.random.default_rng(43)
    for _ in range(10):
        q = rng.uniform(model.joint_min, model.joint_max)
        weights = joint_limit_weights(model, q)
        jac = geometric_jacobian(model, q)
        base = math.sqrt(max(np.linalg.det((jac * weights) @ jac.T), 0.0))
        for c in (0.5, 2.0, 10.0):
            scaled = math.sqrt(max(np.linalg.det((jac * (c * weights)) @ jac.T), 0.0))
            assert abs(scaled - c**3 * base) < 1e-9 * c**3 * base


# ---------------------------------------------------------------------------
# joint travel
# ---------------------------------------------------------------------------


def test_travel_constant_trajectory_is_zero():
    report = joint_travel([np.zeros(6)] * 10)
    assert np.array_equal(report.per_joint_deg, np.zeros(6))
    assert report.overall_deg == 0.0


def test_travel_single_joint_move():
    a = np.zeros(6)
    b = np.zeros(6)
    b[2] = np.radians(10.0)
    report = joint_travel([a, b])
    assert abs(report.per_joint_deg[2] - 10.0) < 1e-12
    assert abs(report.overall_deg - 10.0) < 1e-12


def test_travel_overall_bounded_by_per_joint_sum():
    rng = np.random.default_rng(47)
    trajectory = [rng.normal(size=6) for _ in range(50)]
    report = joint_travel(trajectory)
    assert report.overall_deg <= report.per_joint_deg.sum() + 1e-9
    assert np.all(report.per_joint_deg >= 0.0)


def test_travel_rejects_ragged_input():
    with pytest.raises(DimensionMismatch):
        joint_travel([np.zeros(6), np.zeros(5)])
    with pytest.raises(ValueError):
        joint_travel([])


# ---------------------------------------------------------------------------
# workspace sweep (single-voxel cases; the full sweep runs in acceptance)
# ---------------------------------------------------------------------------


def one_voxel_spec(y_mm, z_mm, voxel=100.0):
    return SweepSpec(
        y_min_mm=y_mm - voxel / 2,
        y_max_mm=y_mm + voxel / 2,
        z_min_mm=z_mm - voxel / 2,
        z_max_mm=z_mm + voxel / 2,
        voxel_mm=voxel,
    )


def test_far_voxel_unreachable_in_both_modes(model, q0_benchmark):
    template = Toolpath(
        poses=np.eye(4)[None],
        frame=make_pose(rot_y(np.pi / 2), np.array([0.0, -5000.0, 0.0])),
    )
    # the causes are records, and they cross the worker pool unchanged
    for jobs in (1, 2):
        adhoc, frik = workspace_sweep(
            model, template, one_voxel_spec(-5000.0, 0.0), q0_benchmark, jobs=jobs
        )
        assert adhoc.reachable_count == 0
        assert frik.reachable_count == 0
        assert adhoc.causes == {(0, 0): PathFailure("out_of_reach", 0)}
        assert frik.causes == {(0, 0): PathFailure("out_of_reach", 0)}


def test_trivial_voxel_matches_start_manipulability(model, q0_benchmark):
    y_c, z_c = -600.0, 800.0
    frame = make_pose(rot_y(np.pi / 2), np.array([0.0, y_c, z_c]))
    # one target constructed so the re-framed pose is exactly the start pose
    local = pose_inverse(frame) @ forward_kinematics(model, q0_benchmark)
    template = Toolpath(poses=local[None], frame=frame)
    adhoc, frik = workspace_sweep(model, template, one_voxel_spec(y_c, z_c), q0_benchmark)
    assert frik.reachable[0, 0]
    assert abs(frik.mean_w[0, 0] - manipulability_jl(model, q0_benchmark)) < 1e-6
    assert adhoc.reachable[0, 0]


def test_workspace_summary_structure(model, q0_benchmark):
    template = Toolpath(
        poses=np.eye(4)[None],
        frame=make_pose(rot_y(np.pi / 2), np.array([0.0, -5000.0, 0.0])),
    )
    # voxel centers y = -5000 (beyond the reach bound) and y = -2600 (inside
    # the bound, beyond the arm: the solve fails to converge at target 0)
    spec = SweepSpec(
        y_min_mm=-6200.0, y_max_mm=-1400.0, z_min_mm=-1200.0, z_max_mm=1200.0, voxel_mm=2400.0
    )
    for jobs in (1, 2):
        adhoc, frik = workspace_sweep(model, template, spec, q0_benchmark, jobs=jobs)
        summary = workspace_summary(adhoc, frik)
        assert summary["adhoc"]["reachable_voxels"] == 0
        assert summary["frik"]["reachable_voxels"] == 0
        assert summary["adhoc"]["mean_w"] is None
        for wmap in (adhoc, frik):
            causes = summary[wmap.mode]["causes"]
            assert sum(causes.values()) == wmap.reachable.size - wmap.reachable_count
            assert causes == {"not_converged": 1, "out_of_reach": 1}
            assert wmap.causes == {
                (0, 0): PathFailure("out_of_reach", 0),
                (1, 0): PathFailure("not_converged", 0),
            }


def test_sweep_grid_matches_one_voxel_sweeps(model, q0_benchmark):
    # a 3 x 2 grid whose voxels end four ways (not_converged, out_of_reach,
    # reachable, joint_limit): each voxel's result must sit where a sweep of
    # its centre alone puts it, so a transposed or shuffled grid shows
    frame = make_pose(rot_y(np.pi / 2), np.array([0.0, -600.0, 800.0]))
    local = pose_inverse(frame) @ forward_kinematics(model, q0_benchmark)
    template = Toolpath(poses=local[None], frame=frame)
    spec = SweepSpec(
        y_min_mm=-2850.0, y_max_mm=1650.0, z_min_mm=-700.0, z_max_mm=2300.0, voxel_mm=1500.0
    )
    y_centers, z_centers = spec.centers()
    alone = {
        (iy, iz): workspace_sweep(model, template, one_voxel_spec(y, z), q0_benchmark)
        for iy, y in enumerate(y_centers)
        for iz, z in enumerate(z_centers)
    }
    for jobs in (1, 2):
        maps = workspace_sweep(model, template, spec, q0_benchmark, jobs=jobs)
        for m, wmap in enumerate(maps):
            assert wmap.reachable.shape == wmap.mean_w.shape == (3, 2)
            assert 0 < wmap.reachable_count < wmap.reachable.size
            assert {cause.kind for cause in wmap.causes.values()} == {
                "not_converged", "out_of_reach", "joint_limit"
            }
            assert all(type(i) is int for key in wmap.causes for i in key)
            for (iy, iz), voxel in alone.items():
                assert wmap.reachable[iy, iz] == voxel[m].reachable[0, 0]
                assert np.array_equal(wmap.mean_w[iy, iz], voxel[m].mean_w[0, 0], equal_nan=True)
                assert wmap.causes.get((iy, iz)) == voxel[m].causes.get((0, 0))


def test_first_solve_keeps_start_wrist_branch(model, q0_benchmark, workpiece_frame):
    # the cold first solve to this voxel crosses q5 = 0; on the mirrored
    # branch FRIK winds q5 past its +120 deg limit and loses the voxel
    y_c, z_c = -1150.0, 1050.0
    template = generate_cone_spiral(ConeSpec()).with_frame(workpiece_frame)
    adhoc, frik = workspace_sweep(model, template, one_voxel_spec(y_c, z_c), q0_benchmark)
    assert adhoc.reachable[0, 0]
    assert frik.reachable[0, 0]
    frame = make_pose(workpiece_frame[:3, :3], np.array([workpiece_frame[0, 3], y_c, z_c]))
    results = solve_toolpath(model, template.with_frame(frame), q0_benchmark, TaskProjector(5))
    assert all(np.sign(res.q[4]) == np.sign(q0_benchmark[4]) for res in results)


def scalar_voxel_oracle(model, path, q0, proj, settings):
    """One voxel as the sweep defines it, from the scalar solver: the reach
    screen, then ``solve_toolpath`` and the mean of ``manipulability_jl``."""
    positions = path.poses[:, :3, 3] @ path.frame[:3, :3].T + path.frame[:3, 3]
    beyond = np.linalg.norm(positions, axis=1) > model.reach_bound()
    if beyond.any():
        return False, math.nan, PathFailure("out_of_reach", int(beyond.argmax()))
    try:
        results = solve_toolpath(model, path, q0, proj, settings)
    except PathFailed as exc:
        return False, math.nan, exc.failure
    return True, float(np.mean([manipulability_jl(model, res.q) for res in results])), None


@pytest.mark.parametrize("task_dof", (3, 5, 6))
@pytest.mark.parametrize("method", ("halley", "newton"))
def test_lane_sweep_matches_scalar_solves(model, q0_benchmark, workpiece_frame, method, task_dof):
    # every voxel of the lockstep sweep must equal the scalar solver's own
    # result bit for bit, on a grid whose voxels end all four ways
    template = generate_cone_spiral(ConeSpec(pitch=10.0, samples_per_rev=16)).with_frame(
        workpiece_frame
    )
    spec = SweepSpec(
        y_min_mm=-3000.0, y_max_mm=600.0, z_min_mm=-600.0, z_max_mm=3000.0, voxel_mm=900.0
    )
    settings = SolverSettings(method=method)
    y_centers, z_centers = spec.centers()
    oracle = {}
    for mode in MODES:
        path, proj = mode_problem(template, mode, task_dof)
        for iy, y in enumerate(y_centers):
            for iz, z in enumerate(z_centers):
                frame = workpiece_frame.copy()
                frame[1, 3], frame[2, 3] = y, z
                oracle[mode, iy, iz] = scalar_voxel_oracle(
                    model, path.with_frame(frame), q0_benchmark, proj, settings
                )
    kinds = {cause.kind for _, _, cause in oracle.values() if cause is not None}
    assert kinds == {"out_of_reach", "not_converged", "joint_limit"}
    assert any(ok for ok, _, _ in oracle.values())
    for jobs in (1, 2):
        maps = workspace_sweep(
            model, template, spec, q0_benchmark, settings, jobs=jobs, frik_task_dof=task_dof
        )
        for wmap in maps:
            for (mode, iy, iz), (ok, mean_w, cause) in oracle.items():
                if mode != wmap.mode:
                    continue
                assert wmap.reachable[iy, iz] == ok
                assert np.array_equal(wmap.mean_w[iy, iz], mean_w, equal_nan=True)
                assert wmap.causes.get((iy, iz)) == cause


def test_sweep_keeps_a_rejected_wrist_flip_unflipped(model, q0_benchmark, workpiece_frame):
    # with a 30 mm offset on joint 5 the wrist is not spherical: the k = 0
    # flip of this voxel's first FRIK solve moves the TCP, a solve from it
    # would iterate, and the check rejects it. The sweep must keep the
    # unflipped lane, and end each mode as the scalar solver does, bit for
    # bit
    offset = replace(model, dh=(*model.dh[:4], replace(model.dh[4], d=30.0), model.dh[5]))
    template = generate_cone_spiral(ConeSpec(pitch=10.0, samples_per_rev=16)).with_frame(
        workpiece_frame
    )
    spec = one_voxel_spec(-1000.0, 1000.0)
    frame = workpiece_frame.copy()
    (frame[1, 3],), (frame[2, 3],) = spec.centers()
    settings = SolverSettings()
    path, proj = mode_problem(template, "frik", 5)
    t_0 = path.with_frame(frame).base_poses()[0]
    first = solve(offset, t_0, q0_benchmark, proj, settings)
    left, flipped = wrist_flip(offset, q0_benchmark, first.q)
    assert first.converged and left
    assert solve(offset, t_0, flipped, proj, settings).iterations > 0
    assert wrist_branch_check(offset, t_0, q0_benchmark, first.q, proj, settings) is None
    for wmap in workspace_sweep(offset, template, spec, q0_benchmark, settings):
        path, proj = mode_problem(template, wmap.mode, 5)
        ok, mean_w, cause = scalar_voxel_oracle(
            offset, path.with_frame(frame), q0_benchmark, proj, settings
        )
        assert wmap.reachable[0, 0] == ok
        assert np.array_equal(wmap.mean_w[0, 0], mean_w, equal_nan=True)
        assert wmap.causes.get((0, 0)) == cause


def test_half_turn_at_the_checked_flip_ends_the_path(
    model, q0_benchmark, workpiece_frame, monkeypatch
):
    # a k = 0 wrist check that meets a half-turn error (here a flip that
    # turns joint 6 by pi on the 6-DOF task) raises RotationNearPi:
    # solve_toolpath and the sweep both end the path at target 0 on it
    def half_turned(m, q_start, q):
        flipped = np.array(q, dtype=float)
        flipped[..., 5] += np.pi
        return np.ones(q.shape[:-1], dtype=bool), flipped

    monkeypatch.setattr(solver_module, "wrist_flip", half_turned)
    template = generate_cone_spiral(ConeSpec(pitch=10.0, samples_per_rev=16)).with_frame(
        workpiece_frame
    )
    path, proj = mode_problem(template, "adhoc", 5)
    with pytest.raises(PathFailed) as excinfo:
        solve_toolpath(model, path, q0_benchmark, proj)
    assert excinfo.value.failure == PathFailure("rotation_near_pi", 0)
    frames = _grid_frames(workpiece_frame, np.array([-750.0, -150.0]), np.array([1050.0]))
    reachable, _, causes = analysis_module._sweep_mode(
        model, path, proj, frames, q0_benchmark, SolverSettings()
    )
    assert not reachable.any()
    assert causes == {0: PathFailure("rotation_near_pi", 0), 1: PathFailure("rotation_near_pi", 0)}


def test_mode_problem_rejects_unknown_mode(workpiece_frame):
    template = generate_cone_spiral(ConeSpec()).with_frame(workpiece_frame)
    with pytest.raises(ValueError, match="unknown solve mode 'spray'"):
        mode_problem(template, "spray", 5)


def _counted_sweep(monkeypatch, events):
    """``_sweep_mode``, recording in ``events`` each ``solve_lanes`` call as
    ``("solve", lanes, max iterations)`` and each chain walk of the solver
    and of the manipulability as ``("solver", lanes)`` and ``("w", lanes)``."""
    walk, solve_lanes = solver_module.chain_stack_lanes, analysis_module.solve_lanes

    def counted_walk(site):
        def walked(m, q):
            events.append((site, len(q)))
            return walk(m, q)
        return walked

    def counted_solve(m, t_d, *args):
        lanes = solve_lanes(m, t_d, *args)
        events.append(("solve", len(t_d), int(lanes.iterations.max(initial=0))))
        return lanes

    monkeypatch.setattr(solver_module, "chain_stack_lanes", counted_walk("solver"))
    monkeypatch.setattr(analysis_module, "chain_stack_lanes", counted_walk("w"))
    monkeypatch.setattr(analysis_module, "solve_lanes", counted_solve)
    return analysis_module._sweep_mode


def _grid_frames(workpiece_frame, y, z):
    """The (V, 4, 4) voxel frames of the y-z grid, y-major, in the workpiece's rotation."""
    y, z = np.meshgrid(y, z)
    frames = np.tile(workpiece_frame, (y.size, 1, 1))
    frames[:, 1, 3], frames[:, 2, 3] = y.ravel(), z.ravel()
    return frames


def test_sweep_walks_once_per_lane_step(model, q0_benchmark, workpiece_frame, monkeypatch):
    # each target's lanes start from the chain walk their last solve ended
    # on: a mode's solves walk its lane stack once per lockstep step, plus
    # the first target's first walk (the k = 0 wrist check walks each
    # flipped lane alone, with chain_stack). Its manipulability walks once
    # per block, on the block's targets times its live lanes: a block
    # closes when one more target of the live lanes would take it past
    # W_BLOCK lane-targets, and at the last target
    events = []
    sweep_mode = _counted_sweep(monkeypatch, events)
    template = generate_cone_spiral(ConeSpec(pitch=10.0, samples_per_rev=16)).with_frame(
        workpiece_frame
    )
    # test_lane_sweep_matches_scalar_solves' grid, whose voxels end all four ways
    frames = _grid_frames(
        workpiece_frame, np.arange(-2550.0, 600.0, 900.0), np.arange(-150.0, 3000.0, 900.0)
    )
    for mode in MODES:
        events.clear()
        path, proj = mode_problem(template, mode, 5)
        reachable, _, _ = sweep_mode(model, path, proj, frames, q0_benchmark, SolverSettings())
        solves = [event[1:] for event in events if event[0] == "solve"]
        assert len(solves) == len(path)
        assert sum(event[0] == "solver" for event in events) == sum(s for _, s in solves) + 1
        # the lanes live after target k enter target k + 1
        live = [lanes for lanes, _ in solves[1:]] + [int(reachable.sum())]
        assert live[-1] > 0
        blocks, held = [], 0
        for k, lanes in enumerate(live):
            held += 1
            if (held + 1) * lanes > analysis_module.W_BLOCK or k == len(path) - 1:
                blocks.append(held * lanes)
                held = 0
        assert len(blocks) >= 2 and max(blocks) <= analysis_module.W_BLOCK
        assert [event[1] for event in events if event[0] == "w"] == blocks


def test_sweep_blocks_keep_per_target_manipulability(
    model, q0_benchmark, workpiece_frame, monkeypatch
):
    # a 321-target path over 30 voxels: the manipulability spans several
    # blocks, and lanes fail both inside the first block and after it has
    # closed, each leaving the open block with its joints. Every voxel must
    # still be the scalar solver's, its mean_w the mean of per-target
    # manipulability_jl calls, bit for bit
    events = []
    sweep_mode = _counted_sweep(monkeypatch, events)
    template = generate_cone_spiral(ConeSpec(pitch=5.0, samples_per_rev=32)).with_frame(
        workpiece_frame
    )
    frames = _grid_frames(
        workpiece_frame, np.arange(-2000.0, 0.0, 400.0), np.arange(0.0, 2400.0, 400.0)
    )
    settings = SolverSettings()
    path, proj = mode_problem(template, "frik", 5)
    reachable, mean_w, causes = sweep_mode(model, path, proj, frames, q0_benchmark, settings)
    # the first block closes at the target of the last solve before the first
    # manipulability walk
    first_walk = next(i for i, event in enumerate(events) if event[0] == "w")
    first_block_end = sum(event[0] == "solve" for event in events[:first_walk]) - 1
    assert sum(event[0] == "w" for event in events) >= 3
    fail_at = [cause.k for cause in causes.values() if cause.kind != "out_of_reach"]
    assert min(fail_at) <= first_block_end < max(fail_at)
    assert reachable.any()
    for v, frame in enumerate(frames):
        ok, want_w, cause = scalar_voxel_oracle(
            model, path.with_frame(frame), q0_benchmark, proj, settings
        )
        assert reachable[v] == ok
        assert np.array_equal(mean_w[v], want_w, equal_nan=True)
        assert causes.get(v) == cause


def test_sweep_hands_on_the_flipped_lanes_solve_walks(
    model, q0_benchmark, workpiece_frame, monkeypatch
):
    # the k = 0 wrist flip patches a flipped lane's walk with its check's:
    # every lane's joints and walk handed on to target 1 must be those of
    # the scalar k = 0 solve, or of the solve from its flip where that one
    # converges in 0 iterations, byte for byte
    calls = []
    solve_lanes = analysis_module.solve_lanes

    def spied(m, t_d, q, proj, settings, walk=None):
        calls.append((t_d, q.copy(), None if walk is None else walk.copy()))
        return solve_lanes(m, t_d, q, proj, settings, walk)

    monkeypatch.setattr(analysis_module, "solve_lanes", spied)
    template = generate_cone_spiral(ConeSpec(pitch=10.0, samples_per_rev=16)).with_frame(
        workpiece_frame
    )
    frames = _grid_frames(
        workpiece_frame, np.arange(-2550.0, 600.0, 900.0), np.arange(-150.0, 3000.0, 900.0)
    )
    settings = SolverSettings()
    path, proj = mode_problem(template, "frik", 5)
    analysis_module._sweep_mode(model, path, proj, frames, q0_benchmark, settings)
    # target 0, then target 1 from the walks handed on
    t_d, q, walk = calls[1]
    poses = [path.with_frame(frame).base_poses() for frame in frames]
    flips = 0
    for lane, target in enumerate(t_d):
        (v,) = [v for v, base in enumerate(poses) if np.array_equal(base[1], target)]
        first = solve(model, poses[v][0], q0_benchmark, proj, settings)
        left, flipped = wrist_flip(model, q0_benchmark, first.q)
        from_flip = solve(model, poses[v][0], flipped, proj, settings)
        kept = left and from_flip.converged and from_flip.iterations == 0
        alone = from_flip if kept else first
        check = wrist_branch_check(model, poses[v][0], q0_benchmark, first.q, proj, settings)
        assert (check is not None) == kept
        if kept:
            assert np.array_equal(check.residual, from_flip.residual)
        flips += kept
        assert np.array_equal(q[lane], alone.q)
        assert walk[:, lane].tobytes() == alone.walk.tobytes()
    assert flips


def test_sweep_takes_the_solver_kernels_on_lane_stacks(
    model, q0_benchmark, workpiece_frame, monkeypatch
):
    # the sweep has no lane Jacobian or Halley product of its own: each
    # damped lane step of its solves follows a robot.jacobian_from_frames
    # call on the same lanes, each Halley one a robot.rolled_hessian_product
    # call too, and each manipulability call takes its Jacobian from
    # robot.jacobian_from_frames. Events are (name, lanes)
    assert not hasattr(robot_module, "jacobian_from_frames_lanes")
    assert not hasattr(robot_module, "hessian_product")
    # nor a walk format of its own: the lanes walk chain_stack's frame stacks
    assert not hasattr(robot_module, "chain_frames")
    assert not hasattr(robot_module, "chain_frames_lanes")
    events = []

    def counted(owner, attr, name, lanes):
        kernel = getattr(owner, attr)

        def call(*args):
            events.append((name, lanes(*args)))
            return kernel(*args)

        monkeypatch.setattr(owner, attr, call)

    counted(solver_module, "jacobian_from_frames", "jac", lambda _, axes, __: axes.shape[:-2])
    counted(solver_module, "rolled_hessian_product", "hdq", lambda _, dq: dq.shape[1:])
    counted(solver_module, "_lane_damped_step", "step", lambda j, *_: j.shape[:-2])
    counted(analysis_module, "jacobian_from_frames", "w_jac", lambda _, axes, __: axes.shape[:-2])
    counted(analysis_module, "manipulability_jl", "w", lambda _, q: q.shape[:-1])
    template = generate_cone_spiral(ConeSpec(pitch=10.0, samples_per_rev=16)).with_frame(
        workpiece_frame
    )
    frames = _grid_frames(
        workpiece_frame, np.arange(-2550.0, 600.0, 900.0), np.arange(-150.0, 3000.0, 900.0)
    )
    steps = {"halley": ("jac", "step", "hdq", "step"), "newton": ("jac", "step")}
    for method, pattern in steps.items():
        settings = SolverSettings(method=method)
        for mode in MODES:
            events.clear()
            path, proj = mode_problem(template, mode, 5)
            analysis_module._sweep_mode(model, path, proj, frames, q0_benchmark, settings)
            solver = [event for event in events if event[0] in pattern]
            w = [event for event in events if event[0] not in pattern]
            assert len(solver) >= 10 * len(pattern) and len(w) >= 2
            for i in range(0, len(solver), len(pattern)):
                group = solver[i : i + len(pattern)]
                assert [name for name, _ in group] == list(pattern)
                assert len({lanes for _, lanes in group}) == 1
            assert w == [(name, lanes) for _, lanes in w[::2] for name in ("w", "w_jac")]


def test_half_turn_target_fails_adhoc_lane_only(model, q0_benchmark):
    # the q0 TCP pose turned by pi about its x-axis, on a frame with q0's TCP
    # rotation so that the adhoc spin keeps the half-turn: the 6-DOF lane
    # meets a log map that is not unique and records it without raising.
    # The FRIK lanes take the antiparallel-axis branch of the 5-DOF error
    # (the wrist then winds J5 past its limit, as the scalar solve does) or
    # ignore orientation (3-DOF) and stay reachable
    start = forward_kinematics(model, q0_benchmark)
    target = start @ make_pose(rot_x(np.pi), np.zeros(3))
    template = Toolpath(poses=(pose_inverse(start) @ target)[None], frame=start)
    spec = one_voxel_spec(start[1, 3], start[2, 3])
    voxel_frame = start.copy()
    (voxel_frame[1, 3],), (voxel_frame[2, 3],) = spec.centers()
    for task_dof in (3, 5):
        frik_ok, frik_w, frik_cause = scalar_voxel_oracle(
            model, template.with_frame(voxel_frame), q0_benchmark, TaskProjector(task_dof),
            SolverSettings(),
        )
        assert frik_ok == (task_dof == 3)
        for jobs in (1, 2):
            adhoc, frik = workspace_sweep(
                model, template, spec, q0_benchmark, jobs=jobs, frik_task_dof=task_dof
            )
            assert adhoc.causes == {(0, 0): PathFailure("rotation_near_pi", 0)}
            assert not adhoc.reachable[0, 0]
            assert frik.reachable[0, 0] == frik_ok
            assert np.array_equal(frik.mean_w[0, 0], frik_w, equal_nan=True)
            assert frik.causes.get((0, 0)) == frik_cause
