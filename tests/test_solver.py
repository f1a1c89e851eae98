import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frik.solver as solver_module
from frik.analysis import mode_problem
from frik.errors import DimensionMismatch, PathFailed, PathFailure, RotationNearPi
from frik.liegroup import make_pose, rot_x, rot_y, rot_z, so3_exp, so3_log
from frik.robot import (
    chain_stack,
    chain_stack_lanes,
    forward_kinematics,
    geometric_jacobian,
    jacobian_from_frames,
    rolled_hessian_product,
)
from frik.solver import (
    SolverSettings,
    TaskProjector,
    damped_step,
    solve,
    solve_lanes,
    solve_toolpath,
    target_failures,
    task_error,
    task_step,
    wrist_flip,
)
from frik.toolpath import ConeSpec, Toolpath, generate_cone_spiral

from conftest import (
    kinematic_hessian,
    target_frame_walk,
    task_error_concatenated,
    twist_rotation,
    walk_parts,
)

SETTINGS = SolverSettings()
# a target with the base frame's orientation
BASE_AXES_TARGET = make_pose(np.eye(3), np.array([1500.0, -200.0, 900.0]))


def path_of(poses):
    return Toolpath(poses=np.stack(poses))


def base_frame_error(t_e, t_d, r):
    """The task error as a base-frame twist: the position difference, then
    the rotation vector onto the target (r = 6), the minimal rotation
    aligning the TCP z-axis with the target's (r = 5, axes not parallel) or
    zero (r = 3). ``twist_rotation(R_d)[:r]`` of it is the reference for the
    solver's target-frame error."""
    linear = t_d[:3, 3] - t_e[:3, 3]
    if r == 6:
        angular = so3_log(t_d[:3, :3] @ t_e[:3, :3].T)
    elif r == 5:
        z_e, z_d = t_e[:3, 2], t_d[:3, 2]
        perp = np.cross(z_e, z_d)
        sin_a = np.linalg.norm(perp)
        angular = np.arctan2(sin_a, z_e @ z_d) * perp / sin_a
    else:
        angular = np.zeros(3)
    return np.concatenate([linear, angular])


def target_frame_step_terms(model, q, t_d, r):
    """``solve``'s iteration terms at ``q``: the target-frame task error and
    the 6-row Jacobian of the walk rotated onto the target, with its rolled
    rows."""
    tcp, axes, origins, p_d = target_frame_walk(model, q, t_d)
    return (task_error(tcp, p_d, r), *jacobian_from_frames(tcp[:, 3], axes, origins))


# ---------------------------------------------------------------------------
# task projector
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("r", [3, 5, 6])
def test_projector_is_identity_row_submatrix(r, model, q0_benchmark):
    # along the axes of a target with the base orientation the walk is the
    # base-frame walk, so the task rows are the first r rows as they are
    err, j, _ = target_frame_step_terms(model, q0_benchmark, BASE_AXES_TARGET, r)
    assert np.array_equal(j[:r], geometric_jacobian(model, q0_benchmark)[:r])
    dx = base_frame_error(forward_kinematics(model, q0_benchmark), BASE_AXES_TARGET, r)
    if r == 5:
        # the alignment is formed along the target's axes, so it rounds otherwise
        assert np.abs(err - dx[:r]).max() <= 1e-12 * np.abs(dx).max()
    else:
        assert np.array_equal(err, dx[:r])


def test_decompose_identity_frame_full_task(model, q0_benchmark):
    # the target-frame J, error and Halley term H dq are the base-frame ones
    # for the full task in the identity frame
    err, j, rolled = target_frame_step_terms(model, q0_benchmark, BASE_AXES_TARGET, 6)
    dq = np.linspace(-0.3, 0.3, j.shape[1])
    assert np.array_equal(j, geometric_jacobian(model, q0_benchmark))
    t_e = forward_kinematics(model, q0_benchmark)
    assert np.array_equal(err, base_frame_error(t_e, BASE_AXES_TARGET, 6))
    tcp, axes, origins = walk_parts(chain_stack(model, q0_benchmark))
    hdq = rolled_hessian_product(jacobian_from_frames(tcp[:3, 3], axes, origins)[1], dq)
    assert np.array_equal(rolled_hessian_product(rolled, dq), hdq)


def test_decompose_identity_frame_five_dof(model, q0_benchmark):
    # with r = 5 the same decomposition only drops the spin row
    err, j, rolled = target_frame_step_terms(model, q0_benchmark, BASE_AXES_TARGET, 5)
    dq = np.linspace(-0.3, 0.3, j.shape[1])
    base = geometric_jacobian(model, q0_benchmark)
    assert np.array_equal(j[:5], base[:5])
    dx = base_frame_error(forward_kinematics(model, q0_benchmark), BASE_AXES_TARGET, 5)
    assert np.abs(err - dx[:5]).max() <= 1e-12 * np.abs(dx).max()
    tcp, axes, origins = walk_parts(chain_stack(model, q0_benchmark))
    hdq = rolled_hessian_product(jacobian_from_frames(tcp[:3, 3], axes, origins)[1], dq)
    assert np.array_equal(rolled_hessian_product(rolled, dq)[:5], hdq[:5])


def test_projector_rejects_bad_dimension():
    with pytest.raises(ValueError):
        TaskProjector(4)


def test_solver_entry_points_reject_bad_input(model, q0_benchmark):
    with pytest.raises(ValueError, match="unknown method"):
        SolverSettings(method="gauss")
    with pytest.raises(ValueError, match="lam must be positive"):
        damped_step(np.eye(6), np.ones(6), 0.0)
    t_d = forward_kinematics(model, q0_benchmark)
    with pytest.raises(DimensionMismatch, match="expected q0 of length 6"):
        solve(model, t_d, q0_benchmark[:5], TaskProjector(6))
    with pytest.raises(DimensionMismatch, match="expected \\(L, 6\\) starts"):
        solve_lanes(model, t_d[None], q0_benchmark[None, :5], TaskProjector(6))
    with pytest.raises(DimensionMismatch, match="expected \\(L, 6\\) starts"):
        solve_lanes(model, t_d, q0_benchmark[None], TaskProjector(6))


# ---------------------------------------------------------------------------
# single steps and saturation
# ---------------------------------------------------------------------------


def test_one_damped_step_reduces_millimetre_error(model, q0_benchmark):
    t_d = forward_kinematics(model, q0_benchmark).copy()
    t_d[:3, 3] += np.array([1.0, 0.0, 0.0])
    res = solve(
        model,
        t_d,
        q0_benchmark,
        TaskProjector(6),
        SolverSettings(method="newton", max_iterations=1),
    )
    tcp, _, _, p_d = target_frame_walk(model, res.q, t_d)
    assert np.linalg.norm(task_error(tcp, p_d, 6)) < 1.0


def test_saturate_passthrough_and_clamp(model, q0_benchmark):
    # task_step passes an error below e_max to the damped step unchanged and
    # clamps a larger one to e_max along the same direction
    j = geometric_jacobian(model, q0_benchmark)
    e = np.array([3.0, 0.0, 0.0, 0.0, 4.0])
    loose = SolverSettings(e_max=10.0)
    assert np.array_equal(task_step(j, None, e, 5.0, 5, loose), damped_step(j[:5], e, loose.lam))
    tight = SolverSettings(e_max=2.5)
    clamped = task_step(j, None, e, 5.0, 5, tight)
    assert np.array_equal(clamped, damped_step(j[:5], 0.5 * e, tight.lam))
    assert np.array_equal(task_step(j, None, np.zeros(5), 0.0, 5, tight), np.zeros(6))


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def test_project_discards_target_frame_spin_component(model, q0_benchmark):
    # the r = 5 error is the base-frame alignment along the target's axes
    # without its spin row, which is zero: the alignment turns about an axis
    # perpendicular to the target z-axis
    rng = np.random.default_rng(13)
    t_e = forward_kinematics(model, q0_benchmark)
    j = geometric_jacobian(model, q0_benchmark)
    for _ in range(20):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        rd = so3_exp(rng.uniform(0, 3) * axis)
        t_d = make_pose(rd, t_e[:3, 3] + rng.normal(size=3) * 100)
        dx_hat, j6, _ = target_frame_step_terms(model, q0_benchmark, t_d, 5)
        full = twist_rotation(rd) @ base_frame_error(t_e, t_d, 5)
        assert abs(full[5]) < 1e-12
        assert np.allclose(dx_hat, full[:5], atol=1e-12)
        for r in (3, 5, 6):
            assert np.abs(j6[:r] - twist_rotation(rd)[:r] @ j).max() < 1e-9


def test_stack_rotation_rounds_as_the_walk_rotations(model):
    # solve rotates the whole frame stack with one matmul, R_d^T @ frames;
    # the TCP, axes and origins it reads must be the bits of rotating each
    # piece of the walk on its own, rd.T @ tcp and axes @ rd (the walk
    # target_frame_walk forms)
    rng = np.random.default_rng(2202)
    for _ in range(300):
        q = rng.uniform(model.joint_min, model.joint_max)
        t_d = make_pose(so3_exp(rng.normal(size=3)), rng.normal(size=3) * 500)
        turned = t_d[:3, :3].T @ chain_stack(model, q)[:, :3]
        tcp, axes, origins, _ = target_frame_walk(model, q, t_d)
        for got, want in ((turned[-1], tcp), (turned[:-1, :, 2], axes), (turned[:-1, :, 3], origins)):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("r", [3, 5, 6])
def test_task_error_rounds_as_concatenated_form(model, r):
    # task_error fills one r-vector from Python floats; it must give the
    # bits of the numpy-scalar form joined by np.concatenate, over rotated
    # walks and, for r = 5, TCP z-axes (anti)parallel to the target's and
    # just off them (s around the 1e-12 branch point)
    rng = np.random.default_rng(2203 + r)
    cases = []
    for _ in range(500):
        q = rng.uniform(model.joint_min, model.joint_max)
        t_d = make_pose(so3_exp(rng.normal(size=3)), rng.normal(size=3) * 500)
        tcp, _, _, p_d = target_frame_walk(model, q, t_d)
        cases.append((tcp, p_d))
    if r == 5:
        for spin in rng.uniform(0.0, 2.0 * np.pi, 20):
            for tilt in (0.0, np.pi, 1e-13, 1e-12, 3e-12, np.pi - 1e-12, 1e-3):
                rotation = rot_z(spin) @ rot_x(tilt) @ rot_z(-spin)
                cases.append((make_pose(rotation, rng.normal(size=3))[:3], rng.normal(size=3)))
    branches = set()
    for tcp, p_d in cases:
        want = task_error_concatenated(tcp, p_d, r)
        assert task_error(tcp, p_d, r).tobytes() == want.tobytes()
        flat = np.hypot(*tcp[:2, 2]) < 1e-12
        branches.add("bent" if not flat else "parallel" if tcp[2, 2] > 0.0 else "antiparallel")
    assert branches == ({"bent", "parallel", "antiparallel"} if r == 5 else {"bent"})


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_target_frame_terms_match_twist_rotation_reference(model, seed):
    # error, Jacobian and Halley Jacobian J + H dq / 2 of the walk rotated
    # onto the target are the base-frame ones re-expressed along the
    # target's axes, first r rows, to 1e-12 of their largest entry
    rng = np.random.default_rng(seed)
    for _ in range(20):
        q = rng.uniform(model.joint_min, model.joint_max)
        t_e = forward_kinematics(model, q)
        turn = so3_exp(rng.uniform(0.0, 2.5) * rot_z(rng.uniform(0, 6)) @ np.array([1.0, 0.0, 0.3]))
        t_d = t_e @ make_pose(turn, rng.normal(size=3) * 200)
        dq = rng.normal(size=model.n) * 0.1
        tr = twist_rotation(t_d[:3, :3])
        base = geometric_jacobian(model, q)
        base_halley = base + 0.5 * (kinematic_hessian(model, q) @ dq)
        for r in (3, 5, 6):
            err, j6, rolled = target_frame_step_terms(model, q, t_d, r)
            halley = j6 + 0.5 * rolled_hessian_product(rolled, dq)
            for got, want in (
                (err, tr[:r] @ base_frame_error(t_e, t_d, r)),
                (j6[:r], tr[:r] @ base),
                (halley[:r], tr[:r] @ base_halley),
            ):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# ---------------------------------------------------------------------------
# damped step
# ---------------------------------------------------------------------------


def test_damped_step_zero_error():
    j = np.random.default_rng(1).normal(size=(5, 6))
    assert np.array_equal(damped_step(j, np.zeros(5), 0.1), np.zeros(6))


def test_damped_step_identity_closed_form():
    dx = np.zeros(6)
    dx[0] = 1.0
    dq = damped_step(np.eye(6), dx, 0.1)
    assert np.allclose(dq, dx / 1.01, atol=1e-14)


def test_damped_step_matches_normal_equations_oracle():
    # the two damped forms J^T (J J^T + l^2 I)^-1 and (J^T J + l^2 I)^-1 J^T
    # are algebraically equal
    rng = np.random.default_rng(2)
    for _ in range(20):
        j = rng.normal(size=(5, 6))
        dx = rng.normal(size=5)
        lam = rng.uniform(0.05, 1.0)
        dq = damped_step(j, dx, lam)
        oracle = np.linalg.solve(j.T @ j + lam * lam * np.eye(6), j.T @ dx)
        assert np.abs(dq - oracle).max() < 1e-10


@pytest.mark.parametrize("r", [3, 5, 6])
def test_damped_step_rounds_as_numpy_solve(r):
    # both steps call the LAPACK gufunc behind np.linalg.solve directly; a
    # numpy release that changes it has to fail here, not move solves
    rng = np.random.default_rng(r)
    j = rng.normal(size=(50, r, 6)) * rng.choice([1e-3, 1.0, 1e3], size=(50, 1, 1))
    dx = rng.normal(size=(50, r))
    lam = 0.02
    for k in range(50):
        gram = j[k] @ j[k].T
        gram.flat[:: r + 1] += lam * lam
        want = j[k].T @ np.linalg.solve(gram, dx[k])
        assert damped_step(j[k], dx[k], lam).tobytes() == want.tobytes()
    grams = j @ j.swapaxes(-1, -2)
    grams[:, range(r), range(r)] += lam * lam
    stacked = (j.swapaxes(-1, -2) @ np.linalg.solve(grams, dx[..., None]))[..., 0]
    assert solver_module._lane_damped_step(j, dx, lam).tobytes() == stacked.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_damped_step_norm_bound(seed):
    rng = np.random.default_rng(seed)
    r = rng.choice([3, 5, 6])
    j = rng.normal(size=(r, 6)) * rng.choice([1e-3, 1.0, 1e3])
    dx = rng.normal(size=r) * rng.choice([1e-3, 1.0, 1e3])
    lam = rng.uniform(0.005, 1.0)
    dq = damped_step(j, dx, lam)
    assert np.all(np.isfinite(dq))
    assert np.linalg.norm(dq) <= np.linalg.norm(dx) / (2 * lam) * (1 + 1e-9)


def test_full_task_step_unchanged_by_twist_rotation(model, q0_benchmark):
    rng = np.random.default_rng(4)
    j = geometric_jacobian(model, q0_benchmark)
    for _ in range(10):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        tr = twist_rotation(so3_exp(rng.uniform(0, 3) * axis))
        dx = rng.normal(size=6) * np.array([50, 50, 50, 0.5, 0.5, 0.5])
        plain = damped_step(j, dx, 0.02)
        rotated = damped_step(tr @ j, tr @ dx, 0.02)
        assert np.abs(plain - rotated).max() < 1e-10


# ---------------------------------------------------------------------------
# task step
# ---------------------------------------------------------------------------


def test_task_step_zero_error(model, q0_benchmark):
    tcp, axes, origins = walk_parts(chain_stack(model, q0_benchmark))
    j, rolled = jacobian_from_frames(tcp[:3, 3], axes, origins)
    for halley_rows in (None, rolled):
        step = task_step(j, halley_rows, np.zeros(5), 0.0, 5, SETTINGS)
        assert np.array_equal(step, np.zeros(6))


def test_task_step_with_zero_hessian_equals_newton(model, q0_benchmark):
    # zero rolled rows (zero axes) make the Halley product H dq exactly zero
    j = geometric_jacobian(model, q0_benchmark)
    rd = so3_exp(np.array([0.2, -0.4, 0.1]))
    _, j6, rolled = target_frame_step_terms(model, q0_benchmark, make_pose(rd, np.zeros(3)), 5)
    dx_hat = np.array([5.0, -2.0, 1.0, 0.05, -0.02])
    norm = np.linalg.norm(dx_hat)
    newton = task_step(j6, None, dx_hat, norm, 5, SETTINGS)
    halley = task_step(j6, np.zeros_like(rolled), dx_hat, norm, 5, SETTINGS)
    assert np.array_equal(newton, halley)
    reference = damped_step(twist_rotation(rd)[:5] @ j, dx_hat, SETTINGS.lam)
    assert np.abs(newton - reference).max() < 1e-10


def test_halley_projection_commutes_with_augmentation(model, q0_benchmark):
    # the Halley Jacobian J + H dq / 2 of the walk rotated onto the target
    # equals augmenting the rotated pieces: H dq turns with the frame as J does
    rng = np.random.default_rng(8)
    j = geometric_jacobian(model, q0_benchmark)
    h = kinematic_hessian(model, q0_benchmark)
    rd = so3_exp(np.array([0.3, 0.1, -0.2]))
    tr = twist_rotation(rd)[:5]
    dq = rng.normal(size=6) * 0.1
    _, j6, rolled = target_frame_step_terms(model, q0_benchmark, make_pose(rd, np.zeros(3)), 5)
    direct = (j6 + 0.5 * rolled_hessian_product(rolled, dq))[:5]
    pieces = tr @ j + 0.5 * (np.einsum("rk,kij->rij", tr, h) @ dq)
    assert np.abs(direct - pieces).max() < 1e-12


def test_one_solve_iteration_is_task_step(model, q0_benchmark):
    # solve takes exactly the step task_step returns, saturated or not
    q0 = q0_benchmark
    near = forward_kinematics(model, q0 + 0.01)
    far = near.copy()
    far[:3, 3] += np.array([150.0, -80.0, 60.0])
    for method in ("newton", "halley"):
        for r in (3, 5, 6):
            settings = SolverSettings(method=method, max_iterations=1)
            for t_d in (near, far):
                err_hat, j6, rolled = target_frame_step_terms(model, q0, t_d, r)
                err_norm = np.linalg.norm(err_hat)
                assert (err_norm > settings.e_max) == (t_d is far)
                halley = rolled if method == "halley" else None
                dq = task_step(j6, halley, err_hat, err_norm, r, settings)
                res = solve(model, t_d, q0, TaskProjector(r), settings)
                assert np.array_equal(res.q, q0 + dq)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_already_at_target(model, q0_benchmark):
    t_d = forward_kinematics(model, q0_benchmark)
    for r in (3, 5, 6):
        res = solve(model, t_d, q0_benchmark, TaskProjector(r), SETTINGS)
        assert res.converged
        assert res.iterations <= 1
        assert np.array_equal(res.q, q0_benchmark)


def test_solve_full_task_recovers_perturbed_pose(model, q0_benchmark):
    rng = np.random.default_rng(21)
    tight = SolverSettings(epsilon=1e-9)
    for _ in range(10):
        q_true = q0_benchmark + rng.uniform(-0.4, 0.4, 6)
        t_d = forward_kinematics(model, q_true)
        res = solve(model, t_d, q_true + rng.uniform(-0.05, 0.05, 6), TaskProjector(6), tight)
        assert res.converged
        t_e = forward_kinematics(model, res.q)
        assert np.abs(t_e[:3, 3] - t_d[:3, 3]).max() < 1e-6
        assert np.abs(t_e[:3, :3] - t_d[:3, :3]).max() < 1e-8


def test_solve_position_only_task(model, q0_benchmark):
    t_d = forward_kinematics(model, q0_benchmark + 0.2)
    res = solve(model, t_d, q0_benchmark, TaskProjector(3), SETTINGS)
    assert res.converged
    t_e = forward_kinematics(model, res.q)
    assert np.abs(t_e[:3, 3] - t_d[:3, 3]).max() < 1e-5


def test_solve_five_dof_invariant_to_target_spin(model, q0_benchmark):
    q_true = q0_benchmark + 0.1
    t_d = forward_kinematics(model, q_true)
    baseline = solve(model, t_d, q0_benchmark, TaskProjector(5), SETTINGS)
    assert baseline.converged
    for gamma in (np.pi / 6, np.pi / 2, np.pi, 3 * np.pi / 2):
        spun = t_d @ make_pose(rot_z(gamma), np.zeros(3))
        res = solve(model, spun, q0_benchmark, TaskProjector(5), SETTINGS)
        assert res.converged
        assert np.abs(res.q - baseline.q).max() < 1e-8


def test_solve_five_dof_places_position_exactly(model, q0_benchmark):
    q_true = q0_benchmark + 0.15
    t_d = forward_kinematics(model, q_true)
    res = solve(model, t_d, q0_benchmark, TaskProjector(5), SETTINGS)
    assert res.converged
    t_e = forward_kinematics(model, res.q)
    assert np.linalg.norm(t_e[:3, 3] - t_d[:3, 3]) < 1e-6
    assert t_e[:3, 2] @ t_d[:3, 2] > 1.0 - 1e-10


def test_saturation_flags_mark_the_clamped_steps(model, q0_benchmark):
    # one flag per step, True exactly when the task error norm the step
    # starts from exceeds e_max; None when recording is off
    t_d = forward_kinematics(model, q0_benchmark + 0.4)
    proj = TaskProjector(6)
    settings = SolverSettings(record_residuals=True)
    result = solve(model, t_d, q0_benchmark, proj, settings)
    flags = result.saturation_flags
    assert result.converged and len(flags) == result.iterations
    assert True in flags and False in flags
    q = q0_benchmark
    for flag in flags:
        tcp, _, _, p_d = target_frame_walk(model, q, t_d)
        assert flag == (np.linalg.norm(task_error(tcp, p_d, 6)) > settings.e_max)
        q = solve(model, t_d, q, proj, replace(settings, max_iterations=1)).q
    assert np.array_equal(q, result.q)
    assert solve(model, t_d, q0_benchmark, proj).saturation_flags is None


def test_solve_unreachable_target_is_soft(model, q0_benchmark):
    t_d = make_pose(np.eye(3), np.array([10_000.0, 0.0, 0.0]))
    res = solve(model, t_d, q0_benchmark, TaskProjector(6), SETTINGS)
    assert not res.converged
    assert np.all(np.isfinite(res.q))
    assert res.iterations == SETTINGS.max_iterations


def test_solve_near_wrist_singularity_stays_bounded(model):
    rng = np.random.default_rng(33)
    for _ in range(20):
        q = rng.uniform(model.joint_min, model.joint_max)
        q[4] = 0.0
        t_d = forward_kinematics(model, q + rng.uniform(-0.2, 0.2, 6))
        res = solve(model, t_d, q, TaskProjector(5), SETTINGS)
        assert np.all(np.isfinite(res.q))


def test_halley_iterations_not_worse_than_newton(model, q0_benchmark):
    rng = np.random.default_rng(55)
    wins = 0
    total = 0
    for _ in range(100):
        q_true = np.clip(
            q0_benchmark + rng.uniform(-0.5, 0.5, 6), model.joint_min, model.joint_max
        )
        t_d = forward_kinematics(model, q_true)
        halley = solve(model, t_d, q0_benchmark, TaskProjector(5), SETTINGS)
        newton = solve(
            model, t_d, q0_benchmark, TaskProjector(5), SolverSettings(method="newton")
        )
        if not (halley.converged and newton.converged):
            continue
        total += 1
        if halley.iterations <= newton.iterations:
            wins += 1
    assert total >= 90
    assert wins / total >= 0.9


def lane_problems(model, q0_benchmark):
    """32 lane targets and starts: cold solves from varied starts, one target
    beyond the arm (the lane runs to the cap) and one a half-turn from q0's
    pose, 1 mm off (the 6-DOF lane stops where solve raises, though its
    error is not zero)."""
    rng = np.random.default_rng(61)
    lo, hi = model.joint_min, model.joint_max
    near = np.clip(q0_benchmark + rng.uniform(-0.8, 0.8, (30, 6)), lo, hi)
    starts = np.clip(q0_benchmark + rng.uniform(-0.2, 0.2, (32, 6)), lo, hi)
    starts[-1] = q0_benchmark
    targets = [forward_kinematics(model, q) for q in near]
    targets.append(make_pose(np.eye(3), np.array([10_000.0, 0.0, 0.0])))
    targets.append(
        forward_kinematics(model, q0_benchmark) @ make_pose(rot_x(np.pi), np.array([0.0, 0.0, 1.0]))
    )
    return np.stack(targets), starts


@pytest.mark.parametrize("r", [3, 5, 6])
@pytest.mark.parametrize("method", ["halley", "newton"])
def test_solve_lanes_round_as_solve(model, q0_benchmark, method, r):
    # every lane of lane_problems must take solve's steps bit for bit, and
    # hand back solve's walk byte for byte, both when the lanes leave at
    # different iterations, each walk stored as its lane leaves, and when
    # all of them leave together, where the last walk is handed back whole
    targets, starts = lane_problems(model, q0_benchmark)
    settings = SolverSettings(method=method)
    lanes = solve_lanes(model, targets, starts, TaskProjector(r), settings)
    assert lanes.half_turn.tolist() == [False] * 31 + [r == 6]
    assert len(set(lanes.iterations.tolist())) >= 3
    for lane, t_d in enumerate(targets):
        try:
            alone = solve(model, t_d, starts[lane], TaskProjector(r), settings)
        except RotationNearPi:
            # solve raises at its first error, as the lane stops there
            assert lanes.half_turn[lane] and not lanes.converged[lane]
            assert lanes.iterations[lane] == 0
            assert lanes.walk[:, lane].tobytes() == chain_stack(model, starts[lane]).tobytes()
            continue
        assert lanes.converged[lane] == alone.converged
        assert lanes.iterations[lane] == alone.iterations
        assert np.array_equal(lanes.q[lane], alone.q)
        assert lanes.walk[:, lane].tobytes() == alone.walk.tobytes()
    assert not lanes.converged[30] and lanes.iterations[30] == settings.max_iterations
    # four copies of one problem step and leave together
    together = solve_lanes(model, targets[[0] * 4], starts[[0] * 4], TaskProjector(r), settings)
    alone = solve(model, targets[0], starts[0], TaskProjector(r), settings)
    assert together.iterations.tolist() == [alone.iterations] * 4 and alone.iterations > 0
    for lane in range(4):
        assert together.walk[:, lane].tobytes() == alone.walk.tobytes()


@pytest.mark.parametrize("r", [3, 5, 6])
@pytest.mark.parametrize("method", ["halley", "newton"])
def test_solve_lanes_carry_their_last_walk(model, q0_benchmark, method, r):
    # the returned walk is each lane's walk at its returned joints, whether
    # the lane converged, ran to the cap or stopped on a half-turn; a solve
    # that starts from it (the sweep's next target) is the solve that walks
    # its own start, bit for bit, and so is the walk it returns
    targets, starts = lane_problems(model, q0_benchmark)
    settings, proj = SolverSettings(method=method), TaskProjector(r)
    lanes = solve_lanes(model, targets, starts, proj, settings)
    assert lanes.converged[:30].all() and lanes.half_turn[31] == (r == 6)
    assert not lanes.converged[30]
    assert lanes.walk.tobytes() == chain_stack_lanes(model, lanes.q).tobytes()
    turn = make_pose(rot_z(0.1) @ rot_x(0.05), np.array([2.0, -1.0, 3.0]))
    following = (targets @ turn, lanes.q, proj, settings)
    carried = solve_lanes(model, *following, lanes.walk)
    walked = solve_lanes(model, *following)
    for got, expected in zip(carried, walked):
        assert got.tobytes() == expected.tobytes()
    # converged lanes restarted on their own target all leave at the first
    # iteration, and hand back the walk they were given, not a copy
    done = np.flatnonzero(lanes.converged)
    handed = lanes.walk[:, done]
    again = solve_lanes(model, targets[done], lanes.q[done], proj, settings, handed)
    assert again.converged.all() and not again.iterations.any()
    assert again.walk is handed


def workspace_targets(model, q0_benchmark, r):
    """Consecutive solve_lanes calls as the sweep makes them, each from the
    last one's joints and walk: the 32 lane_problems, whose lanes leave at
    different iterations; their targets turned slightly, from the returned
    joints; the converged lanes alone (fewer lanes); none; and the 32
    again."""
    targets, starts = lane_problems(model, q0_benchmark)
    turn = make_pose(rot_z(0.1) @ rot_x(0.05), np.array([2.0, -1.0, 3.0]))
    first = solve_lanes(model, targets, starts, TaskProjector(r))
    done = np.flatnonzero(first.converged)
    assert 0 < len(done) < len(targets)
    return [
        (targets, starts, None),
        (targets @ turn, first.q, first.walk),
        (targets[done] @ turn, first.q[done], first.walk[:, done]),
        (targets[:0], starts[:0], None),
        (targets, starts, None),
    ]


@pytest.mark.parametrize("r", [3, 5, 6])
@pytest.mark.parametrize("method", ["halley", "newton"])
def test_solve_lanes_through_one_workspace_round_as_fresh_calls(model, q0_benchmark, method, r):
    # the sweep hands its LaneWorkspace to call after call: calls whose
    # lanes leave at different iterations, go on in views for fewer lanes,
    # or come with fewer or more lanes than it was built for must return
    # what a call that builds its own returns, byte for byte, with no warning
    settings, proj = SolverSettings(method=method), TaskProjector(r)
    calls = workspace_targets(model, q0_benchmark, r)
    first = solve_lanes(model, *calls[0][:2], proj, settings)
    assert len(set(first.iterations.tolist())) >= 3
    for built_for in (32, 7):
        work = solver_module.LaneWorkspace(model, r, built_for)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for targets, starts, walk in calls:
                held = solve_lanes(model, targets, starts, proj, settings, walk, work)
                fresh = solve_lanes(model, targets, starts, proj, settings, walk)
                for got, want in zip(held, fresh):
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("r", [3, 5, 6])
def test_solve_lanes_returns_no_workspace_buffer(model, q0_benchmark, r):
    # a returned LaneSolves, its walk included, shares no memory with the
    # workspace, and later calls through it leave it as it was returned
    proj, work = TaskProjector(r), solver_module.LaneWorkspace(model, r, 32)
    calls = workspace_targets(model, q0_benchmark, r)
    kept = []
    for targets, starts, walk in calls:
        lanes = solve_lanes(model, targets, starts, proj, SETTINGS, walk, work)
        for array in lanes:
            for buffer in work._buffers:
                assert not np.shares_memory(array, buffer)
        kept.append((lanes, [array.copy() for array in lanes]))
    for lanes, copies in kept:
        for array, copy in zip(lanes, copies):
            assert array.tobytes() == copy.tobytes()


def test_lane_workspace_views_share_its_buffers(model):
    # for_lanes gives fewer lanes views of the workspace's own buffers, and
    # keeps them for a few lane counts only; more lanes get buffers of their own
    work = solver_module.LaneWorkspace(model, 5, 20)
    fewer = work.for_lanes(6)
    assert fewer.frames.shape == (model.n + 1, 6, 4, 4)
    assert np.shares_memory(fewer.frames, work.frames)
    assert np.shares_memory(fewer.jacobian.rolled, work.jacobian.rolled)
    assert np.shares_memory(fewer.for_lanes(3).step.gram, work.step.gram)
    assert work.for_lanes(6) is fewer and work.for_lanes(20) is work
    for lanes in range(1, 20):
        work.for_lanes(lanes)
    assert len(work._kept) == solver_module.KEPT_SIZES
    more = work.for_lanes(21)
    assert not np.shares_memory(more.frames, work.frames)


def workspace_solves(model, q0_benchmark):
    """The targets of consecutive solves as solve_toolpath makes them
    through one workspace: one 150 mm off the start's pose, so that its
    cold solve's first errors exceed e_max, then three, each nudged from the
    last, whose warm solves stay below it."""
    lift = make_pose(rot_y(0.2), np.array([150.0, -80.0, 60.0]))
    targets = [forward_kinematics(model, q0_benchmark + 0.3) @ lift]
    nudge = make_pose(rot_z(0.1) @ rot_x(0.05), np.array([2.0, -1.0, 3.0]))
    for _ in range(3):
        targets.append(targets[-1] @ nudge)
    return targets


def solve_workspace_arrays(work):
    """Every array a SolveWorkspace holds, views included, but the model's."""
    items = [value for key, value in vars(work).items() if key != "model"]
    while items:
        value = items.pop()
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, (tuple, list)):
            items.extend(value)
        elif hasattr(value, "__dict__"):
            items.extend(vars(value).values())


OFFSET_TOOL = make_pose(rot_y(np.radians(30.0)), np.array([200.0, 0.0, 150.0]))


@pytest.mark.parametrize("tool", [None, OFFSET_TOOL], ids=["flange", "offset_tool"])
@pytest.mark.parametrize("r", [3, 5, 6])
@pytest.mark.parametrize("method", ["halley", "newton"])
def test_solves_through_one_workspace_round_as_fresh_calls(model, q0_benchmark, method, r, tool):
    # solve_toolpath hands one SolveWorkspace to every target's solve: a
    # solve through a workspace that earlier solves wrote into, saturated
    # or not, must return what a solve that builds its own returns, byte for
    # byte, walk included; and no returned array may be one of its buffers,
    # so overwriting the workspace afterwards changes no result
    if tool is not None:
        model = replace(model, tool=tool)
    settings, proj = SolverSettings(method=method), TaskProjector(r)
    work = solver_module.SolveWorkspace(model, r, method)
    q, walk, kept = q0_benchmark, None, []
    for k, t_d in enumerate(workspace_solves(model, q0_benchmark)):
        held = solve(model, t_d, q, proj, settings, walk, work)
        fresh = solve(model, t_d, q, proj, settings, walk)
        assert held.converged and held.iterations > 0
        saturated = np.linalg.norm(target_frame_step_terms(model, q, t_d, r)[0]) > settings.e_max
        assert saturated == (k == 0)
        assert held.iterations == fresh.iterations
        returned = (held.q, held.residual, held.walk)
        for got, want in zip(returned, (fresh.q, fresh.residual, fresh.walk)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        for array in returned:
            for buffer in solve_workspace_arrays(work):
                assert not np.shares_memory(array, buffer)
        kept.append((returned, [array.copy() for array in returned]))
        q, walk = held.q, held.walk
    for buffer in solve_workspace_arrays(work):
        buffer[...] = np.nan
    for returned, copies in kept:
        for array, copy in zip(returned, copies):
            assert array.tobytes() == copy.tobytes()


def test_solve_rejects_a_workspace_of_another_problem(model, q0_benchmark):
    t_d = forward_kinematics(model, q0_benchmark + 0.1)
    work = solver_module.SolveWorkspace(model, 5, "halley")
    solve(model, t_d, q0_benchmark, TaskProjector(5), SETTINGS, work=work)
    # an equal model built apart serves
    solve(replace(model), t_d, q0_benchmark, TaskProjector(5), SETTINGS, work=work)
    for other, proj, settings in (
        (replace(model, tool=OFFSET_TOOL), TaskProjector(5), SETTINGS),
        (model, TaskProjector(6), SETTINGS),
        (model, TaskProjector(3), SETTINGS),
        (model, TaskProjector(5), SolverSettings(method="newton")),
    ):
        with pytest.raises(ValueError, match="another model, task dimension or method"):
            solve(other, t_d, q0_benchmark, proj, settings, work=work)


@pytest.mark.parametrize("method", ["halley", "newton"])
def test_solve_toolpath_builds_one_workspace_per_path(
    model, q0_benchmark, workpiece_frame, monkeypatch, method
):
    """Every target's solve of a path writes into one SolveWorkspace, built
    once by ``solve_toolpath``. This guards the measured per-target gain of
    holding the buffers per path (about a fifth of each warm solve on the
    bundled cone): a path loop that lets each solve build its own, or builds
    one per target, fails here rather than slowing every ``frik compare``."""
    built, handed = [], []

    class Counted(solver_module.SolveWorkspace):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    solve_one = solver_module.solve

    def spied(*args):
        handed.append(args[6])
        return solve_one(*args)

    monkeypatch.setattr(solver_module, "SolveWorkspace", Counted)
    monkeypatch.setattr(solver_module, "solve", spied)
    cone = generate_cone_spiral(ConeSpec(samples_per_rev=16, pitch=10.0)).with_frame(workpiece_frame)
    for mode in ("adhoc", "frik"):
        built.clear()
        handed.clear()
        path, proj = mode_problem(cone, mode, 5)
        results = solve_toolpath(model, path, q0_benchmark, proj, SolverSettings(method=method))
        assert len(results) == len(path) == len(handed) > 1
        assert len(built) == 1
        assert all(work is built[0] for work in handed)


@pytest.mark.parametrize("method", ["halley", "newton"])
def test_five_dof_antiparallel_axis_steps_bounded(model, q0_benchmark, method):
    # a target whose z-axis is exactly the reverse of the TCP's at the start:
    # the r = 5 error is the half-turn (0, pi) about the target y-axis, the
    # first step keeps the damping bound, the solve converges, and lanes
    # from that start take the scalar solve's steps bit for bit
    t_d = forward_kinematics(model, q0_benchmark) @ np.diag([1.0, -1.0, -1.0, 1.0])
    err, _, _ = target_frame_step_terms(model, q0_benchmark, t_d, 5)
    assert err[3:].tolist() == [0.0, np.pi]
    settings = SolverSettings(method=method)
    first = solve(model, t_d, q0_benchmark, TaskProjector(5), replace(settings, max_iterations=1))
    bound = min(float(np.linalg.norm(err)), settings.e_max) / (2.0 * settings.lam)
    assert 0.0 < np.linalg.norm(first.q - q0_benchmark) <= bound * (1.0 + 1e-9)
    offset = t_d @ make_pose(np.eye(3), np.array([0.0, 0.0, 1.0]))
    targets = [t_d, offset, forward_kinematics(model, q0_benchmark + 0.1)]
    starts = np.tile(q0_benchmark, (len(targets), 1))
    lanes = solve_lanes(model, np.stack(targets), starts, TaskProjector(5), settings)
    for lane, target in enumerate(targets):
        alone = solve(model, target, q0_benchmark, TaskProjector(5), settings)
        assert alone.converged and lanes.converged[lane]
        assert lanes.iterations[lane] == alone.iterations
        assert np.array_equal(lanes.q[lane], alone.q)


# ---------------------------------------------------------------------------
# toolpath solving
# ---------------------------------------------------------------------------


def test_solve_toolpath_single_trivial_target(model, q0_benchmark):
    path = path_of([forward_kinematics(model, q0_benchmark)])
    results = solve_toolpath(model, path, q0_benchmark, TaskProjector(5), SETTINGS)
    assert len(results) == 1
    assert np.array_equal(results[0].q, q0_benchmark)


def test_solve_toolpath_constant_pose_has_zero_travel(model, q0_benchmark):
    pose = forward_kinematics(model, q0_benchmark)
    path = path_of([pose] * 100)
    results = solve_toolpath(model, path, q0_benchmark, TaskProjector(5), SETTINGS)
    qs = np.array([r.q for r in results])
    assert np.abs(np.diff(qs, axis=0)).max() == 0.0


def test_solve_toolpath_warm_starts_from_previous(model, q0_benchmark):
    poses = [forward_kinematics(model, q0_benchmark + 0.02 * k) for k in range(5)]
    results = solve_toolpath(model, path_of(poses), q0_benchmark, TaskProjector(6), SETTINGS)
    qs = np.array([r.q for r in results])
    # warm-started steps stay close to the generating configurations
    assert np.abs(np.diff(qs, axis=0)).max() < 0.05


@pytest.mark.parametrize("method", ["halley", "newton"])
@pytest.mark.parametrize("mode", ["adhoc", "frik"])
def test_solve_toolpath_is_solve_chained(model, q0_benchmark, workpiece_frame, monkeypatch, mode, method):
    # solve_toolpath starts each warm solve from the chain walk the last
    # solve ended on, which saves one walk per target after the first; it
    # must equal public solve chained target by target with the k = 0 wrist
    # rule, each solve walking its own start, bit for bit
    walks = []
    walk = solver_module.chain_stack
    monkeypatch.setattr(
        solver_module, "chain_stack", lambda m, q, *work: walks.append(1) or walk(m, q, *work)
    )
    cone = generate_cone_spiral(ConeSpec(samples_per_rev=16, pitch=10.0)).with_frame(workpiece_frame)
    path, proj = mode_problem(cone, mode, 5)
    settings = SolverSettings(method=method)
    results = solve_toolpath(model, path, q0_benchmark, proj, settings)
    carried_walks = len(walks)
    walks.clear()

    def solve_alone(t_d, q):
        return solve(model, t_d, q, proj, settings)

    q = q0_benchmark
    for k, t_d in enumerate(path.base_poses()):
        alone = solve_alone(t_d, q)
        left, flipped = wrist_flip(model, q0_benchmark, alone.q)
        if k == 0 and left:
            check = solve_alone(t_d, flipped)
            if check.converged and check.iterations == 0:
                alone = replace(alone, q=check.q, residual=check.residual)
        assert np.array_equal(results[k].q, alone.q)
        assert np.array_equal(results[k].residual, alone.residual)
        assert results[k].iterations == alone.iterations
        q = alone.q
    assert carried_walks == len(walks) - (len(path) - 1)


def test_solve_toolpath_reports_failing_index(model, q0_benchmark):
    good = forward_kinematics(model, q0_benchmark)
    bad = make_pose(np.eye(3), np.array([10_000.0, 0.0, 0.0]))
    with pytest.raises(PathFailed) as excinfo:
        solve_toolpath(model, path_of([good, bad]), q0_benchmark, TaskProjector(6), SETTINGS)
    assert excinfo.value.failure == PathFailure("not_converged", 1)


def test_solve_toolpath_stops_at_first_limit_breach(model, q0_benchmark):
    # target 1 is reached with J5 at -130 deg, 5 deg past its -125 deg limit;
    # the path ends there, before the unreachable target 2 is tried
    past = q0_benchmark.copy()
    past[4] = np.radians(-130.0)
    poses = [forward_kinematics(model, q0_benchmark), forward_kinematics(model, past)]
    far = make_pose(np.eye(3), np.array([10_000.0, 0.0, 0.0]))
    with pytest.raises(PathFailed) as excinfo:
        solve_toolpath(model, path_of([*poses, far]), q0_benchmark, TaskProjector(6), SETTINGS)
    failure = excinfo.value.failure
    assert (failure.kind, failure.k, failure.joint) == ("joint_limit", 1, 5)
    assert failure.margin_deg == pytest.approx(-5.0, abs=1e-6)


def test_path_rules_on_one_configuration_and_a_stack(model, q0_benchmark):
    # solve_toolpath and the sweep share these rules: each row of a stack
    # must get what the row gets alone
    q = np.array([q0_benchmark, -q0_benchmark, q0_benchmark])
    q[1, 3] = np.radians(20.0)
    q[2, 4] = np.radians(-130.0)
    left, flipped = wrist_flip(model, q0_benchmark, q)
    assert left.tolist() == [False, True, False]
    # q4 moves by pi toward mid-range (0 for the IRB4600), q5 and q6 flip
    step = np.array([np.pi, -np.pi, np.pi])
    assert np.array_equal(flipped[:, 3], q[:, 3] + step)
    assert np.array_equal(flipped[:, 4], -q[:, 4])
    assert np.array_equal(flipped[:, 5], q[:, 5] + np.pi)
    for row in range(3):
        one_left, one_flipped = wrist_flip(model, q0_benchmark, q[row])
        assert one_left == left[row] and np.array_equal(one_flipped, flipped[row])
        assert np.allclose(
            forward_kinematics(model, flipped[row]), forward_kinematics(model, q[row]), atol=1e-9
        )
    failures = target_failures(model, q, np.ones(3, dtype=bool), np.zeros(3, dtype=bool), 7)
    assert list(failures) == [2]
    assert (failures[2].kind, failures[2].k, failures[2].joint) == ("joint_limit", 7, 5)
    assert failures[2].margin_deg == pytest.approx(-5.0, abs=1e-9)
    assert target_failures(model, q[2], True, False, 7) == {0: failures[2]}
    assert target_failures(model, q0_benchmark, True, False, 7) == {}
    # a half-turn error outranks an unconverged solve, which outranks the
    # limits; rows inside and outside them alike
    for half_turn, kind in ((True, "rotation_near_pi"), (False, "not_converged")):
        stack = target_failures(model, q, np.zeros(3, dtype=bool), np.full(3, half_turn), 7)
        assert stack == {row: PathFailure(kind, 7) for row in range(3)}
        assert target_failures(model, q[2], False, half_turn, 7) == {0: PathFailure(kind, 7)}


def test_wrist_flip_keeps_tcp_pose_with_offset_tool(model, q0_benchmark):
    # a hypothetical tool whose TCP sits 200 mm off joint 6's axis, tilted by
    # 30 deg: the flip keeps the flange pose, so it keeps the TCP pose too
    tool = make_pose(rot_y(np.radians(30.0)), np.array([200.0, 0.0, 0.0]))
    offset = replace(model, tool=tool)
    rng = np.random.default_rng(6)
    q = q0_benchmark + rng.uniform(-0.5, 0.5, (8, 6))
    q[::2, 4] *= -1.0
    left, flipped = wrist_flip(offset, q0_benchmark, q)
    assert left.tolist() == [True, False] * 4
    tcp = chain_stack_lanes(offset, q)[-1]
    assert np.abs(chain_stack_lanes(offset, flipped)[-1] - tcp).max() < 1e-9
    one_left, one_flipped = wrist_flip(offset, q0_benchmark, q[0])
    assert one_left and np.abs(forward_kinematics(offset, one_flipped) - tcp[0]).max() < 1e-9
    # the TCP is off joint 6's axis: half a turn of joint 6 alone moves it
    spun = q[0] + np.array([0.0, 0.0, 0.0, 0.0, 0.0, np.pi])
    assert np.linalg.norm(forward_kinematics(offset, spun)[:3, 3] - tcp[0, :3, 3]) > 300.0


def test_monotone_residual_on_benchmark_path(model, q0_benchmark, workpiece_frame):
    """Natural monotonicity test (Deuflhard) on the solver's own iterates.

    The task residual adds mm to rad, so its norm may rise on an unsaturated
    step when the orientation error dominates. Monotone convergence is
    checked in joint space instead: for each unsaturated step q_i -> q_i+1,
    the simplified correction step(J(q_i), e(q_i+1)) must be shorter than
    the damped Newton correction step(J(q_i), e(q_i)), i.e. theta_i < 1.
    """
    from frik.toolpath import ConeSpec, generate_cone_spiral

    cone = generate_cone_spiral(ConeSpec(samples_per_rev=38, pitch=6.0))
    path = cone.with_frame(workpiece_frame)
    proj = TaskProjector(5)
    r = proj.r
    results = solve_toolpath(model, path, q0_benchmark, proj, SETTINGS)
    one_step = SolverSettings(max_iterations=1)

    def projected_error(q, t_d):
        tcp, _, _, p_d = target_frame_walk(model, q, t_d)
        dx_hat = task_error(tcp, p_d, r)
        dx = base_frame_error(forward_kinematics(model, q), t_d, r)
        assert np.abs(dx_hat - twist_rotation(t_d[:3, :3])[:r] @ dx).max() < 1e-12
        return dx_hat

    thetas = []
    warm_starts = [q0_benchmark] + [res.q for res in results[:-1]]
    for q, t_d in zip(warm_starts, path.base_poses()):
        for _ in range(SETTINGS.max_iterations):
            step = solve(model, t_d, q, proj, one_step)
            if step.iterations == 0:
                break
            dx_hat = projected_error(q, t_d)
            if np.linalg.norm(dx_hat) <= SETTINGS.e_max:
                _, jac, _ = target_frame_step_terms(model, q, t_d, r)
                newton = task_step(jac, None, dx_hat, np.linalg.norm(dx_hat), r, SETTINGS)
                e_next = projected_error(step.q, t_d)
                simplified = task_step(jac, None, e_next, np.linalg.norm(e_next), r, SETTINGS)
                thetas.append(np.linalg.norm(simplified) / np.linalg.norm(newton))
            q = step.q
        assert step.converged
    thetas = np.array(thetas)
    print(f"\nnatural monotonicity: max theta {thetas.max():.3f} over {thetas.size} unsaturated steps")
    assert np.all(thetas < 1.0)
