"""Acceptance suite: one test per shipped criterion, each printing a line
with the measured numbers (run with ``pytest -s`` to see them). A line
claims no pass: some tests print it before their gate, and pytest reports
the outcome.

The heavyweight entries (full cone benchmark, full wall sweep) run at their
stated budgets; the wall sweep is also marked ``slow`` so it can be skipped
during development with ``-m 'not slow'``.
"""

import json
import os
import time

import numpy as np
import pytest

import frik
from frik.analysis import (
    SweepSpec,
    joint_travel,
    workspace_summary,
    workspace_sweep,
)
from frik.cli import REFERENCE_NOTE, REFERENCE_TRAVEL_DEG, REFERENCE_WORKSPACE_VOXELS, main
from frik.config import default_workpiece_frame
from frik.liegroup import make_pose, rot_z, so3_exp, so3_log
from frik.robot import (
    chain_stack,
    forward_kinematics,
    geometric_jacobian,
    jacobian_from_frames,
    rolled_hessian_product,
)
from frik.solver import SolverSettings, TaskProjector, solve, solve_toolpath

from conftest import target_frame_walk, unskew, walk_parts


def report(line: str) -> None:
    print(f"\n{line}")


@pytest.fixture(scope="module")
def cone_benchmark(model, q0_benchmark, workpiece_frame):
    """One full cone-spiral run in both modes, shared by criteria 8 and 10."""
    path = frik.generate_cone_spiral(frik.ConeSpec()).with_frame(workpiece_frame)
    adhoc_path = frik.assign_adhoc_orientation(path)
    start = time.perf_counter()
    runs = {
        "adhoc": solve_toolpath(model, adhoc_path, q0_benchmark, TaskProjector(6)),
        "frik": solve_toolpath(model, path, q0_benchmark, TaskProjector(5)),
    }
    wall = time.perf_counter() - start
    return runs, wall


# -- criterion 1: Jacobian vs central finite differences ---------------------


def test_c01_jacobian_matches_finite_differences(model):
    rng = np.random.default_rng(1001)
    step = 1e-6
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        q = rng.uniform(model.joint_min, model.joint_max)
        analytic = geometric_jacobian(model, q)
        fd = np.zeros_like(analytic)
        base_rot = forward_kinematics(model, q)[:3, :3]
        for i in range(model.n):
            qp, qm = q.copy(), q.copy()
            qp[i] += step
            qm[i] -= step
            tp = forward_kinematics(model, qp)
            tm = forward_kinematics(model, qm)
            fd[:3, i] = (tp[:3, 3] - tm[:3, 3]) / (2 * step)
            fd[3:, i] = unskew(((tp[:3, :3] - tm[:3, :3]) / (2 * step)) @ base_rot.T)
        worst = max(worst, float(np.abs(analytic - fd).max()))
    elapsed = time.perf_counter() - start
    assert worst < 1e-5
    assert elapsed < 5.0
    report(f"criterion 1 jacobian: max |J - J_fd| = {worst:.3e} over 1000 configs in {elapsed:.2f}s")


# -- criterion 2: Hessian vs finite differences of the Jacobian --------------


def test_c02_hessian_matches_finite_differences(model):
    # the analytic tensor comes from the kernel every Halley step calls, in
    # solve and, on lane stacks, in the sweep: dJ/dq_j is
    # rolled_hessian_product along the unit step e_j
    rng = np.random.default_rng(1002)
    step = 1e-6
    start = time.perf_counter()
    worst = 0.0
    unit_steps = np.eye(model.n)
    for _ in range(200):
        q = rng.uniform(model.joint_min, model.joint_max)
        tcp, axes, origins = walk_parts(chain_stack(model, q))
        jac, rolled = jacobian_from_frames(tcp[:3, 3], axes, origins)
        analytic = np.stack([rolled_hessian_product(rolled, e_j) for e_j in unit_steps], -1)
        fd = np.zeros_like(analytic)
        for j in range(model.n):
            qp, qm = q.copy(), q.copy()
            qp[j] += step
            qm[j] -= step
            fd[:, :, j] = (
                geometric_jacobian(model, qp) - geometric_jacobian(model, qm)
            ) / (2 * step)
        worst = max(worst, float(np.abs(analytic - fd).max()))
    elapsed = time.perf_counter() - start
    assert worst < 1e-4
    assert elapsed < 5.0
    report(f"criterion 2 hessian: max |H - H_fd| = {worst:.3e} over 200 configs in {elapsed:.2f}s")


# -- criterion 3: SO(3) exp/log round trip ------------------------------------


def test_c03_so3_round_trip_10000():
    # so3_log is the rotation half of the r = 6 task error
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(10_000):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        rotation = so3_exp(rng.uniform(0.0, np.pi - 0.01) * axis)
        worst = max(worst, float(np.abs(so3_exp(so3_log(rotation)) - rotation).max()))
    assert worst < 1e-8
    report(f"criterion 3 SO(3) round trip: max entry error {worst:.3e} over 10000 rotations")


# -- criterion 4: solver convergence rate -------------------------------------


def test_c04_convergence_rate_from_perturbed_starts(model):
    rng = np.random.default_rng(1004)
    cases = []
    for _ in range(500):
        q_true = rng.uniform(model.joint_min, model.joint_max)
        cases.append((q_true, q_true + rng.uniform(-0.1, 0.1, 6)))
    rates = {}
    for r in (6, 5):
        proj = TaskProjector(r)
        converged = 0
        for q_true, q_start in cases:
            target = forward_kinematics(model, q_true)
            result = solve(model, target, q_start, proj)
            converged += result.converged
        rates[r] = converged / len(cases)
        assert rates[r] >= 0.99
    report(
        "criterion 4 convergence: "
        f"r=6 {100 * rates[6]:.1f}%, r=5 {100 * rates[5]:.1f}% of 500 targets"
    )


# -- criterion 5: free-axis invariance ----------------------------------------


def test_c05_free_axis_invariance(model, q0_benchmark):
    rng = np.random.default_rng(1005)
    gammas = np.radians([30.0, 90.0, 180.0, 270.0])
    worst = 0.0
    checked = 0
    for _ in range(25):
        q_true = np.clip(
            q0_benchmark + rng.uniform(-0.6, 0.6, 6), model.joint_min, model.joint_max
        )
        target = forward_kinematics(model, q_true)
        q_start = q_true + rng.uniform(-0.1, 0.1, 6)
        baseline = solve(model, target, q_start, TaskProjector(5))
        if not baseline.converged:
            continue
        for gamma in gammas:
            spun = target @ make_pose(rot_z(gamma), np.zeros(3))
            res = solve(model, spun, q_start, TaskProjector(5))
            assert res.converged
            worst = max(worst, float(np.abs(res.q - baseline.q).max()))
            checked += 1
    assert checked >= 90
    assert worst < 1e-8
    report(f"criterion 5 free-axis invariance: max |dq| = {worst:.3e} rad over {checked} spins")


# -- criterion 6: Halley vs Newton --------------------------------------------


def test_c06_halley_vs_newton(model, q0_benchmark):
    rng = np.random.default_rng(1006)
    halley_iters, newton_iters = [], []
    for _ in range(100):
        q_true = np.clip(
            q0_benchmark + rng.uniform(-0.5, 0.5, 6), model.joint_min, model.joint_max
        )
        target = forward_kinematics(model, q_true)
        h = solve(model, target, q0_benchmark, TaskProjector(5))
        n = solve(model, target, q0_benchmark, TaskProjector(5), SolverSettings(method="newton"))
        if h.converged and n.converged:
            halley_iters.append(h.iterations)
            newton_iters.append(n.iterations)
    halley_iters = np.array(halley_iters)
    newton_iters = np.array(newton_iters)
    assert len(halley_iters) >= 95
    assert halley_iters.mean() <= newton_iters.mean()
    quartiles = np.percentile(halley_iters, [25, 50, 75]), np.percentile(newton_iters, [25, 50, 75])
    report(
        "criterion 6 iterations over paired solves: "
        f"halley mean {halley_iters.mean():.2f} (quartiles {quartiles[0]}), "
        f"newton mean {newton_iters.mean():.2f} (quartiles {quartiles[1]}), "
        f"halley <= newton in {np.mean(halley_iters <= newton_iters) * 100:.0f}% of pairs"
    )


# -- criterion 7: singularity robustness --------------------------------------


def test_c07_singularity_robustness(model):
    rng = np.random.default_rng(1007)
    settings = SolverSettings()
    bound = 1.0 / (2.0 * settings.lam)
    for _ in range(100):
        q = rng.uniform(model.joint_min, model.joint_max)
        q[4] = 0.0
        target = forward_kinematics(model, q + rng.uniform(-0.3, 0.3, 6))
        t_e, axes, origins, p_d = target_frame_walk(model, q, target)
        jac, rolled = jacobian_from_frames(t_e[:, 3], axes, origins)
        for r in (6, 5):
            # one explicit step at the singular configuration, the step solve takes
            err_hat = frik.task_error(t_e, p_d, r)
            err_norm = float(np.linalg.norm(err_hat))
            clamped = min(err_norm, settings.e_max)
            for halley_rows in (None, rolled):
                dq = frik.task_step(jac, halley_rows, err_hat, err_norm, r, settings)
                assert np.all(np.isfinite(dq))
                assert np.linalg.norm(dq) <= bound * clamped * (1 + 1e-9)
            # the full solve keeps every internal step inside the same bound
            result = solve(model, target, q, TaskProjector(r), settings)
            assert np.all(np.isfinite(result.q))
    report("criterion 7 singularity robustness: all steps finite and bounded at q5 = 0")


# -- criterion 8: joint-travel reduction on the cone benchmark -----------------


def test_c08_cone_travel_reduction(model, cone_benchmark):
    runs, wall = cone_benchmark
    assert wall < 60.0
    travel = {mode: joint_travel([r.q for r in results]) for mode, results in runs.items()}
    for mode, results in runs.items():
        assert all(model.within_limits(r.q) for r in results)
    adhoc = travel["adhoc"].overall_deg
    frik_deg = travel["frik"].overall_deg
    reduction = 100.0 * (adhoc - frik_deg) / adhoc
    assert frik_deg < adhoc
    assert reduction >= 5.0
    report(
        "criterion 8 joint travel: "
        f"adhoc {adhoc:.3f} deg, frik {frik_deg:.3f} deg ({-reduction:+.2f}%); "
        f"reference {REFERENCE_TRAVEL_DEG['adhoc']} vs {REFERENCE_TRAVEL_DEG['frik']} "
        f"({REFERENCE_TRAVEL_DEG['pct_change']:+.2f}%, {REFERENCE_NOTE}); solved in {wall:.1f}s"
    )


# -- criterion 9: workspace expansion ------------------------------------------


@pytest.mark.slow
def test_c09_workspace_expansion(model, q0_benchmark, workpiece_frame):
    template = frik.generate_cone_spiral(frik.ConeSpec()).with_frame(workpiece_frame)
    jobs = max(1, min(8, os.cpu_count() or 1))
    start = time.perf_counter()
    map_adhoc, map_frik = workspace_sweep(
        model, template, SweepSpec(), q0_benchmark, jobs=jobs
    )
    wall = time.perf_counter() - start
    assert wall < 1800.0
    summary = workspace_summary(map_adhoc, map_frik)
    adhoc_count = summary["adhoc"]["reachable_voxels"]
    frik_count = summary["frik"]["reachable_voxels"]
    assert frik_count >= adhoc_count
    assert adhoc_count > 0
    expansion = 100.0 * (frik_count - adhoc_count) / adhoc_count
    report(
        "criterion 9 workspace: "
        f"adhoc {adhoc_count} voxels, frik {frik_count} voxels ({expansion:+.1f}%); "
        f"reference {REFERENCE_WORKSPACE_VOXELS['adhoc']} vs "
        f"{REFERENCE_WORKSPACE_VOXELS['frik']} ({REFERENCE_WORKSPACE_VOXELS['pct_change']:+.1f}%, "
        f"{REFERENCE_NOTE}); "
        f"exceptions (adhoc-only reachable) {summary['adhoc_reachable_frik_not']}; "
        f"swept in {wall / 60:.1f} min at jobs={jobs}"
    )
    assert expansion >= 20.0


# -- criterion 10: throughput ---------------------------------------------------


def test_c10_throughput(cone_benchmark):
    runs, _ = cone_benchmark
    mean_us = float(np.mean([res.wall_time_us for res in runs["frik"]]))
    assert mean_us <= 1000.0
    report(
        "criterion 10 throughput: "
        f"mean {mean_us:.1f} us/target (gate 1000 us; measured baseline in bench/README.md)"
    )


# -- criterion 11: determinism ---------------------------------------------------


def test_c11_determinism_golden(tmp_path):
    config = {
        "cone": {"samples_per_rev": 16, "pitch_mm": 10.0},
        "out_dir": str(tmp_path / "out"),
    }
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(config))
    argv = ["compare", "--config", str(config_file), "--no-timing"]
    snapshots = []
    for _ in range(2):
        assert main(argv) == 0
        out = tmp_path / "out"
        snapshots.append({f.name: f.read_bytes() for f in sorted(out.glob("*"))})
    assert snapshots[0] == snapshots[1]
    assert "trajectory_frik.csv" in snapshots[0]
    report(f"criterion 11 determinism: {len(snapshots[0])} output files byte-identical across runs")
