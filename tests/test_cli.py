import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import frik
from frik.analysis import MODES, SweepSpec
from frik.cli import main
from frik.config import (
    DEFAULT_Q0_DEG,
    ConfigError,
    RunConfig,
    default_workpiece_frame,
    load_config,
    resolved_dict,
)
from frik.liegroup import make_pose, pose_inverse, quat_to_rot, rot_x
from frik.robot import forward_kinematics
from frik.solver import SolverSettings
from frik.toolpath import ConeSpec, Toolpath, generate_cone_spiral, load_toolpath, save_toolpath

SMALL_CONE = ["--cone-samples-per-rev", "8", "--cone-pitch-mm", "25"]
GOLDEN = Path(__file__).parent / "data" / "small_cone"
GOLDEN_SWEEP = Path(__file__).parent / "data" / "sweep_400mm"
ROBOT_FILE = Path(__file__).parents[1] / "configs" / "irb4600.json"
BENCH_CONFIG = Path(__file__).parents[1] / "configs" / "cone_benchmark.json"


def write_config(tmp_path, **overrides):
    config = {
        "cone": {"samples_per_rev": 8, "pitch_mm": 25.0},
        "out_dir": str(tmp_path / "out"),
    }
    config.update(overrides)
    file = tmp_path / "config.json"
    file.write_text(json.dumps(config))
    return file


def test_generate_default_round_trips(tmp_path, capsys):
    out = tmp_path / "gen"
    code = main(["generate", "--out", str(out), *SMALL_CONE])
    assert code == 0
    assert "17 targets" in capsys.readouterr().out
    path = load_toolpath(out / "toolpath.json")
    assert len(path) == 17
    save_toolpath(path, out / "again.json")
    again = load_toolpath(out / "again.json")
    assert np.array_equal(path.poses, again.poses) and np.array_equal(path.frame, again.frame)


def test_generated_file_solves_as_the_cone(tmp_path):
    # generate writes the run's placement and every pose bit for bit, so the
    # file solves where the cone does, to the same data rows byte for byte
    gen, cone, again = tmp_path / "gen", tmp_path / "cone", tmp_path / "again"
    assert main(["generate", "--out", str(gen), *SMALL_CONE]) == 0
    assert np.array_equal(load_toolpath(gen / "toolpath.json").frame, default_workpiece_frame())
    assert main(["solve", "--out", str(cone), "--no-timing", *SMALL_CONE]) == 0
    toolpath = str(gen / "toolpath.json")
    assert main(["solve", "--toolpath", toolpath, "--out", str(again), "--no-timing"]) == 0
    want = (cone / "trajectory_frik.csv").read_text().splitlines()[2:]
    got = (again / "trajectory_frik.csv").read_text().splitlines()[2:]
    assert len(got) == 17 and got == want


def test_generate_rejects_negative_diameter(tmp_path, capsys):
    code = main(["generate", "--out", str(tmp_path), "--cone-diameter-mm", "-5"])
    assert code == 1
    assert "diameter" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cone_flag_must_be_a_finite_number(tmp_path, capsys, value):
    # argparse's float() takes these; the flag is then checked as a config key
    code = main(["solve", "--out", str(tmp_path), "--cone-diameter-mm", value, *SMALL_CONE])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad cone flags: diameter_mm must be a number")
    assert "Traceback" not in err and not (tmp_path / "trajectory_frik.csv").exists()


def test_range_checks_reject_nan():
    # and the infinities, which library callers can pass where files cannot
    for make in (
        lambda: SolverSettings(lam=math.nan),
        lambda: SolverSettings(e_max=math.nan),
        lambda: ConeSpec(pitch=math.nan),
        lambda: ConeSpec(standoff=math.nan),
        lambda: SweepSpec(voxel_mm=math.nan),
        lambda: SweepSpec(z_max_mm=math.nan),
        lambda: SolverSettings(lam=math.inf),
        lambda: SolverSettings(epsilon=math.inf),
        lambda: SolverSettings(e_max=math.inf),
        lambda: SolverSettings(max_iterations=math.inf),
        lambda: ConeSpec(diameter=math.inf),
        lambda: ConeSpec(height=math.inf),
        lambda: ConeSpec(pitch=math.inf),
        lambda: ConeSpec(standoff=math.inf),
        lambda: ConeSpec(samples_per_rev=math.inf),
        lambda: SweepSpec(voxel_mm=math.inf),
        lambda: SweepSpec(y_min_mm=-math.inf),
        lambda: SweepSpec(y_max_mm=math.inf),
        lambda: SweepSpec(z_min_mm=-math.inf),
        lambda: SweepSpec(z_max_mm=math.inf),
    ):
        with pytest.raises(ValueError):
            make()


def test_solve_single_trivial_target(tmp_path, model, q0_benchmark):
    pose = forward_kinematics(model, q0_benchmark)
    path = Toolpath(poses=pose[None])
    path_file = tmp_path / "path.json"
    save_toolpath(path, path_file)
    out = tmp_path / "out"
    code = main(["solve", "--toolpath", str(path_file), "--out", str(out), "--no-timing"])
    assert code == 0
    lines = (out / "trajectory_frik.csv").read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "k,q1_deg,q2_deg,q3_deg,q4_deg,q5_deg,q6_deg,iterations,residual"
    row = lines[2].split(",")
    assert row[0] == "0"
    q_deg = np.array([float(v) for v in row[1:7]])
    assert np.abs(q_deg - np.degrees(q0_benchmark)).max() < 1e-9


def test_solve_missing_robot_names_path(tmp_path, capsys):
    code = main(["solve", "--robot", str(tmp_path / "ghost.json"), "--out", str(tmp_path)])
    assert code == 1
    assert "ghost.json" in capsys.readouterr().err


def test_solve_bad_config_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["solve", "--config", str(bad)]) == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_config_with_removed_solver_key_rejected(tmp_path, capsys):
    config = write_config(tmp_path, solver={"position_scale": 1.0})
    assert main(["solve", "--config", str(config)]) == 1
    assert "unknown solver keys" in capsys.readouterr().err


def test_config_with_unknown_top_level_key_rejected(tmp_path, capsys):
    config = write_config(tmp_path, workpeice={"pos_mm": [0.0, -1100.0, 900.0]})
    assert main(["solve", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "unknown top-level keys" in err and "workpeice" in err


@pytest.mark.parametrize(
    "block, message",
    [
        ({"cone": {"diamter_mm": 50.0}}, "unknown cone keys: ['diamter_mm']"),
        ({"sweep": {"voxel": 400}}, "unknown sweep keys: ['voxel']"),
        ({"workpiece": {"pos": [0.0, -1100.0, 900.0]}}, "unknown workpiece keys: ['pos']"),
        ({"q0": {"deg": list(DEFAULT_Q0_DEG), "rad": [0.0] * 6}}, "exactly one of"),
        ({"cone": 5}, "cone block must be a JSON object"),
        ({"solver": 3}, "solver block must be a JSON object"),
        ({"cone": {"samples_per_rev": 16.9}}, "samples_per_rev must be an integer, got 16.9"),
        ({"solver": {"task_dof": 5.5}}, "task_dof must be an integer, got 5.5"),
        ({"solver": {"task_dof": 4}}, "task_dof must be 3, 5 or 6, got 4"),
        ({"jobs": 2.5}, "jobs must be an integer, got 2.5"),
        ({"jobs": True}, "jobs must be an integer, got True"),
        ({"workpiece": {"pos_mm": [1, 2]}}, "bad workpiece block: pos_mm must be 3 numbers"),
        ({"workpiece": {"quat": [0, 0, 1]}}, "bad workpiece block: quat must be 4 numbers"),
        ({"workpiece": {"rot": [[1, 0, 0], [0, 1, 0]]}}, "rot must be 3 x 3 numbers"),
        ({"workpiece": {"rot": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]}}, "rot is not orthonormal"),
        ({"workpiece": {"quat": [0, 0, 0, 1], "rot": np.eye(3).tolist()}}, "quat or rot, not both"),
        ({"q0": {"deg": "abc"}}, "bad q0 block: deg must be a list of numbers, got 'abc'"),
        ({"workpiece": {"pos_mm": [0, None, 900]}}, "bad workpiece block: pos_mm must be 3 numbers"),
        ({"workpiece": {"pos_mm": ["0", 0, 900]}}, "bad workpiece block: pos_mm must be 3 numbers"),
        ({"workpiece": {"quat": [0, 0, 0, None]}}, "bad workpiece block: quat must be 4 numbers"),
        ({"workpiece": {"quat": [0, 0, "0", 1]}}, "bad workpiece block: quat must be 4 numbers"),
        ({"workpiece": {"rot": [[1, 0, 0], [0, 1, 0], [0, 0, None]]}}, "rot must be 3 x 3 numbers"),
        ({"workpiece": {"rot": [[1, 0, 0], [0, 1, 0], [0, 0, "1"]]}}, "rot must be 3 x 3 numbers"),
        ({"q0": {"rad": [0.0, 0.0, 0.0, 0.0, 0.0, None]}}, "bad q0 block: rad must be a list of"),
        ({"q0": {"deg": ["0", 0, 0, 0, 0, 0]}}, "bad q0 block: deg must be a list of numbers"),
        ({"solver": {"lambda": "0.02"}}, "bad solver block: lambda must be a number, got '0.02'"),
        ({"cone": {"diameter_mm": "100"}}, "bad cone block: diameter_mm must be a number, got '100'"),
        ({"solver": {"lambda": True}}, "bad solver block: lambda must be a number, got True"),
        ({"solver": {"lambda": math.nan}}, "bad solver block: lambda must be a number, got nan"),
        ({"cone": {"diameter_mm": math.nan}}, "bad cone block: diameter_mm must be a number, got nan"),
        ({"solver": {"epsilon": math.inf}}, "bad solver block: epsilon must be a number, got inf"),
        ({"sweep": {"voxel_mm": -math.inf}}, "bad sweep block: voxel_mm must be a number, got -inf"),
        ({"solver": {"max_iterations": math.nan}}, "max_iterations must be an integer, got nan"),
        ({"out_dir": None}, "out_dir must be a non-empty string, got None"),
        ({"out_dir": ["a", 1]}, "out_dir must be a non-empty string, got ['a', 1]"),
        ({"out_dir": ""}, "out_dir must be a non-empty string, got ''"),
        ({"robot": 5}, "robot must be a non-empty string, got 5"),
        ({"robot": ""}, "robot must be a non-empty string, got ''"),
    ],
    ids=[
        "cone-typo", "sweep-typo", "workpiece-typo", "q0-both", "cone-scalar", "solver-scalar",
        "cone-fraction", "task-dof-fraction", "task-dof-choice", "jobs-fraction", "jobs-bool",
        "workpiece-short-position", "workpiece-short-quat", "workpiece-short-rot",
        "workpiece-reflection", "workpiece-quat-and-rot", "q0-not-numbers",
        "workpiece-null-position", "workpiece-string-position", "workpiece-null-quat",
        "workpiece-string-quat", "workpiece-null-rot", "workpiece-string-rot", "q0-null",
        "q0-string", "solver-string", "cone-string", "solver-bool", "solver-nan", "cone-nan",
        "solver-infinity", "sweep-infinity", "integer-nan", "out-dir-null", "out-dir-list",
        "out-dir-empty", "robot-number", "robot-empty",
    ],
)
def test_malformed_config_block_rejected(tmp_path, capsys, block, message):
    config = write_config(tmp_path, **block)
    assert main(["generate", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(config) in err and message in err
    assert "Traceback" not in err


def test_toolpath_setting_must_be_a_string(tmp_path, capsys):
    # str() would take the number as the toolpath file "7"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"toolpath": 7}))
    assert main(["solve", "--config", str(config)]) == 1
    assert "toolpath must be a non-empty string, got 7" in capsys.readouterr().err


@pytest.mark.parametrize(
    "block, message",
    [({"solver": {"task_dof": 4}}, "task_dof must be 3, 5 or 6, got 4"),
     ({"jobs": 0}, "jobs must be at least 1"),
     ({"solver": {"lambda": math.nan}}, "lambda must be a number, got nan"),
     ({"cone": {"height_mm": "50"}}, "height_mm must be a number, got '50'")],
)
def test_load_config_validates_the_run(tmp_path, block, message):
    # the settings the CLI rejects, load_config rejects too
    with pytest.raises(ConfigError, match=message):
        load_config(write_config(tmp_path, **block))


def test_run_config_compares_by_value():
    assert RunConfig() == RunConfig() and hash(RunConfig()) == hash(RunConfig())
    frame = default_workpiece_frame()
    placed = RunConfig(workpiece=frame)
    assert placed == RunConfig(workpiece=frame.copy())
    assert hash(placed) == hash(RunConfig(workpiece=frame.copy()))
    assert placed != RunConfig() and RunConfig(q0_rad=[0.1] * 6) != RunConfig()
    assert len({RunConfig(), RunConfig(), placed}) == 2


def test_rotated_workpiece_header_replays_exactly(tmp_path):
    # the header writes the frame's matrix, so every rotation loads back bit
    # for bit; written as a quaternion, most did not
    rng = np.random.default_rng(71)
    header_file = tmp_path / "header.json"
    for _ in range(200):
        quat = rng.normal(size=4)
        frame = make_pose(quat_to_rot(quat / np.linalg.norm(quat)), rng.uniform(-2e3, 2e3, 3))
        config = RunConfig(workpiece=frame)
        header_file.write_text(json.dumps(resolved_dict(config)))
        loaded = load_config(header_file)
        assert np.array_equal(loaded.workpiece, frame) and loaded == config


def test_run_config_is_immutable():
    config = RunConfig(q0_rad=[0.1] * 6)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.jobs = 2
    with pytest.raises(ValueError):
        config.q0_rad[0] = 0.0
    assert config.workpiece is None and isinstance(config.source, ConeSpec)


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--task-dof", "4"],
        ["solve", "--bogus"],
        ["workspace", "--mode", "adhoc"],
        # both modes are ``compare``'s
        ["solve", "--mode", "both"],
        ["solve", "--seed", "1"],
    ],
)
def test_usage_error_exits_one(argv, capsys):
    # exit 2 is kept for a target the robot cannot take
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["solve", "--help"]) == 0
    assert "--mode" in capsys.readouterr().out


def test_jobs_zero_flag_is_validated(tmp_path, capsys):
    config = write_config(tmp_path, jobs=2)
    assert main(["workspace", "--config", str(config), "--jobs", "0"]) == 1
    assert "jobs must be at least 1" in capsys.readouterr().err


def test_config_with_both_sources_rejected(tmp_path, capsys):
    file = tmp_path / "config.json"
    file.write_text(json.dumps({"toolpath": "a.json", "cone": {}}))
    assert main(["solve", "--config", str(file)]) == 1
    assert "not both" in capsys.readouterr().err


def test_compare_small_cone_writes_delta_report(tmp_path, capsys):
    config = write_config(tmp_path)
    code = main(["compare", "--config", str(config)])
    assert code == 0
    report = (tmp_path / "out" / "travel_report.csv").read_text().splitlines()
    assert report[1] == "joint,travel_adhoc_deg,travel_frik_deg,pct_change"
    assert report[-1].startswith("overall_6d,")
    adhoc_total = float(report[-1].split(",")[1])
    frik_total = float(report[-1].split(",")[2])
    assert adhoc_total > 0 and frik_total > 0
    out = capsys.readouterr().out
    assert "reference" in out
    # each mode's timing is the mean and sum of its trajectory's per-target times
    timing = json.loads((tmp_path / "out" / "timing_summary.json").read_text())["timing"]
    assert sorted(timing) == ["adhoc", "frik"]
    for mode, summary in timing.items():
        lines = (tmp_path / "out" / f"trajectory_{mode}.csv").read_text().splitlines()
        column = lines[1].split(",").index("us")
        us = np.array([float(line.split(",")[column]) for line in lines[2:]])
        assert len(us) == 17
        assert summary["mean_us"] == pytest.approx(us.mean(), rel=1e-12)
        assert summary["total_us"] == pytest.approx(us.sum(), rel=1e-12)


def test_solve_runs_are_deterministic(tmp_path):
    config = write_config(tmp_path)
    for _ in range(2):
        assert main(["compare", "--config", str(config), "--no-timing"]) == 0
        files = sorted((tmp_path / "out").glob("*.csv"))
        snapshot = {f.name: f.read_bytes() for f in files}
        if "first" not in locals():
            first = snapshot
    assert first == snapshot
    assert not (tmp_path / "out" / "timing_summary.json").exists()


def test_solve_small_cone_matches_golden_rows(tmp_path):
    # c11's small cone; the golden rows omit the "# config:" audit line
    config = write_config(tmp_path, cone={"samples_per_rev": 16, "pitch_mm": 10.0})
    assert main(["compare", "--config", str(config), "--no-timing"]) == 0
    goldens = sorted(GOLDEN.glob("*.csv"))
    assert [f.name for f in goldens] == sorted(f.name for f in (tmp_path / "out").glob("*.csv"))
    for golden in goldens:
        fresh = (tmp_path / "out" / golden.name).read_text().splitlines()
        assert fresh[0].startswith("# config:")
        want = [line.split(",") for line in golden.read_text().splitlines()]
        got = [line.split(",") for line in fresh[1:]]
        assert got[0] == want[0] and len(got) == len(want)
        for got_row, want_row in zip(got[1:], want[1:]):
            for column, g, w in zip(want[0], got_row, want_row, strict=True):
                if column in ("k", "iterations", "joint"):
                    assert g == w, (golden.name, column)
                else:
                    assert abs(float(g) - float(w)) <= 1e-9, (golden.name, column, g, w)


def test_audit_header_loads_back(tmp_path):
    # with the bundled robot (written as null) and with a robot file, the
    # header loads back to the same config and runs as one
    q0_deg = [-110.0, -5.0, 55.0, -80.0, -34.0, 9.0]
    for robot in (None, str(ROBOT_FILE)):
        config = write_config(
            tmp_path,
            robot=robot,
            solver={"lambda": 0.03, "method": "newton", "task_dof": 5},
            workpiece={"pos_mm": [0.0, -1100.0, 900.0], "quat": [0.0, 0.0, 0.6, 0.8]},
            q0={"rad": np.radians(q0_deg).tolist()},
            sweep={"voxel_mm": 400.0},
        )
        assert main(["solve", "--config", str(config), "--no-timing"]) == 0
        trajectory = tmp_path / "out" / "trajectory_frik.csv"
        lines = trajectory.read_text().splitlines()
        audit = json.loads(lines[0].removeprefix("# config: "))
        assert (audit.pop("command"), audit.pop("mode")) == ("solve", "frik")
        assert audit["robot"] == robot
        header_file = tmp_path / "header.json"
        header_file.write_text(json.dumps(audit))
        assert main(["solve", "--config", str(header_file), "--no-timing"]) == 0
        assert trajectory.read_text().splitlines()[1:] == lines[1:]
        assert resolved_dict(load_config(header_file)) == audit


def test_compare_header_replays_every_row(tmp_path):
    # q0 is written in rad, so 57 deg reloads as the same float and every
    # data row of a run re-made from the header is byte-identical
    config = write_config(tmp_path, q0={"deg": list(DEFAULT_Q0_DEG)})
    assert main(["compare", "--config", str(config), "--no-timing"]) == 0
    out = tmp_path / "out"
    first = {f.name: f.read_text().splitlines() for f in sorted(out.glob("*.csv"))}
    audit = json.loads(first["travel_report.csv"][0].removeprefix("# config: "))
    assert audit.pop("command") == "compare"
    header_file = tmp_path / "header.json"
    header_file.write_text(json.dumps(audit))
    assert np.array_equal(load_config(header_file).q0_rad, np.radians(DEFAULT_Q0_DEG))
    assert main(["compare", "--config", str(header_file), "--no-timing"]) == 0
    again = {f.name: f.read_text().splitlines() for f in sorted(out.glob("*.csv"))}
    assert sorted(again) == sorted(first) and len(first) == 3
    for name, lines in first.items():
        assert again[name][1:] == lines[1:], name


def test_toolpath_header_keeps_the_file_frame(tmp_path):
    # a --toolpath run without a workpiece solves in the file's own frame,
    # and its header, which leaves the workpiece out, re-runs it there
    frame = make_pose(np.eye(3), np.array([0.0, -1000.0, 950.0]))
    path = generate_cone_spiral(ConeSpec(pitch=10.0, samples_per_rev=16)).with_frame(frame)
    path_file = tmp_path / "path.json"
    save_toolpath(path, path_file)
    out = tmp_path / "out"
    assert main(["solve", "--toolpath", str(path_file), "--out", str(out), "--no-timing"]) == 0
    lines = (out / "trajectory_frik.csv").read_text().splitlines()
    audit = json.loads(lines[0].removeprefix("# config: "))
    assert "workpiece" not in audit and audit["toolpath"] == str(path_file)
    del audit["command"], audit["mode"]
    header_file = tmp_path / "header.json"
    header_file.write_text(json.dumps(audit))
    assert main(["solve", "--config", str(header_file), "--no-timing"]) == 0
    assert (out / "trajectory_frik.csv").read_text().splitlines()[1:] == lines[1:]


def test_workspace_single_voxel(tmp_path, model, q0_benchmark):
    # place the single voxel on the benchmark workpiece position
    config = write_config(
        tmp_path,
        sweep={
            "y_min_mm": -1150.0,
            "y_max_mm": -1050.0,
            "z_min_mm": 850.0,
            "z_max_mm": 950.0,
            "voxel_mm": 100.0,
        },
        cone={"samples_per_rev": 8, "pitch_mm": 10.0},
    )
    code = main(["workspace", "--config", str(config)])
    assert code == 0
    csv_lines = (tmp_path / "out" / "workspace.csv").read_text().splitlines()
    assert csv_lines[1] == "y_mm,z_mm,reachable_adhoc,w_adhoc,reachable_frik,w_frik"
    assert len(csv_lines) == 3
    summary = json.loads((tmp_path / "out" / "workspace_summary.json").read_text())
    assert {"adhoc", "frik"} <= set(summary["summary"])
    assert summary["summary"]["frik"]["reachable_voxels"] in (0, 1)


def test_workspace_grid_beyond_reach(tmp_path):
    config = write_config(
        tmp_path,
        sweep={
            "y_min_mm": -5200.0,
            "y_max_mm": -5000.0,
            "z_min_mm": 0.0,
            "z_max_mm": 200.0,
            "voxel_mm": 100.0,
        },
    )
    code = main(["workspace", "--config", str(config)])
    assert code == 0
    summary = json.loads((tmp_path / "out" / "workspace_summary.json").read_text())
    assert summary["summary"]["adhoc"]["reachable_voxels"] == 0
    assert summary["summary"]["frik"]["reachable_voxels"] == 0


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= 1e-9 * abs(want)


def test_workspace_400mm_matches_golden(tmp_path):
    # the benchmark config's wall at 400 mm voxels (36 voxels, the bundled
    # cone, both modes): reachable flags, cause counts and each unreachable
    # voxel's cause record (kind, k, joint) exactly, the manipulability to a
    # relative 1e-9 and the margins to 1e-9 deg; the golden omits the audit
    # lines and the summary's config
    config = json.loads(BENCH_CONFIG.read_text())
    config["sweep"]["voxel_mm"] = 400.0
    config["robot"] = str(ROBOT_FILE)
    file = tmp_path / "sweep.json"
    file.write_text(json.dumps(config))
    assert main(["workspace", "--config", str(file), "--out", str(tmp_path / "out")]) == 0
    fresh = (tmp_path / "out" / "workspace.csv").read_text().splitlines()
    want = (GOLDEN_SWEEP / "workspace.csv").read_text().splitlines()
    assert fresh[0].startswith("# config:") and len(fresh) == len(want) + 1
    assert fresh[1] == want[0]
    for got_row, want_row in zip(fresh[2:], want[1:]):
        got_cells, want_cells = got_row.split(","), want_row.split(",")
        assert got_cells[:3] == want_cells[:3] and got_cells[4] == want_cells[4]
        for g, w in zip(got_cells[3::2], want_cells[3::2]):
            assert g == w == "" or _close(float(g), float(w)), (want_row, got_row)
    got = json.loads((tmp_path / "out" / "workspace_summary.json").read_text())["summary"]
    want = json.loads((GOLDEN_SWEEP / "workspace_summary.json").read_text())["summary"]
    assert got.keys() == want.keys()
    for key, value in want.items():
        if key not in MODES:
            assert got[key] == value, key
            continue
        assert got[key].keys() == value.keys()
        for stat, number in value.items():
            if stat in ("causes", "reachable_voxels"):
                assert got[key][stat] == number, (key, stat)
            else:
                assert _close(got[key][stat], number), (key, stat)
    fresh = (tmp_path / "out" / "workspace_causes.csv").read_text().splitlines()
    want = (GOLDEN_SWEEP / "workspace_causes.csv").read_text().splitlines()
    assert fresh[0].startswith("# config:") and len(fresh) == len(want) + 1
    assert fresh[1] == want[0] == "mode,y_mm,z_mm,kind,k,joint,margin_deg"
    for got_row, want_row in zip(fresh[2:], want[1:]):
        got_cells, want_cells = got_row.split(","), want_row.split(",")
        assert got_cells[:6] == want_cells[:6], (want_row, got_row)
        g, w = got_cells[6], want_cells[6]
        assert g == w == "" or abs(float(g) - float(w)) <= 1e-9, (want_row, got_row)


def test_solve_exit_code_two_on_unreachable(tmp_path, capsys):
    # a cone placed far outside the reach envelope cannot converge
    config = write_config(
        tmp_path,
        workpiece={"pos_mm": [0.0, -4000.0, 900.0], "quat": [0.0, 0.0, 0.0, 1.0]},
    )
    code = main(["solve", "--config", str(config)])
    assert code == 2
    assert "did not converge" in capsys.readouterr().err


def test_solve_stops_at_joint_limit(tmp_path, capsys):
    # at this placement of the benchmark cone J5 passes its -125 deg limit at
    # target 68; the solve ends there and writes no trajectory
    config = write_config(tmp_path, cone={}, workpiece={"pos_mm": [0.0, -1400.0, 1400.0]})
    assert main(["solve", "--config", str(config), "--mode", "frik"]) == 2
    assert "frik: joint_limit at target 68: J5 " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_solve_half_turn_target_exits_two(tmp_path, capsys, model, q0_benchmark):
    # the q0 TCP pose turned by pi about its x-axis: a 6-DOF task's
    # orientation error is a half-turn, where the log map is not unique
    pose = forward_kinematics(model, q0_benchmark) @ make_pose(rot_x(np.pi), np.zeros(3))
    path_file = tmp_path / "path.json"
    save_toolpath(Toolpath(poses=pose[None]), path_file)
    out = str(tmp_path / "out")
    assert main(["solve", "--toolpath", str(path_file), "--task-dof", "6", "--out", out]) == 2
    assert "frik: rotation_near_pi at target 0" in capsys.readouterr().err


def test_import_loads_numpy_only():
    # numpy is the only runtime dependency: a cold import of the package and
    # its CLI loads no other non-stdlib module (multiprocessing registers
    # __main__ again as __mp_main__)
    env = dict(os.environ, PYTHONPATH=str(Path(frik.__file__).resolve().parents[1]))
    code = (
        "import sys; before = set(sys.modules); import frik, frik.cli; "
        "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
        " - set(sys.stdlib_module_names) - {'frik', 'numpy', '__mp_main__'}))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
