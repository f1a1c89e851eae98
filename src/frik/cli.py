"""Command-line entry point wiring config, robot, toolpath, solver and
analysis into reproducible experiment runs.

Commands: ``generate`` (write a cone-spiral toolpath file), ``solve`` (solve
a toolpath in the ``--mode`` given, frik or adhoc, and write
trajectory/travel/timing reports), ``workspace``
(workpiece-placement sweep over the wall grid), ``compare`` (ad hoc vs
functionally redundant back-to-back with a delta report).

Exit codes: 0 success, 1 usage/config error, 2 a target the robot cannot take
(``PathFailed``: not converged, half-turn error or joint limit).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    MODES,
    TravelReport,
    WorkspaceMap,
    joint_travel,
    mode_problem,
    workspace_summary,
    workspace_sweep,
)
from .config import (
    CONE_KEYS,
    ConfigError,
    RunConfig,
    apply_flag_overrides,
    default_workpiece_frame,
    load_config,
    resolved_dict,
)
from .errors import FrikError, PathFailed
from .liegroup import _dot
from .robot import RobotModel, irb4600, load_robot
from .solver import TASK_DOFS, SolveResult, solve_toolpath
from .toolpath import ConeSpec, Toolpath, generate_cone_spiral, load_toolpath, toolpath_to_dict

# Reference figures printed beside the measured ones. They came with the
# package's first version without a stated source, and they belong to a setup
# with a spray-gun tool whose axis is offset from joint 6. This repository's
# tool frame is the bare flange, so only their percent change compares. On the
# bundled cone this repository measures 9291.5 -> 7702.4 deg (-17.10%, the
# reference -16.66%), and on the full wall grid 69 -> 69 voxels (the
# reference +92%).
REFERENCE_TRAVEL_DEG = {"adhoc": 685.549, "frik": 571.313, "pct_change": -16.66}
REFERENCE_WORKSPACE_VOXELS = {"adhoc": 75, "frik": 144, "pct_change": 92.0}
REFERENCE_NOTE = "from a spray-gun tool setup this repo lacks; only the percent change compares"


def _fmt(value: float) -> str:
    return repr(float(value))


def _load_model(config: RunConfig) -> RobotModel:
    if config.robot_file is not None and not Path(config.robot_file).exists():
        raise ConfigError(f"robot file not found: {config.robot_file}")
    model = irb4600() if config.robot_file is None else load_robot(config.robot_file)
    if config.q0_rad.shape != (model.n,):
        raise ConfigError(f"q0 length {config.q0_rad.shape[0]} does not match robot n={model.n}")
    return model


def _resolve_toolpath(config: RunConfig) -> Toolpath:
    """The run's toolpath, placed as ``RunConfig.workpiece`` says."""
    if isinstance(config.source, ConeSpec):
        toolpath = generate_cone_spiral(config.source).with_frame(default_workpiece_frame())
    elif not Path(config.source).exists():
        raise ConfigError(f"toolpath file not found: {config.source}")
    else:
        toolpath = load_toolpath(config.source)
    return toolpath if config.workpiece is None else toolpath.with_frame(config.workpiece)


def _audit_header(config: RunConfig, command: str, mode: str | None = None) -> str:
    audit = {**resolved_dict(config), "command": command, **({"mode": mode} if mode else {})}
    return "# config: " + json.dumps(audit, sort_keys=True)


def _write_trajectory_csv(
    file: Path,
    header: str,
    results: list[SolveResult],
    with_timing: bool,
) -> None:
    # one stacked degrees and norm pass; .tolist() floats repr as _fmt does
    q_deg = np.degrees(np.array([res.q for res in results]))
    residuals = np.array([res.residual for res in results])
    norms = np.sqrt(_dot(residuals, residuals)).tolist()
    columns = ["k"] + [f"q{i + 1}_deg" for i in range(q_deg.shape[1])] + ["iterations", "residual"]
    if with_timing:
        columns.append("us")
    lines = [header, ",".join(columns)]
    for k, (res, row, norm) in enumerate(zip(results, q_deg, norms)):
        cells = [str(k), *map(repr, row.tolist()), str(res.iterations), repr(norm)]
        if with_timing:
            cells.append(_fmt(res.wall_time_us))
        lines.append(",".join(cells))
    file.write_text("\n".join(lines) + "\n")


def _write_travel_csv(file: Path, header: str, reports: dict[str, TravelReport]) -> None:
    n = len(next(iter(reports.values())).per_joint_deg)
    modes = list(reports)
    lines = [header]
    if len(modes) == 2:
        lines.append("joint,travel_adhoc_deg,travel_frik_deg,pct_change")
        adhoc, frik = reports["adhoc"], reports["frik"]
        for i in range(n):
            a, f = adhoc.per_joint_deg[i], frik.per_joint_deg[i]
            pct = 100.0 * (f - a) / a if a else 0.0
            lines.append(f"J{i + 1},{_fmt(a)},{_fmt(f)},{_fmt(pct)}")
        pct = (
            100.0 * (frik.overall_deg - adhoc.overall_deg) / adhoc.overall_deg
            if adhoc.overall_deg
            else 0.0
        )
        lines.append(
            f"overall_6d,{_fmt(adhoc.overall_deg)},{_fmt(frik.overall_deg)},{_fmt(pct)}"
        )
    else:
        mode = modes[0]
        report = reports[mode]
        lines.append("joint,travel_deg")
        for i in range(n):
            lines.append(f"J{i + 1},{_fmt(report.per_joint_deg[i])}")
        lines.append(f"overall_6d,{_fmt(report.overall_deg)}")
    file.write_text("\n".join(lines) + "\n")


def _write_workspace_csv(
    file: Path, header: str, map_adhoc: WorkspaceMap, map_frik: WorkspaceMap
) -> None:
    lines = [header, "y_mm,z_mm,reachable_adhoc,w_adhoc,reachable_frik,w_frik"]
    for iy, y in enumerate(map_adhoc.y_centers):
        for iz, z in enumerate(map_adhoc.z_centers):
            cells = [_fmt(y), _fmt(z)]
            for wmap in (map_adhoc, map_frik):
                ok = bool(wmap.reachable[iy, iz])
                cells.append("1" if ok else "0")
                cells.append(_fmt(wmap.mean_w[iy, iz]) if ok else "")
            lines.append(",".join(cells))
    file.write_text("\n".join(lines) + "\n")


def _write_causes_csv(file: Path, header: str, maps: tuple[WorkspaceMap, ...]) -> None:
    """One row per unreachable voxel and mode: the PathFailure that ended its
    path, with empty ``joint`` and ``margin_deg`` for kinds that carry none."""
    lines = [header, "mode,y_mm,z_mm,kind,k,joint,margin_deg"]
    for wmap in maps:
        for (iy, iz), cause in wmap.causes.items():
            joint = "" if cause.joint is None else str(cause.joint)
            margin = "" if cause.margin_deg is None else _fmt(cause.margin_deg)
            cells = [wmap.mode, _fmt(wmap.y_centers[iy]), _fmt(wmap.z_centers[iz])]
            lines.append(",".join([*cells, cause.kind, str(cause.k), joint, margin]))
    file.write_text("\n".join(lines) + "\n")


def cmd_generate(config: RunConfig, args) -> int:
    if not isinstance(config.source, ConeSpec):
        raise ConfigError("generate needs a cone block (config or --cone-* flags)")
    toolpath = _resolve_toolpath(config)
    out_file = Path(config.out_dir) / "toolpath.json"
    out_file.parent.mkdir(parents=True, exist_ok=True)
    audit = {**resolved_dict(config), "command": "generate"}
    payload = {**toolpath_to_dict(toolpath), "config": audit}
    out_file.write_text(json.dumps(payload, indent=1, sort_keys=True))
    print(f"wrote {out_file} ({len(toolpath)} targets)")
    return 0


def _solve_and_report(config: RunConfig, args, command: str, modes: tuple[str, ...]) -> int:
    """Solve the toolpath in each mode; only if every mode succeeds, write the reports."""
    model = _load_model(config)
    base_path = _resolve_toolpath(config)
    runs: dict[str, list[SolveResult]] = {}
    for mode in modes:
        path, proj = mode_problem(base_path, mode, config.task_dof)
        try:
            runs[mode] = solve_toolpath(model, path, config.q0_rad, proj, config.solver)
        except PathFailed as exc:
            raise PathFailed(exc.failure, mode) from None
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with_timing = not args.no_timing

    reports: dict[str, TravelReport] = {}
    for mode, results in runs.items():
        header = _audit_header(config, command, mode)
        _write_trajectory_csv(out_dir / f"trajectory_{mode}.csv", header, results, with_timing)
        reports[mode] = joint_travel([r.q for r in results])
        print(
            f"{mode}: {len(results)} targets solved, overall travel "
            f"{reports[mode].overall_deg:.3f} deg"
        )

    _write_travel_csv(out_dir / "travel_report.csv", _audit_header(config, command), reports)
    if with_timing:
        timing = {}
        for mode, results in runs.items():
            times = np.array([r.wall_time_us for r in results])
            timing[mode] = {"mean_us": float(times.mean()), "total_us": float(times.sum())}
        payload = {"config": resolved_dict(config), "timing": timing}
        (out_dir / "timing_summary.json").write_text(
            json.dumps(payload, indent=1, sort_keys=True)
        )

    if len(reports) == 2:
        adhoc, frik = reports["adhoc"], reports["frik"]
        pct = 100.0 * (frik.overall_deg - adhoc.overall_deg) / adhoc.overall_deg
        print(
            f"overall 6D travel: adhoc {adhoc.overall_deg:.3f} deg, "
            f"frik {frik.overall_deg:.3f} deg ({pct:+.2f}%)"
        )
        print(
            "reference: adhoc "
            f"{REFERENCE_TRAVEL_DEG['adhoc']} deg, frik {REFERENCE_TRAVEL_DEG['frik']} deg "
            f"({REFERENCE_TRAVEL_DEG['pct_change']:+.2f}%), {REFERENCE_NOTE}"
        )
    return 0


def cmd_solve(config: RunConfig, args) -> int:
    return _solve_and_report(config, args, "solve", (args.mode,))


def cmd_compare(config: RunConfig, args) -> int:
    return _solve_and_report(config, args, "compare", MODES)


def cmd_workspace(config: RunConfig, args) -> int:
    model = _load_model(config)
    template = _resolve_toolpath(config)
    map_adhoc, map_frik = workspace_sweep(
        model,
        template,
        config.sweep,
        config.q0_rad,
        config.solver,
        jobs=config.jobs,
        frik_task_dof=config.task_dof,
    )
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = _audit_header(config, "workspace")
    _write_workspace_csv(out_dir / "workspace.csv", header, map_adhoc, map_frik)
    _write_causes_csv(out_dir / "workspace_causes.csv", header, (map_adhoc, map_frik))
    summary = workspace_summary(map_adhoc, map_frik)
    payload = {
        "config": resolved_dict(config),
        "summary": summary,
        "reference_voxels": REFERENCE_WORKSPACE_VOXELS,
    }
    (out_dir / "workspace_summary.json").write_text(
        json.dumps(payload, indent=1, sort_keys=True)
    )
    print(
        f"reachable voxels: adhoc {summary['adhoc']['reachable_voxels']}, "
        f"frik {summary['frik']['reachable_voxels']} "
        f"(reference {REFERENCE_WORKSPACE_VOXELS['adhoc']} -> "
        f"{REFERENCE_WORKSPACE_VOXELS['frik']}, "
        f"{REFERENCE_WORKSPACE_VOXELS['pct_change']:+.1f}%, {REFERENCE_NOTE})"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run-configuration file")
    common.add_argument("--robot", help="robot description JSON file")
    common.add_argument("--toolpath", help="toolpath file (JSON or CSV)")
    common.add_argument("--task-dof", type=int, choices=TASK_DOFS, dest="task_dof")
    common.add_argument("--out", help="output directory")
    common.add_argument(
        "--jobs", type=int, help="worker processes for the sweep, at most one per solve mode"
    )
    common.add_argument(
        "--no-timing",
        action="store_true",
        help="exclude wall-time fields from outputs (golden-file runs)",
    )
    for key, name in CONE_KEYS.items():
        common.add_argument(f"--cone-{key.replace('_', '-')}", type=type(getattr(ConeSpec(), name)))

    parser = argparse.ArgumentParser(
        prog="frik",
        description="Functionally redundant inverse kinematics toolpath runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("generate", parents=[common], help="write a cone-spiral toolpath file")
    solve_parser = sub.add_parser(
        "solve", parents=[common], help="solve a toolpath and write reports"
    )
    solve_parser.add_argument("--mode", choices=MODES, default="frik")
    sub.add_parser("workspace", parents=[common], help="workpiece placement sweep")
    sub.add_parser("compare", parents=[common], help="ad hoc vs FRIK delta report")
    return parser


_COMMANDS = {
    "generate": cmd_generate,
    "solve": cmd_solve,
    "workspace": cmd_workspace,
    "compare": cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its message; a usage error is exit 1 here,
        # because 2 means a target the robot cannot take
        return 0 if exc.code == 0 else 1
    try:
        config = load_config(args.config) if args.config else RunConfig()
        config = apply_flag_overrides(config, args)
        return _COMMANDS[args.command](config, args)
    except (FrikError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, PathFailed) else 1


if __name__ == "__main__":
    sys.exit(main())
