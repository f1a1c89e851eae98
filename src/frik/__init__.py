"""Functionally redundant inverse kinematics for serial manipulators."""

from .analysis import (
    SweepSpec,
    TravelReport,
    WorkspaceMap,
    joint_limit_weights,
    joint_travel,
    manipulability_jl,
    workspace_summary,
    workspace_sweep,
)
from .config import RunConfig, load_config
from .errors import (
    DimensionMismatch,
    FrikError,
    InvalidRotation,
    OutOfLimits,
    ParseError,
    PathFailed,
    PathFailure,
    RotationNearPi,
)
from .liegroup import (
    is_rotation,
    make_pose,
    pose_inverse,
    quat_to_rot,
    rot_x,
    rot_y,
    rot_z,
    so3_exp,
    so3_log,
)
from .robot import (
    DHRow,
    RobotModel,
    forward_kinematics,
    geometric_jacobian,
    irb4600,
    load_robot,
)
from .solver import (
    SolveResult,
    SolverSettings,
    TaskProjector,
    damped_step,
    solve,
    solve_toolpath,
    task_error,
    task_step,
)
from .toolpath import (
    ConeSpec,
    Toolpath,
    assign_adhoc_orientation,
    generate_cone_spiral,
    load_toolpath,
    save_toolpath,
)

__version__ = "0.1.0"
