import math

import numpy as np
import pytest

from frik.config import DEFAULT_Q0_DEG, default_workpiece_frame
from frik.errors import RotationNearPi
from frik.liegroup import PI_MARGIN, SMALL_ANGLE, unskew
from frik.robot import RobotModel, chain_frames, irb4600


@pytest.fixture(scope="session")
def model():
    return irb4600()


@pytest.fixture(scope="session")
def q0_benchmark():
    return np.radians(np.array(DEFAULT_Q0_DEG))


@pytest.fixture(scope="session")
def workpiece_frame():
    return default_workpiece_frame()


def random_rotation(rng) -> np.ndarray:
    """Uniform-ish random rotation from a random axis and angle."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, np.pi - 0.05)
    from frik.liegroup import so3_exp

    return so3_exp(angle * axis)


def twist_rotation(rd: np.ndarray) -> np.ndarray:
    """6x6 block-diagonal twist transform for a target-frame rotation ``rd``.

    Applied to a base-frame twist it gives the same twist with both 3-vector
    halves along the target frame's axes, so both blocks are ``rd.T`` and the
    off-diagonal blocks are exactly zero: the reference for the solver's
    target-frame error, Jacobian and Halley Jacobian.
    """
    out = np.zeros((6, 6))
    out[:3, :3] = rd.T
    out[3:, 3:] = rd.T
    return out


def target_frame_walk(model, q: np.ndarray, t_d: np.ndarray):
    """The chain walk at ``q`` along the axes of target ``t_d``, as ``solve``
    forms it: the TCP's (3, 4) ``[R | p]``, the (n, 3) joint axes and
    origins, and the target position."""
    rd = t_d[:3, :3]
    tcp, axes, origins = chain_frames(model, q)
    return rd.T @ tcp[:3], axes @ rd, origins @ rd, (rd.T @ t_d[:3, 3:])[:, 0]


def so3_log_numpy_scalars(rotation: np.ndarray) -> np.ndarray:
    """``so3_log`` formed on numpy scalars and arrays: the reference whose
    bits its Python-float form must give back, the half-turn raise included."""
    trace = rotation[0, 0] + rotation[1, 1] + rotation[2, 2]
    c = 0.5 * (trace - 1.0)
    theta = np.arccos(-1.0 if c < -1.0 else 1.0 if c > 1.0 else c)
    if theta >= np.pi - PI_MARGIN:
        raise RotationNearPi(f"rotation angle {theta:.9f} rad is within {PI_MARGIN} of pi")
    vee = unskew(rotation - rotation.T) * 0.5
    if theta < SMALL_ANGLE:
        return vee
    return (theta / np.sin(theta)) * vee


def task_error_concatenated(tcp: np.ndarray, p_d: np.ndarray, r: int) -> np.ndarray:
    """``solver.task_error`` formed on numpy scalars and joined with
    ``np.concatenate``: the reference whose bits its filled r-vector must
    give back."""
    linear = p_d - tcp[:, 3]
    if r == 3:
        return linear
    if r == 6:
        return np.concatenate([linear, so3_log_numpy_scalars(tcp[:, :3].T)])
    e0, e1, e2 = tcp[:, 2].tolist()
    s = math.sqrt(e0 * e0 + e1 * e1)
    if s < 1e-12:
        return np.concatenate([linear, (0.0, 0.0 if e2 > 0.0 else np.pi)])
    k = np.arctan2(s, e2) / s
    return np.concatenate([linear, (k * e1, -k * e0)])


def cross_rows(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Row-wise cross product of (..., 3) arrays into ``out``, component k as
    ``a[k+1] b[k+2] - a[k+2] b[k+1]``: the products the robot kernels form
    on their rolled row buffers, so the same bits."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out[..., 0] = a1 * b2 - a2 * b1
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def kinematic_hessian(model, q: np.ndarray) -> np.ndarray:
    """6 x n x n tensor of Jacobian partials, H[:, :, j] = dJ/dq_j: the
    reference for ``robot.hessian_product``, which forms H dq without it.

    Angular block: dw_i/dq_j = w_j x w_i for j <= i, zero for j > i.
    Linear block:  dv_i/dq_j = w_j x v_i for j <= i and w_i x v_j for j > i,
    where (v_i, w_i) are the Jacobian's column halves.
    """
    tcp, axes, origins = chain_frames(model, q)
    n = model.n
    v = cross_rows(axes, tcp[:3, 3] - origins, np.empty((n, 3)))
    col = np.arange(n)[:, None]
    der = col.T
    h = np.empty((6, n, n))
    # cell (i, j): linear w_min x v_max, angular w_j x w_i (zero above diagonal)
    cross_rows(axes[np.minimum(col, der)], v[np.maximum(col, der)], h[:3].transpose(1, 2, 0))
    ang = h[3:].transpose(1, 2, 0)
    cross_rows(axes[der], axes[col], ang)
    ang[der > col] = 0.0
    return h


def robot_to_dict(model: RobotModel) -> dict:
    """A model as a robot description file's JSON, the schema ``load_robot`` reads."""
    return {
        "name": model.name,
        "dh": [
            {"a_mm": r.a, "alpha_rad": r.alpha, "d_mm": r.d, "theta_rad": r.theta_offset}
            for r in model.dh
        ],
        "joint_limits_rad": {
            "min": model.joint_min.tolist(),
            "max": model.joint_max.tolist(),
        },
        "tool": None if model._identity_tool else model.tool.tolist(),
    }
