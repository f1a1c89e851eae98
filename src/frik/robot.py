"""Standard-DH serial chain: forward kinematics, Jacobian, kinematic Hessian.

All joints are revolute, and each link is Rz(theta) Tz(d) Tx(a) Rx(alpha).
Lengths are mm, angles rad. The geometric Jacobian maps joint rates to the
twist ``[tcp linear velocity; angular velocity]`` in the base frame, with the
linear part taken about the TCP point. The kinematic Hessian is the
6 x n x n tensor of Jacobian partials, ``H[:, :, j] = dJ/dq_j``, built from
cross products of the Jacobian's own column data rather than by finite
differences. The Halley step needs only its product ``H dq`` with one joint
step, which ``hessian_product`` forms in O(n) from the same column data
without building the tensor; ``kinematic_hessian`` stays as its reference.
The ``*_lanes`` functions walk a (V, n) stack of configurations, one lane
each, and round every lane exactly as the (n,) function does; they are
separate because a lane axis slows the (n,) walk that every ``solve``
iteration takes. ``hessian_product`` takes any leading stack axes as they
are.

Cross products are spelled out component-wise, in ``_cross_rows`` and, on
row buffers, in ``hessian_product``: solver iterations call these functions
in a tight loop and ``np.cross`` spends more time shuffling axes than
multiplying at this size. For the same reason ``hessian_product`` writes its
factors straight into those buffers and takes its running sums with
``np.add.accumulate``, the ufunc method that ``np.cumsum`` wraps, and the
chain walk skips its products with the identity: the frame stack starts
from a copy of the first link, not the identity times it, and a model whose
tool is the identity (checked once, when the model is built) skips the tool
product. A product with exact ones and zeros gives back every nonzero
entry to the bit, so the walk can differ from the identity products only in
the sign of an exact zero (the second joint axis's x entry is -0.0, not
+0.0, when sin(q1 + offset1) is +0.0).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, FrikError, ParseError
from .liegroup import _ValueEquality, finite_numbers, is_rotation

_EYE4 = np.eye(4)
# which of a joint's (cos, sin) each entry of its link's top rows takes
_LINK_TRIG = np.array([[0, 1, 1, 0], [1, 0, 0, 1]])


@dataclass(frozen=True)
class DHRow:
    """One link's parameters: a (mm), alpha (rad), d (mm), theta_offset (rad)."""

    a: float
    alpha: float
    d: float
    theta_offset: float = 0.0


@dataclass(frozen=True, eq=False)
class RobotModel(_ValueEquality):
    """Immutable serial-chain description: DH rows, joint limits, tool transform.

    The limit and tool arrays are read-only copies of the arrays given, and
    models compare and hash by value."""

    dh: tuple[DHRow, ...]
    joint_min: np.ndarray
    joint_max: np.ndarray
    tool: np.ndarray = field(default_factory=lambda: np.eye(4))
    name: str = "robot"

    def __post_init__(self):
        object.__setattr__(self, "dh", tuple(self.dh))
        for name in ("joint_min", "joint_max", "tool"):
            value = np.array(getattr(self, name), dtype=float)
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        n = len(self.dh)
        if n < 1:
            raise ValueError("model needs at least one joint")
        if self.joint_min.shape != (n,) or self.joint_max.shape != (n,):
            raise DimensionMismatch(f"joint limits must have length {n}")
        if not np.all(self.joint_min < self.joint_max):
            raise ValueError("joint_min must be strictly below joint_max elementwise")
        if self.tool.shape != (4, 4):
            raise DimensionMismatch("tool transform must be 4x4")
        a, alpha, d, offset = np.array([(r.a, r.alpha, r.d, r.theta_offset) for r in self.dh]).T
        ca, sa = np.cos(alpha), np.sin(alpha)
        # each link's top rows are [ct, -st ca, st sa, a ct] and [st, ct ca,
        # -ct sa, a st]: (cos, sin) gathered by _LINK_TRIG times these factors
        one = np.ones(n)
        top = np.stack([one, -ca, sa, a, one, ca, -sa, a], -1).reshape(n, 2, 4)
        # its last two rows, [0, sa, ca, d] and [0, 0, 0, 1], do not depend on q
        bottom = np.zeros((n, 2, 4))
        bottom[:, 0, 1:] = np.stack([sa, ca, d], -1)
        bottom[:, 1, 3] = 1.0
        object.__setattr__(self, "_link_constants", (offset, top, bottom))
        object.__setattr__(self, "_identity_tool", np.array_equal(self.tool, _EYE4))

    @property
    def n(self) -> int:
        return len(self.dh)

    def reach_bound(self) -> float:
        """Conservative radius (mm) that no reachable TCP point can exceed."""
        span = sum(abs(r.a) + abs(r.d) for r in self.dh)
        return span + float(np.linalg.norm(self.tool[:3, 3]))

    def within_limits(self, q: np.ndarray) -> bool:
        return bool(((q >= self.joint_min) & (q <= self.joint_max)).all())

    def midrange(self) -> np.ndarray:
        return 0.5 * (self.joint_min + self.joint_max)


def chain_frames(model: RobotModel, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """TCP pose plus each joint's rotation axis and origin in the base frame.

    Returns ``(tcp, axes, origins)`` with ``axes``/``origins`` of shape (n, 3).
    This single chain walk backs forward_kinematics, the Jacobian and the
    Hessian, so solver iterations pay for it once. The n links are built as
    one (n, 4, 4) stack, and their running products down the chain fill an
    (n + 1, 4, 4) frame stack whose first n frames give the axes and origins.
    """
    q = np.asarray(q, dtype=float)
    n = model.n
    if q.shape != (n,):
        raise DimensionMismatch(f"expected q of length {n}, got shape {q.shape}")
    offset, top, bottom = model._link_constants
    theta = q + offset
    trig = np.empty((n, 2))
    np.cos(theta, out=trig[:, 0])
    np.sin(theta, out=trig[:, 1])
    links = np.empty((n, 4, 4))
    np.multiply(trig[:, _LINK_TRIG], top, out=links[:, :2])
    links[:, 2:] = bottom
    frames = np.empty((n + 1, 4, 4))
    frames[0] = _EYE4
    frames[1] = links[0]
    for i in range(1, n):
        np.matmul(frames[i], links[i], out=frames[i + 1])
    tcp = frames[n] if model._identity_tool else frames[n] @ model.tool
    return tcp, frames[:n, :3, 2], frames[:n, :3, 3]


def chain_frames_lanes(
    model: RobotModel, q: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``chain_frames`` of each configuration in a (V, n) stack.

    Returns (V, 4, 4) TCP poses and (V, n, 3) axes and origins, each lane
    rounded exactly as its own ``chain_frames`` call: the link and frame
    stacks gain a lane axis after the link index, so every running product
    is still one 4 x 4 matmul per lane.
    """
    q = np.asarray(q, dtype=float)
    n = model.n
    if q.ndim != 2 or q.shape[1] != n:
        raise DimensionMismatch(f"expected q of shape (V, {n}), got {q.shape}")
    lanes = len(q)
    offset, top, bottom = model._link_constants
    theta = (q + offset).T
    trig = np.empty((n, lanes, 2))
    np.cos(theta, out=trig[..., 0])
    np.sin(theta, out=trig[..., 1])
    links = np.empty((n, lanes, 4, 4))
    np.multiply(trig[..., _LINK_TRIG], top[:, None], out=links[:, :, :2])
    links[:, :, 2:] = bottom[:, None]
    frames = np.empty((n + 1, lanes, 4, 4))
    frames[0] = _EYE4
    frames[1] = links[0]
    for i in range(1, n):
        np.matmul(frames[i], links[i], out=frames[i + 1])
    axes = frames[:n, :, :3, 2].swapaxes(0, 1)
    origins = frames[:n, :, :3, 3].swapaxes(0, 1)
    tcp = frames[n] if model._identity_tool else frames[n] @ model.tool
    return tcp, axes, origins


def forward_kinematics(model: RobotModel, q: np.ndarray) -> np.ndarray:
    """Base-to-TCP pose: the DH chain product composed with the tool transform."""
    tcp, _, _ = chain_frames(model, q)
    return tcp


def _cross_rows(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Row-wise cross product for (..., 3) arrays without np.cross overhead."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out[..., 0] = a1 * b2 - a2 * b1
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def jacobian_from_frames(p_tcp: np.ndarray, axes: np.ndarray, origins: np.ndarray) -> np.ndarray:
    n = axes.shape[0]
    lever = p_tcp - origins
    j = np.empty((6, n))
    _cross_rows(axes, lever, j[:3].T)
    j[3:] = axes.T
    return j


def jacobian_from_frames_lanes(
    p_tcp: np.ndarray, axes: np.ndarray, origins: np.ndarray
) -> np.ndarray:
    """``jacobian_from_frames`` of each lane of ``chain_frames_lanes``' output: (V, 6, n)."""
    lanes, n = axes.shape[:2]
    j = np.empty((lanes, 6, n))
    _cross_rows(axes, p_tcp[:, None] - origins, j[:, :3].swapaxes(1, 2))
    j[:, 3:] = axes.swapaxes(1, 2)
    return j


def geometric_jacobian(model: RobotModel, q: np.ndarray) -> np.ndarray:
    """6 x n geometric Jacobian in the base frame about the TCP point.

    Column i is ``[z_{i-1} x (p_tcp - p_{i-1}); z_{i-1}]``.
    """
    tcp, axes, origins = chain_frames(model, q)
    return jacobian_from_frames(tcp[:3, 3], axes, origins)


@functools.cache
def _hessian_cells(n: int) -> tuple[np.ndarray, ...]:
    """Read-only index arrays of the n x n Hessian cells (i, j): column i
    (n, 1), derivative j (1, n), min(i, j), max(i, j) and the mask j > i."""
    col = np.arange(n)[:, None]
    der = col.T
    cells = (col, der, np.minimum(col, der), np.maximum(col, der), der > col)
    for cell in cells:
        cell.setflags(write=False)
    return cells


def hessian_from_frames(p_tcp: np.ndarray, axes: np.ndarray, origins: np.ndarray) -> np.ndarray:
    n = axes.shape[0]
    v = np.empty((n, 3))
    _cross_rows(axes, p_tcp - origins, v)
    col, der, lo, hi, upper = _hessian_cells(n)
    h = np.empty((6, n, n))
    # cell (i, j): linear w_min x v_max, angular w_j x w_i (zero above diagonal)
    lin = h[:3].transpose(1, 2, 0)
    ang = h[3:].transpose(1, 2, 0)
    _cross_rows(axes[lo], v[hi], lin)
    _cross_rows(axes[der], axes[col], ang)
    ang[upper] = 0.0
    return h


def hessian_product(axes: np.ndarray, jac: np.ndarray, dq: np.ndarray) -> np.ndarray:
    """``H dq``, the Jacobian's derivative along the joint step ``dq``,
    without building the n x n Hessian.

    Takes (..., n, 3) joint axes w_i, the (..., 6, n) Jacobian, whose linear
    column halves are v_i, and (..., n) ``dq``; returns (..., 6, n). Summing
    ``kinematic_hessian``'s cells along dq gives column i as
    ``[W_i x v_i + w_i x S_i; W_i x w_i]`` with ``W_i = sum_{j<=i} dq_j w_j``
    and ``S_i = sum_{j>i} dq_j v_j``. Every w_i comes from ``axes``, so zero
    axes give exact zeros. Each leading index rounds as its own call.
    """
    n = dq.shape[-1]
    w = axes.swapaxes(-1, -2)
    v = jac[..., :3, :]
    step = dq[..., None, :]
    # W x w, W x v and w x S as one cross product over 3n columns: the
    # factors' component rows [W | W | w] and [w | v | S] go into buffers
    # whose rows 3 and 4 repeat rows 0 and 1, so that component k is
    # left[k+1] right[k+2] - left[k+2] right[k+1], as ``_cross_rows`` forms
    # it, for all three k at once
    shape = (*v.shape[:-2], 5, 3 * n)
    left, right = np.empty(shape), np.empty(shape)
    np.add.accumulate(w * step, -1, out=left[..., :3, :n])
    left[..., :3, n : 2 * n] = left[..., :3, :n]
    left[..., :3, 2 * n :] = w
    right[..., :3, :n] = w
    right[..., :3, n : 2 * n] = v
    # S_i sums from the chain's far end; S_{n-1} is empty
    np.add.accumulate((v * step)[..., :0:-1], -1, out=right[..., :3, -2 : 2 * n - 1 : -1])
    right[..., :3, -1] = 0.0
    left[..., 3:, :] = left[..., :2, :]
    right[..., 3:, :] = right[..., :2, :]
    cross = left[..., 1:4, :] * right[..., 2:, :] - left[..., 2:, :] * right[..., 1:4, :]
    out = np.empty(jac.shape)
    out[..., 3:, :] = cross[..., :n]
    np.add(cross[..., n : 2 * n], cross[..., 2 * n :], out=out[..., :3, :])
    return out


def kinematic_hessian(model: RobotModel, q: np.ndarray) -> np.ndarray:
    """6 x n x n tensor of Jacobian partials, H[:, :, j] = dJ/dq_j.

    Angular block: dw_i/dq_j = w_j x w_i for j <= i, zero for j > i.
    Linear block:  dv_i/dq_j = w_j x v_i for j <= i and w_i x v_j for j > i,
    where (v_i, w_i) are the Jacobian's column halves.
    """
    tcp, axes, origins = chain_frames(model, q)
    return hessian_from_frames(tcp[:3, 3], axes, origins)


def irb4600() -> RobotModel:
    """Bundled ABB IRB4600 model: DH table plus datasheet joint limits."""
    dh = (
        DHRow(a=175.0, alpha=-np.pi / 2, d=329.5, theta_offset=0.0),
        DHRow(a=900.0, alpha=0.0, d=0.0, theta_offset=-np.pi / 2),
        DHRow(a=174.56, alpha=-np.pi / 2, d=0.0, theta_offset=0.0),
        DHRow(a=0.0, alpha=-np.pi / 2, d=960.0, theta_offset=np.pi),
        DHRow(a=0.0, alpha=-np.pi / 2, d=0.0, theta_offset=np.pi),
        DHRow(a=0.0, alpha=0.0, d=135.0, theta_offset=0.0),
    )
    deg = np.pi / 180.0
    joint_min = deg * np.array([-180.0, -90.0, -180.0, -400.0, -125.0, -400.0])
    joint_max = deg * np.array([180.0, 150.0, 75.0, 400.0, 120.0, 400.0])
    return RobotModel(dh=dh, joint_min=joint_min, joint_max=joint_max, name="irb4600")


def _dh_row(record) -> DHRow:
    record = {"theta_rad": 0.0, **record}
    keys = ("a_mm", "alpha_rad", "d_mm", "theta_rad")
    return DHRow(*(float(finite_numbers(record, key, ())) for key in keys))


def _tool(raw: dict) -> np.ndarray:
    if raw.get("tool") is None:
        return np.eye(4)
    tool = finite_numbers(raw, "tool", (4, 4))
    if tool[3].tolist() != [0.0, 0.0, 0.0, 1.0]:
        raise ParseError(f"tool bottom row must be 0 0 0 1, got {tool[3].tolist()}")
    if not is_rotation(tool[:3, :3], tol=1e-8):
        raise ParseError("tool transform rotation block is not orthonormal")
    return tool


def load_robot(path: str | Path) -> RobotModel:
    """Read a robot description JSON file.

    Schema: ``dh`` (list of standard-convention rows {a_mm, alpha_rad, d_mm,
    theta_rad}), ``joint_limits_rad`` ({min: [...], max: [...]}), ``tool``
    (4x4 row-major homogeneous transform, bottom row 0 0 0 1, or null), and
    optionally ``dh_convention``, which must be "standard": a file in any
    other convention is rejected rather than walked as standard rows. Every
    number goes through ``liegroup.finite_numbers``, and any fault raises
    ParseError naming the file.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    try:
        limits = raw["joint_limits_rad"]
        convention = raw.get("dh_convention", "standard")
        if convention != "standard":
            raise ParseError(f"dh_convention {convention!r} is not supported, only 'standard'")
        return RobotModel(
            dh=tuple(_dh_row(r) for r in raw["dh"]),
            joint_min=finite_numbers(limits, "min"),
            joint_max=finite_numbers(limits, "max"),
            tool=_tool(raw),
            name=raw.get("name", path.stem),
        )
    except (KeyError, TypeError, ValueError, FrikError) as exc:
        raise ParseError(f"{path}: bad robot description: {exc}") from exc


def robot_to_dict(model: RobotModel) -> dict:
    """JSON-ready form of a model, matching the robot description schema."""
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
