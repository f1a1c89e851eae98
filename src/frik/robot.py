"""Standard-DH serial chain: forward kinematics, Jacobian, Hessian product.

All joints are revolute, and each link is Rz(theta) Tz(d) Tx(a) Rx(alpha).
Lengths are mm, angles rad. The geometric Jacobian maps joint rates to the
twist ``[tcp linear velocity; angular velocity]`` in the base frame, with the
linear part taken about the TCP point. The Halley step needs the kinematic
Hessian (the 6 x n x n tensor of Jacobian partials, ``H[:, :, j] =
dJ/dq_j``) only through its product ``H dq`` with one joint step, which
``hessian_product`` forms in O(n) from the Jacobian's own column data,
without building the tensor. The ``*_lanes`` functions walk a (V, n) stack
of configurations, one lane each, and round every lane exactly as the (n,)
function does; they are separate because a lane axis slows the (n,) walk
that every ``solve`` iteration takes. ``hessian_product`` takes any leading
stack axes as they are.

Cross products are spelled out component-wise, component k as
``a[k+1] b[k+2] - a[k+2] b[k+1]`` (indices mod 3), on rolled row buffers
whose rows 3 and 4 repeat rows 0 and 1, in both Jacobians and
``hessian_product``: solver iterations call these functions in a tight loop
and ``np.cross`` spends more time shuffling axes than multiplying at this
size. The buffers form all three components in one ufunc call on fewer
strided operands. For the same reason ``hessian_product`` writes its
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
    Hessian product, so solver iterations pay for it once. The n links are
    built as one (n, 4, 4) stack, and their running products down the chain
    fill an (n + 1, 4, 4) frame stack whose first n frames give the axes and
    origins.
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


def jacobian_from_frames(p_tcp: np.ndarray, axes: np.ndarray, origins: np.ndarray) -> np.ndarray:
    """The (6, n) Jacobian of a chain walk's (n, 3) axes and origins about
    the TCP point ``p_tcp``: column i is ``[w_i x (p_tcp - o_i); w_i]``.

    The cross product runs on rolled (5, n) row buffers, as in
    ``hessian_product``.
    """
    n = len(axes)
    left, right = np.empty((5, n)), np.empty((5, n))
    left[:3] = axes.T
    np.subtract(p_tcp[:, None], origins.T, out=right[:3])
    left[3:] = left[:2]
    right[3:] = right[:2]
    j = np.empty((6, n))
    np.subtract(left[1:4] * right[2:], left[2:] * right[1:4], out=j[:3])
    j[3:] = left[:3]
    return j


def jacobian_from_frames_lanes(
    p_tcp: np.ndarray, axes: np.ndarray, origins: np.ndarray
) -> np.ndarray:
    """``jacobian_from_frames`` of each lane of ``chain_frames_lanes``' output: (V, 6, n)."""
    lanes, n = axes.shape[:2]
    left, right = np.empty((lanes, 5, n)), np.empty((lanes, 5, n))
    left[:, :3] = axes.swapaxes(1, 2)
    np.subtract(p_tcp[:, :, None], origins.swapaxes(1, 2), out=right[:, :3])
    left[:, 3:] = left[:, :2]
    right[:, 3:] = right[:, :2]
    j = np.empty((lanes, 6, n))
    np.subtract(left[:, 1:4] * right[:, 2:], left[:, 2:] * right[:, 1:4], out=j[:, :3])
    j[:, 3:] = left[:, :3]
    return j


def geometric_jacobian(model: RobotModel, q: np.ndarray) -> np.ndarray:
    """6 x n geometric Jacobian in the base frame about the TCP point.

    Column i is ``[z_{i-1} x (p_tcp - p_{i-1}); z_{i-1}]``.
    """
    tcp, axes, origins = chain_frames(model, q)
    return jacobian_from_frames(tcp[:3, 3], axes, origins)


def hessian_product(axes: np.ndarray, jac: np.ndarray, dq: np.ndarray) -> np.ndarray:
    """``H dq``, the Jacobian's derivative along the joint step ``dq``,
    without building the n x n Hessian.

    Takes (..., n, 3) joint axes w_i, the (..., 6, n) Jacobian, whose linear
    column halves are v_i, and (..., n) ``dq``; returns (..., 6, n). The
    Hessian's cells are dw_i/dq_j = w_j x w_i and dv_i/dq_j = w_j x v_i for
    j <= i, and dw_i/dq_j = 0 and dv_i/dq_j = w_i x v_j for j > i; summing
    them along dq gives column i as
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
    # left[k+1] right[k+2] - left[k+2] right[k+1] for all three k at once
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

