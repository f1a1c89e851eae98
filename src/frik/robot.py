"""Standard-DH serial chain: forward kinematics, Jacobian, Hessian product.

All joints are revolute, and each link is Rz(theta) Tz(d) Tx(a) Rx(alpha).
Lengths are mm, angles rad. The geometric Jacobian maps joint rates to the
twist ``[tcp linear velocity; angular velocity]`` in the base frame, with the
linear part taken about the TCP point. The Halley step needs the kinematic
Hessian (the 6 x n x n tensor of Jacobian partials, ``H[:, :, j] =
dJ/dq_j``) only through its product ``H dq`` with one joint step, which is
formed in O(n) from the Jacobian's own column data, without building the
tensor. The Jacobian and the Halley product take one walk or a lane stack
with its lane axis last, where the (n,) kernels' row slices and running
sums work on it as written, and round each lane as its own (n,) call.

Cross products are spelled out component-wise, component k as
``a[k+1] b[k+2] - a[k+2] b[k+1]`` (indices mod 3), on rolled row buffers
whose rows repeat the three components in turn: solver iterations call
these functions in a tight loop and ``np.cross`` spends more time shuffling
axes than multiplying at this size. The buffers form all components in one
ufunc call on fewer strided operands. The Jacobian,
``jacobian_from_frames``, crosses seven-row buffers, so its linear rows
come out rolled, and returns its buffer beside the Jacobian; the Halley
product, ``rolled_hessian_product``, crosses those rolled rows of w and v
as they are, and takes its running sums with ``np.add.accumulate``, the
ufunc method that ``np.cumsum`` wraps.

A chain walk has one format, a frame stack: frame i < n carries joint i's
axis as its z column and a point on it as its origin, and frame n is the
TCP pose. ``chain_stack`` walks one configuration into an (n + 1, 4, 4)
stack and ``chain_stack_lanes`` a (V, n) stack of them into (n + 1, V, 4,
4), lane v rounded exactly as ``chain_stack`` of its joints. The walks
stay two functions because a lane axis slows the (n,) walk that every
``solve`` iteration takes. Both skip their products with the identity: the
stack starts from a copy of the first link, not the identity times it, and
a model whose tool is the identity (checked once, when the model is built)
skips the tool product. A product with exact ones and zeros gives back
every nonzero entry to the bit, so the walk can differ from the identity
products only in the sign of an exact zero (the second joint axis's x
entry is -0.0, not +0.0, when sin(q1 + offset1) is +0.0).
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


def chain_stack(model: RobotModel, q: np.ndarray) -> np.ndarray:
    """The chain walk at ``q`` as one (n + 1, 4, 4) frame stack in the base
    frame: frame i < n is the frame whose z-axis is joint i's rotation axis
    and whose origin lies on it, and frame n is the TCP pose (tool applied).

    The n links are built as one (n, 4, 4) stack, and their running
    products down the chain fill the frame stack. This single walk backs
    forward kinematics, the Jacobian and the Hessian product, so solver
    iterations pay for it once; ``solve`` carries it whole and rotates it
    onto a target's axes with one matmul.
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
    # ndarray.take gathers as fancy indexing does, in a third of its time
    np.multiply(trig.take(_LINK_TRIG, axis=1), top, out=links[:, :2])
    links[:, 2:] = bottom
    frames = np.empty((n + 1, 4, 4))
    frames[0] = _EYE4
    frames[1] = links[0]
    for i in range(1, n):
        # ndarray.dot takes the product np.matmul takes, in half its call time
        frames[i].dot(links[i], out=frames[i + 1])
    if not model._identity_tool:
        frames[n] = frames[n] @ model.tool
    return frames


def chain_stack_lanes(model: RobotModel, q: np.ndarray) -> np.ndarray:
    """``chain_stack`` of each configuration in a (V, n) stack, as one (n +
    1, V, 4, 4) frame stack: lane v, ``walk[:, v]``, is ``chain_stack(model,
    q[v])`` to the bit. The lane axis follows the frame index, so every
    running product is still one 4 x 4 matmul per lane.
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
    if not model._identity_tool:
        frames[n] = frames[n] @ model.tool
    return frames


def forward_kinematics(model: RobotModel, q: np.ndarray) -> np.ndarray:
    """Base-to-TCP pose: the DH chain product composed with the tool transform."""
    return chain_stack(model, q)[model.n]


def jacobian_from_frames(
    p_tcp: np.ndarray, axes: np.ndarray, origins: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The (6, n) Jacobian of a chain walk's (n, 3) axes and origins about
    the TCP point ``p_tcp`` (column i is ``[w_i x (p_tcp - o_i); w_i]``),
    and the (12, n) buffer ``rolled`` it is rows 2:8 of.

    ``rolled`` holds the linear rows v and the angular rows w (the axes) in
    the component order 1 2 0 1 2 | 0 1 2 0 1 2 0. The cross product runs on
    its last seven rows and a seven-row buffer of lever arms in the order
    0 1 2 0 1 2 0, and writes the linear rows already rolled. So rows 0:4
    and 6:10 are v and w rolled by one, the operands
    ``rolled_hessian_product`` crosses, and rows 2:8 are [v0 v1 v2 w0 w1 w2].

    A lane stack, (L, n, 3) axes and origins and (L, 3) TCP points, gives
    (6, n, L) and (12, n, L), with each lane rounded as its own call.
    """
    # (n,) for one walk, (n, L) for a lane stack: the shape of a row of axes.T
    shape = origins.shape[-2::-1]
    rolled, arms = np.empty((12,) + shape), np.empty((7,) + shape)
    rolled[5:8] = axes.T
    rolled[8:11] = rolled[5:8]
    rolled[11] = rolled[5]
    np.subtract(p_tcp.T[:, None], origins.T, out=arms[:3])
    arms[3:6] = arms[:3]
    arms[6] = arms[0]
    # component k of w x arm, w[k+1] arm[k+2] - w[k+2] arm[k+1], for k = 1..5
    np.subtract(rolled[7:] * arms[:5], rolled[5:10] * arms[2:], out=rolled[:5])
    return rolled[2:8], rolled


def geometric_jacobian(model: RobotModel, q: np.ndarray) -> np.ndarray:
    """6 x n geometric Jacobian in the base frame about the TCP point.

    Column i is ``[z_{i-1} x (p_tcp - p_{i-1}); z_{i-1}]``.
    """
    frames, n = chain_stack(model, q), model.n
    return jacobian_from_frames(frames[n, :3, 3], frames[:n, :3, 2], frames[:n, :3, 3])[0]


def rolled_hessian_product(rolled: np.ndarray, dq: np.ndarray) -> np.ndarray:
    """``H dq``, the Jacobian's derivative along the joint step ``dq``,
    without building the n x n Hessian: (6, n) from the (12, n) ``rolled``
    rows of a chain walk's ``jacobian_from_frames`` and the (n,) ``dq``, or
    (6, n, L) from a lane stack's (12, n, L) rows and (n, L) steps, each
    lane rounded as its own call.

    The Hessian's cells are dw_i/dq_j = w_j x w_i and dv_i/dq_j = w_j x v_i
    for j <= i, and dw_i/dq_j = 0 and dv_i/dq_j = w_i x v_j for j > i, where
    w_i are the axes and v_i the Jacobian's linear column halves; summing
    them along dq gives column i as ``[W_i x v_i + w_i x S_i; W_i x w_i]``
    with ``W_i = sum_{j<=i} dq_j w_j`` and ``S_i = sum_{j>i} dq_j v_j``.
    Rows 6:10 and 0:4 of ``rolled`` are w and v rolled by one (components
    1 2 0 1), so W and S come out rolled from their running sums and
    component k of a cross product a x b, a[k+1] b[k+2] - a[k+2] b[k+1], is
    ``a[k] b[k+1] - a[k+1] b[k]`` on rows 0:4 of the rolled factors. Every
    w_i comes from the axes, so zero axes give exact zeros.
    """
    w, v = rolled[6:10], rolled[:4]
    sum_w = np.add.accumulate(w * dq, 1)
    # S_i sums from the chain's far end; S_{n-1} is empty
    sum_v = np.empty(v.shape)
    np.add.accumulate((v * dq)[:, :0:-1], 1, out=sum_v[:, -2::-1])
    sum_v[:, -1] = 0.0
    out = np.empty((6, *dq.shape))
    np.subtract(sum_w[:3] * w[1:], sum_w[1:] * w[:3], out=out[3:])
    np.add(
        sum_w[:3] * v[1:] - sum_w[1:] * v[:3],
        w[:3] * sum_v[1:] - w[1:] * sum_v[:3],
        out=out[:3],
    )
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

