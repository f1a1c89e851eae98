"""Rigid-body math: rotations, homogeneous transforms, the SO(3) exp/log
maps; and the one reader and writer of the pose and number records that
files hold.

Conventions, fixed project-wide:

- Poses are 4x4 homogeneous transforms (rotation matrix + translation in mm).
- Twists are 6-vectors packed ``[linear; angular]`` (mm, rad).
- A pose record is ``{pos_mm, quat}`` or ``{pos_mm, rot}``: a unit
  quaternion ``(x, y, z, w)`` or a 3x3 row-major rotation matrix, never
  both. ``pose_record`` writes the matrix, which JSON's shortest-repr floats
  give back bit for bit; a quaternion would not. Every number in a record,
  and every array ``finite_numbers`` reads, must be a finite JSON number.
"""

from __future__ import annotations

import sys
from dataclasses import fields

import numpy as np

from .errors import InvalidRotation, ParseError, RotationNearPi

# Below this angle (rad) trig ratios switch to their Taylor expansions.
SMALL_ANGLE = 1e-6

# Log map is refused within this margin of pi, where it is non-unique.
PI_MARGIN = 1e-6


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, each rounded as ``np.dot`` of one row
    (``(a * b).sum(-1)`` and ``np.linalg.norm(v, axis=-1)`` are not): the
    form that lets a stack of vectors round as each vector does alone."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def skew(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric cross-product matrix of a 3-vector."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def unskew(m: np.ndarray) -> np.ndarray:
    """Extract the 3-vector from a skew-symmetric matrix."""
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def rot_x(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def make_pose(rotation: np.ndarray, translation: np.ndarray) -> np.ndarray:
    """Assemble a 4x4 homogeneous transform from a 3x3 rotation and 3-vector."""
    pose = np.eye(4)
    pose[:3, :3] = rotation
    pose[:3, 3] = translation
    return pose


def pose_inverse(pose: np.ndarray) -> np.ndarray:
    """Analytic inverse of a homogeneous transform."""
    rot_t = pose[:3, :3].T
    inv = np.eye(4)
    inv[:3, :3] = rot_t
    inv[:3, 3] = -rot_t @ pose[:3, 3]
    return inv


def is_rotation(matrix: np.ndarray, tol: float = 1e-10) -> bool:
    """True if ``matrix`` is orthonormal with determinant +1 within ``tol``."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (3, 3):
        return False
    if not np.allclose(matrix.T @ matrix, np.eye(3), atol=tol):
        return False
    return abs(np.linalg.det(matrix) - 1.0) <= tol


def so3_exp(omega: np.ndarray) -> np.ndarray:
    """Rotation matrix from a rotation vector (Rodrigues' formula)."""
    theta = np.linalg.norm(omega)
    k = skew(omega)
    if theta < SMALL_ANGLE:
        return np.eye(3) + k + 0.5 * (k @ k)
    a = np.sin(theta) / theta
    b = (1.0 - np.cos(theta)) / (theta * theta)
    return np.eye(3) + a * k + b * (k @ k)


def so3_log(rotation: np.ndarray) -> np.ndarray:
    """Rotation vector of a rotation matrix.

    Raises RotationNearPi within PI_MARGIN of a half-turn, where the axis
    sign is ambiguous. The matrix is read once as Python floats, and the
    trace, the clamp, the vee and theta / sin(theta) are formed on them;
    only the arccos and the sine are numpy's, so every entry rounds as the
    same formula on numpy scalars does. A NaN entry passes through as NaN.
    """
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rotation.tolist()
    c = 0.5 * (r00 + r11 + r22 - 1.0)
    theta = float(np.arccos(-1.0 if c < -1.0 else 1.0 if c > 1.0 else c))
    if theta >= np.pi - PI_MARGIN:
        raise RotationNearPi(f"rotation angle {theta:.9f} rad is within {PI_MARGIN} of pi")
    vee = ((r21 - r12) * 0.5, (r02 - r20) * 0.5, (r10 - r01) * 0.5)
    if theta < SMALL_ANGLE:
        return np.array(vee)
    k = theta / float(np.sin(theta))
    return np.array((k * vee[0], k * vee[1], k * vee[2]))


def quat_to_rot(quat: np.ndarray) -> np.ndarray:
    """Rotation matrix from a unit quaternion ``(x, y, z, w)``."""
    x, y, z, w = quat
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def finite_numbers(record: dict, key: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """``record[key]`` as a float array of ``shape`` (a list of any length
    when None), once every entry is a finite number: not null, a string, a
    boolean, NaN or infinite. Raises ParseError naming ``key``."""
    if key not in record:
        raise ParseError(f"missing {key}")
    value = record[key]
    items = np.array(value, dtype=object)
    # type(), not isinstance: bool is an int; the comparison is exact for any int
    if (items.ndim == 1 if shape is None else items.shape == shape) and all(
        type(x) in (int, float) and abs(x) <= sys.float_info.max for x in items.flat
    ):
        return items.astype(float)
    if shape is None:
        count = "a list of numbers"
    else:
        count = " x ".join(map(str, shape)) + " numbers" if shape else "a number"
    raise ParseError(f"{key} must be {count}, got {value!r}")


def pose_from_record(record) -> np.ndarray:
    """The 4x4 pose of a ``{pos_mm, quat}`` or ``{pos_mm, rot}`` record.

    The quaternion must have unit norm and the matrix be a rotation, each
    within 1e-6; the quaternion is normalised. Raises ParseError, or its
    subclass InvalidRotation for a rotation that is not one.
    """
    if not isinstance(record, dict):
        raise ParseError(f"a pose record must be an object, got {record!r}")
    if "quat" in record and "rot" in record:
        raise ParseError("a pose record takes quat or rot, not both")
    position = finite_numbers(record, "pos_mm", (3,))
    if "rot" in record:
        rotation = finite_numbers(record, "rot", (3, 3))
        if not is_rotation(rotation, tol=1e-6):
            raise InvalidRotation("rot is not orthonormal with det +1")
    elif "quat" in record:
        quat = finite_numbers(record, "quat", (4,))
        norm = float(np.linalg.norm(quat))
        if abs(norm - 1.0) > 1e-6:
            raise InvalidRotation(f"quaternion norm {norm} deviates from 1")
        rotation = quat_to_rot(quat / norm)
    else:
        raise ParseError("a pose record needs a quat or rot field")
    return make_pose(rotation, position)


def pose_record(pose: np.ndarray) -> dict:
    """A 4x4 pose as the ``{pos_mm, rot}`` record that ``pose_from_record``
    reads back bit for bit."""
    return {"pos_mm": pose[:3, 3].tolist(), "rot": pose[:3, :3].tolist()}


class _ValueEquality:
    """``==`` and ``hash`` by value for a frozen dataclass declared with
    ``eq=False`` whose fields may hold arrays: an array field counts as its
    shape and values, where the generated methods would compare or hash the
    array object and raise."""

    def _key(self) -> tuple:
        values = (getattr(self, f.name) for f in fields(self))
        return tuple(
            (v.shape, tuple(v.ravel().tolist())) if isinstance(v, np.ndarray) else v
            for v in values
        )

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())
