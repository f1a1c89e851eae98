import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frik.errors import RotationNearPi
from frik.liegroup import (
    is_rotation,
    make_pose,
    pose_inverse,
    quat_to_rot,
    rot_x,
    rot_z,
    se3_exp,
    se3_log,
    skew,
    so3_exp,
    so3_log,
)

from conftest import twist_rotation


def series_matrix_exp(m: np.ndarray, terms: int = 30) -> np.ndarray:
    """Truncated power-series matrix exponential; independent oracle."""
    out = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for k in range(1, terms):
        term = term @ m / k
        out = out + term
    return out


def twist_hat(xi: np.ndarray) -> np.ndarray:
    h = np.zeros((4, 4))
    h[:3, :3] = skew(xi[3:])
    h[:3, 3] = xi[:3]
    return h


def axis_strategy():
    return (
        st.tuples(
            st.floats(-1, 1, allow_nan=False),
            st.floats(-1, 1, allow_nan=False),
            st.floats(-1, 1, allow_nan=False),
        )
        .map(np.array)
        .filter(lambda v: np.linalg.norm(v) > 1e-2)
        .map(lambda v: v / np.linalg.norm(v))
    )


def twist_strategy(max_angle=np.pi - 0.01, max_linear=2000.0):
    return st.tuples(
        axis_strategy(),
        st.floats(0.0, max_angle, allow_nan=False),
        st.tuples(
            st.floats(-max_linear, max_linear, allow_nan=False),
            st.floats(-max_linear, max_linear, allow_nan=False),
            st.floats(-max_linear, max_linear, allow_nan=False),
        ).map(np.array),
    ).map(lambda t: np.concatenate([t[2], t[1] * t[0]]))


def test_log_of_identity_is_zero():
    assert np.allclose(se3_log(np.eye(4)), np.zeros(6), atol=1e-15)


def test_log_of_pure_translation():
    pose = make_pose(np.eye(3), np.array([1.0, 2.0, 3.0]))
    xi = se3_log(pose)
    assert np.allclose(xi, [1.0, 2.0, 3.0, 0.0, 0.0, 0.0], atol=1e-14)


def test_log_quarter_turn_about_z():
    pose = make_pose(rot_z(np.pi / 2), np.zeros(3))
    xi = se3_log(pose)
    assert np.allclose(xi[:3], 0.0, atol=1e-14)
    assert np.allclose(xi[3:], [0.0, 0.0, np.pi / 2], atol=1e-12)
    reconstructed = series_matrix_exp(twist_hat(xi))
    assert np.abs(reconstructed - pose).max() < 1e-9


def test_exp_of_zero_twist():
    assert np.allclose(se3_exp(np.zeros(6)), np.eye(4), atol=1e-15)


def test_exp_half_turn_about_z():
    pose = se3_exp(np.array([0.0, 0.0, 0.0, 0.0, 0.0, np.pi]))
    expected = make_pose(np.diag([-1.0, -1.0, 1.0]), np.zeros(3))
    assert np.abs(pose - expected).max() < 1e-12


def test_exp_matches_series_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        xi = np.concatenate([rng.uniform(-100, 100, 3), 0.3 * axis])
        assert np.abs(se3_exp(xi) - series_matrix_exp(twist_hat(xi))).max() < 1e-10


def test_log_raises_near_pi():
    pose = make_pose(rot_x(np.pi - 1e-8), np.zeros(3))
    with pytest.raises(RotationNearPi):
        se3_log(pose)


def test_so3_log_clamps_the_cosine_and_passes_nan():
    # 0.5 (trace - 1) one ulp beyond +-1 is round-off: a zero turn, or a
    # half-turn, which is refused
    ulp_above = np.diag([1.0 + 2.0**-51, 1.0, 1.0])
    assert 0.5 * (ulp_above[0, 0] + ulp_above[1, 1] + ulp_above[2, 2] - 1.0) == 1.0 + 2.0**-52
    assert np.array_equal(so3_log(ulp_above), np.zeros(3))
    ulp_below = np.diag([-1.0, -1.0, 1.0 - 2.0**-51])
    assert 0.5 * (ulp_below[0, 0] + ulp_below[1, 1] + ulp_below[2, 2] - 1.0) == -1.0 - 2.0**-52
    with pytest.raises(RotationNearPi):
        so3_log(ulp_below)
    # a NaN cosine is not clamped: NaN comes out, not RotationNearPi
    assert np.isnan(so3_log(np.full((3, 3), np.nan))).all()


@settings(max_examples=300, deadline=None)
@given(twist_strategy())
def test_exp_log_round_trip(xi):
    pose = se3_exp(xi)
    assert np.abs(se3_exp(se3_log(pose)) - pose).max() < 1e-8


@settings(max_examples=200, deadline=None)
@given(axis_strategy(), st.floats(0, np.pi - 0.01, allow_nan=False))
def test_log_exp_twist_round_trip(axis, angle):
    xi = np.concatenate([np.array([10.0, -20.0, 5.0]), angle * axis])
    assert np.abs(se3_log(se3_exp(xi)) - xi).max() < 1e-9


def test_twist_rotation_identity():
    assert np.array_equal(twist_rotation(np.eye(3)), np.eye(6))


def test_twist_rotation_blocks_are_transposed():
    rd = rot_z(np.pi / 2)
    tr = twist_rotation(rd)
    assert np.array_equal(tr[:3, :3], rd.T)
    assert np.array_equal(tr[3:, 3:], rd.T)
    # off-diagonal blocks identically zero, not just small
    assert np.array_equal(tr[:3, 3:], np.zeros((3, 3)))
    assert np.array_equal(tr[3:, :3], np.zeros((3, 3)))


@settings(max_examples=200, deadline=None)
@given(axis_strategy(), st.floats(0, np.pi - 0.01, allow_nan=False), twist_strategy())
def test_twist_rotation_preserves_norm(axis, angle, v):
    rd = so3_exp(angle * axis)
    tr = twist_rotation(rd)
    assert abs(np.linalg.norm(tr @ v) - np.linalg.norm(v)) < 1e-12 * max(
        1.0, np.linalg.norm(v)
    )
    assert np.allclose(tr.T @ tr, np.eye(6), atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(twist_strategy(max_angle=2.0), twist_strategy(max_angle=2.0))
def test_log_of_relative_pose_zero_iff_equal(xi_a, xi_b):
    a = se3_exp(xi_a)
    b = se3_exp(xi_b)
    assert np.abs(se3_log(a @ pose_inverse(a))).max() < 1e-9
    rel = se3_log(a @ pose_inverse(b))
    if np.abs(a - b).max() > 1e-6:
        assert np.linalg.norm(rel) > 1e-9


def test_pose_inverse_round_trip():
    pose = make_pose(rot_z(0.7) @ rot_x(-0.3), np.array([100.0, -50.0, 30.0]))
    assert np.abs(pose @ pose_inverse(pose) - np.eye(4)).max() < 1e-9


def test_quat_to_rot_matches_so3_exp():
    # a turn by theta about a unit axis is the quaternion
    # (sin(theta/2) axis, cos(theta/2)), and so3_exp's matrix
    rng = np.random.default_rng(11)
    for _ in range(200):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(0, np.pi)
        r = quat_to_rot(np.append(np.sin(0.5 * angle) * axis, np.cos(0.5 * angle)))
        assert np.abs(r - so3_exp(angle * axis)).max() < 1e-12
        assert is_rotation(r, tol=1e-10)
