import numpy as np
import pytest

from frik.config import DEFAULT_Q0_DEG, default_workpiece_frame
from frik.robot import chain_frames, irb4600


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
