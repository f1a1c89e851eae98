"""Exception types shared across the package."""

from dataclasses import dataclass


class FrikError(Exception):
    """Base class for all package-specific errors."""


class RotationNearPi(FrikError):
    """Rotation angle is within tolerance of pi, where the log map is non-unique."""


class DimensionMismatch(FrikError):
    """An array argument does not have the expected shape."""


@dataclass(frozen=True)
class PathFailure:
    """Why a toolpath ends at target ``k``: ``not_converged``,
    ``rotation_near_pi``, ``joint_limit`` (1-based ``joint``, ``margin_deg``
    past its limit, < 0) or ``out_of_reach``."""

    kind: str
    k: int
    joint: int | None = None
    margin_deg: float | None = None


class PathFailed(FrikError):
    """A toolpath cannot be run to its end; ``failure`` says where and why."""

    def __init__(self, failure: PathFailure, mode: str = ""):
        super().__init__(failure, mode)
        self.failure = failure

    def __str__(self) -> str:
        failure, mode = self.args
        text = f"{failure.kind} at target {failure.k}"
        if failure.kind == "not_converged":
            text += ": solver did not converge"
        elif failure.joint is not None:
            text += f": J{failure.joint} {-failure.margin_deg:.3f} deg past its limit"
        return f"{mode}: {text}" if mode else text


class OutOfLimits(FrikError):
    """A joint position lies outside the model's joint limits."""


class ParseError(FrikError):
    """A data file could not be parsed; the message carries record diagnostics."""


class InvalidRotation(ParseError):
    """An orientation record is not a valid rotation (e.g. non-unit quaternion)."""
