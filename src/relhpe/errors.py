"""Exception types shared across the package, and the check of a count or seed."""


class RelHpeError(Exception):
    """Base class for all package errors."""


class FrameMismatch(RelHpeError):
    """Two poses expressed in different coordinate frames were combined."""


class EmptyInput(RelHpeError):
    """An operation received an empty sequence where at least one item is required."""


class DomainError(RelHpeError, ValueError):
    """An argument lies outside the domain of the operation.

    Also a ValueError, so callers that catch ValueError keep working.
    setting names the offending argument when it is one setting (the CLI
    then names where that setting's value came from).
    """

    def __init__(self, message, setting=None):
        super().__init__(message)
        self.setting = setting


def whole(setting, value):
    """value if it is a non-negative integer (an int or a numpy integer, not
    a bool); else a DomainError about setting."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__") or value < 0:
        raise DomainError(f"{setting} must be a non-negative integer, got {value!r}",
                          setting=setting)
    return value


class InvalidCrop(RelHpeError):
    """Crop specification is degenerate or does not intersect the image."""


class EmptyStages(RelHpeError):
    """Multi-stage loss called with no stage predictions."""


class NonContiguousStages(RelHpeError):
    """Stage indices are not exactly 1..K."""


class StageCountMismatch(RelHpeError):
    """Predicted and ground-truth stage files disagree on the number of stages."""


class MissingPredictions(RelHpeError):
    """Anchor policy needs estimator output that was not supplied."""


class MissingPrediction(RelHpeError):
    """A query in the pair set has no prediction."""

    def __init__(self, query_id):
        super().__init__(f"no prediction for query {query_id!r}")
        self.query_id = query_id


class UnknownFrame(RelHpeError):
    """A frame id is not in the pose log it was looked up in."""


class ParseError(RelHpeError):
    """Malformed input file; message carries line/field context."""


class InvariantViolation(RelHpeError):
    """Parsed data violates a declared invariant (e.g. non-unit quaternion)."""


class MissingCalibration(RelHpeError):
    """BIWI subject directory lacks the calibration file."""


class MalformedPoseFile(RelHpeError):
    """BIWI per-frame pose file does not contain a 3x3 rotation plus translation."""


class InsufficientFrames(RelHpeError):
    """Not enough neutral/extreme frames to build the requested pair set."""

    def __init__(self, message, n_neutral=0, n_extreme=0):
        super().__init__(message)
        self.n_neutral = n_neutral
        self.n_extreme = n_extreme


class EmptyRange(RelHpeError):
    """Pose sampler range is empty or inverted."""
