"""Exception hierarchy shared across the toolkit.

Every domain failure derives from CrowdKitError so the CLI can map it to
exit code 1; anything else escaping is a bug.
"""


class CrowdKitError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(CrowdKitError):
    """Malformed input document. Carries the byte offset when known."""

    def __init__(self, message, offset=None):
        super().__init__(message if offset is None else f"{message} (byte offset {offset})")
        self.offset = offset


class SchemaError(CrowdKitError):
    """Keypoint schema mismatch or unknown schema."""


class MappingError(CrowdKitError):
    """Invalid keypoint index mapping."""


class GeometryError(CrowdKitError):
    """Degenerate geometry (e.g. polygon with fewer than 3 vertices)."""


class MaskDecodeError(CrowdKitError):
    """Undecodable PAM or heatmap payload, or an empty mask where content is
    required."""


class InventoryError(CrowdKitError):
    """Cutout inventory missing the requested kind."""


class DimensionError(CrowdKitError):
    """Tensor shape mismatch between compared heatmap stacks."""


class DivergenceError(CrowdKitError):
    """Gradient descent diverged; names the offending learning rate."""


class ProtocolError(CrowdKitError):
    """Evaluation protocol violation (e.g. prediction without a score)."""


class AlignmentError(CrowdKitError):
    """Prediction / ground-truth datasets do not cover the same image ids."""


class UndefinedMetricError(CrowdKitError):
    """Metric has no defined value for this input (no gt keypoints, N = 0, ...)."""


class TargetingError(CrowdKitError):
    """Corpus generation could not reach the target histogram in budget."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class ConfigError(CrowdKitError):
    """Configuration value outside its documented domain."""
