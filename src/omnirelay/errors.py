"""Exception types shared across the package."""


class ModelViolationError(ValueError):
    """A channel-model assumption does not hold (e.g. gain grows with distance)."""


class CapacityLimitError(ValueError):
    """Problem size exceeds the exact-computation limit of an operation.

    Raised only by the exhaustive binning verifier,
    ``binning.verify_binning_property``.
    """


class PreconditionError(ValueError):
    """An operation was invoked on an input outside its declared domain."""


class DecodeError(RuntimeError):
    """Side information is inconsistent with a received bin index."""


class TopologyFormatError(ValueError):
    """A topology description file could not be parsed."""
