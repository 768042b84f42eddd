"""Exception hierarchy shared by all opacue modules."""


class OpacueError(Exception):
    """Base class for the errors this package raises on bad input or an
    exceeded resource cap."""


class ParseError(OpacueError):
    """Input document is malformed (bad JSON, wrong shape, wrong types)."""


class ValidationError(OpacueError):
    """Input document is well-formed but violates a model invariant."""


class DimensionError(OpacueError):
    """Output vectors (or systems) disagree on output dimension."""


class ResourceError(OpacueError):
    """A configurable resource cap (state count) was exceeded."""


class QuantizationError(OpacueError):
    """A grid step is too coarse for the region it must sample."""


class DomainError(OpacueError):
    """Dynamics evaluation left the admissible state region, a plant's
    successor or output is not finite (`state` and `inp` name the point and
    the input), or a sampled slack is not finite."""

    def __init__(self, message, state=None, inp=None):
        super().__init__(message)
        self.state = state
        self.inp = inp


class PrecisionError(OpacueError):
    """Relation precision and measurement threshold are incompatible."""


class SmallGainError(OpacueError):
    """The small-gain condition failed, so composition is not licensed."""


class InternalError(Exception):
    """A condition the code guarantees failed: a defect in opacue, not in
    its input. Not an OpacueError, so it is never mistaken for one."""
