"""Exception types shared across the package."""


class MospacesError(Exception):
    """Base class for all package errors."""


class GridMismatchError(MospacesError):
    """A step function or field was used with a grid it does not belong to."""


class UnknownCellError(MospacesError):
    """A cell id does not exist on the grid."""


class PreconditionError(MospacesError):
    """An operation was called outside its stated domain of validity."""


class FloatRangeError(PreconditionError):
    """A quantity that valid inputs define lies beyond the float range."""


class UnboundedNormError(MospacesError):
    """A norm solver exhausted its bracket expansion without crossing."""


class WitnessConstructionError(MospacesError):
    """A failure witness cannot be built on this grid.

    Typically an atomicity obstruction: the construction needs a cell (or
    subset) with small enough mass and none exists.
    """


class VerificationError(MospacesError):
    """A certificate or witness failed its sampling verification."""


class ConfigError(MospacesError):
    """A CLI configuration file could not be parsed or validated."""
