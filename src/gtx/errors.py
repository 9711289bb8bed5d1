"""Exception types shared across the package, and the type rules of the
config values that raise ``ConfigError``."""


class GtxError(Exception):
    """Base class for all package-specific errors."""


class MissingEstimate(GtxError):
    """A label references a labeler with no accuracy estimate."""


class EmptyLabelSet(GtxError):
    """An aggregation rule was asked to aggregate zero labels."""


class DuplicateLabeler(GtxError):
    """Two labels for the same example share a labeler."""


class EmptyAssessment(GtxError):
    """An assessment set with no items."""


class IncompleteAssessment(GtxError):
    """A labeler did not respond to every assessment item."""


class AlreadyLabeled(GtxError):
    """A (example, labeler) pair was labeled twice."""


class ConfigError(GtxError):
    """Invalid configuration; the message lists every violation found."""


def is_int(v) -> bool:
    """An integer config value: a Python int, and not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def is_number(v) -> bool:
    """A real config value: a float or an integer, and not a bool."""
    return isinstance(v, float) or is_int(v)
