"""The package's two error types, and the type rules of every argument.

A ``ConfigError`` is for a value the caller chose: a size, tau, kappa,
budget, accuracy, prior, method, draw source or path.  A ``DataError`` is
for a value that was read or observed: a label value, an id, a vote list,
truth labels, estimate coverage or a file's contents.  Both are
``ValueError``s, so ``except ValueError`` still catches them.  Any other
exception the package raises marks a bug.
"""

import numbers
import os
from pathlib import Path


class GtxError(Exception):
    """Base class of the package's errors."""


class ConfigError(GtxError, ValueError):
    """An invalid value the caller chose; the message lists every violation found."""


class DataError(GtxError, ValueError):
    """An invalid value that was read or observed."""


def is_int(v) -> bool:
    """An integer argument: an int or a numpy integer, and not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_number(v) -> bool:
    """A real argument: an int, a float or a numpy scalar of either, and not a bool."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def as_path(path) -> Path:
    """A file or directory argument: a str or an os.PathLike, as a Path."""
    if not isinstance(path, (str, os.PathLike)):
        raise ConfigError(f"a path must be a str or an os.PathLike, got {type(path).__name__}")
    return Path(path)
