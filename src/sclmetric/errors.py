"""Exception hierarchy shared across the package.

The CLI maps these onto distinct exit codes (config 2, data 3, numeric 4),
so library code should raise the most specific class that applies.
"""

import functools
import numbers
import typing


class SclMetricError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(SclMetricError):
    """Invalid configuration value or malformed config file."""


class DataError(SclMetricError):
    """Problems with datasets, mining preconditions, or stored artifacts."""


class ParseError(DataError):
    """Malformed embedding CSV; the message names the offending line."""


class ProtocolError(DataError):
    """Split or evaluation-protocol precondition violated."""


class MiningError(DataError):
    """Set/pair/triplet mining cannot proceed on this dataset."""


class DimensionMismatchError(DataError):
    """Vectors or parameter shapes that must agree do not."""


class CheckpointError(DataError):
    """Unreadable, corrupt, or version-incompatible checkpoint file."""


class NumericError(SclMetricError):
    """Non-finite values in training or in evaluation's distances."""


@functools.cache
def _integer_hints(cls) -> dict:
    """The ``int`` and ``tuple[int, ...]`` field annotations of a dataclass, resolved once per class."""
    return {name: hint for name, hint in typing.get_type_hints(cls).items() if hint in (int, tuple[int, ...])}


def check_integer_fields(config) -> None:
    """Raise ConfigError if a config dataclass's ``int`` or ``tuple[int, ...]``
    field holds a non-integer such as ``1.5``; bools and numpy integers pass."""
    for name, hint in _integer_hints(type(config)).items():
        value = getattr(config, name)
        if hint == int and not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        if hint == tuple[int, ...] and not all(isinstance(v, numbers.Integral) for v in tuple(value)):
            raise ConfigError(f"{name} must be integers, got {tuple(value)}")
