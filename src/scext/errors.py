"""Exception types shared across the package."""

from __future__ import annotations


class ScextError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ScextError, ValueError):
    """A caller-supplied value violates a documented precondition."""


class ConfigError(InputError):
    """Bad scenario config, knob or flag; the command line exits with 2."""


class DimensionError(InputError):
    """Mismatched or unsupported dimension."""


class EvaluationError(ScextError):
    """A function could not be evaluated at the requested point."""


class SamplingError(ScextError):
    """No admissible sample could be drawn within the retry budget."""


class IsolationError(SamplingError):
    """No admissible interior point exists near the probe point."""


class PartitionError(ScextError):
    """Partition-of-unity weights fail their defining properties."""


class DegenerateDirectionError(ScextError):
    """The normal cone at the chosen point is degenerate ({0})."""
