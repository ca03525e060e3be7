"""Shared exception types.

ParseError marks malformed graph input, GuardError marks a size guard that
refused to run. The CLI maps these to distinct exit codes.
"""


class ParseError(ValueError):
    """Malformed graph text (bad header, bad arc line, out-of-range id)."""


class GuardError(RuntimeError):
    """Instance exceeds a documented size guard for this operation."""

