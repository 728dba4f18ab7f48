"""Exception hierarchy shared across the package.

Everything user-facing derives from GuidanceError so the CLI can map
validation failures to exit code 1 while letting real I/O errors
(OSError) surface as exit code 2.
"""

from __future__ import annotations


class GuidanceError(Exception):
    """Base class for all validation and state errors in this package."""


class ConfigError(GuidanceError):
    """A parameter or config file violates a documented constraint."""


class ScriptError(ConfigError):
    """A scenario script or study plan is malformed."""


class InvalidDirectionError(GuidanceError):
    """A vector that must be unit-length is not, beyond tolerance."""


class DegenerateGeometryError(GuidanceError):
    """Target coincides with the observer; no direction is defined."""


class ConcurrentSignalError(GuidanceError):
    """A new signal arrived while a guidance session was still active."""


class TraceOrderError(GuidanceError):
    """Pose timestamps handed to a session went backwards."""


class TraceIntegrityError(GuidanceError):
    """A trace line is malformed, or a trace has an impossible session sequence."""
