"""Exception hierarchy shared across the package.

Everything user-facing derives from GuidanceError so the CLI can map
validation failures to exit code 1 while letting real I/O errors
(OSError) surface as exit code 2. checked makes a NamedTuple class raise
them where a value is built.
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


def checked(fields: type) -> type:
    """The NamedTuple class fields as a subclass of the same name whose
    constructor, _make and _replace (through _make) run fields._check on each
    new value: it raises on a bad one and returns the value to keep in its
    place, or None to keep the value built. typing.NamedTuple allows neither
    __new__ nor _make in a class body, nor, before 3.11, a second base."""
    new, make, check = fields.__new__, fields._make.__func__, fields._check

    def __new__(cls, *args, **kwargs):
        value = new(cls, *args, **kwargs)
        return value if (kept := check(value)) is None else kept

    def _make(cls, iterable):
        value = make(cls, iterable)  # checks the length
        return value if (kept := check(value)) is None else kept

    return type(fields.__name__, (fields,), dict(__slots__=(), __doc__=fields.__doc__, __module__=fields.__module__,
                                                 __new__=__new__, _make=classmethod(_make)))
