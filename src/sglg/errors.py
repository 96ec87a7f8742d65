"""Exception types shared by the whole toolchain.

Two families matter to callers: :class:`LogicFileError` means the input file
itself is malformed (the CLI exits with status 2), while
:class:`ValidationError` and its subclasses mean the input parsed fine but a
semantic check failed (CLI exit status 1).
"""

from __future__ import annotations


class LogicFileError(ValueError):
    """A logic file or vector file could not be parsed."""

    def __init__(self, message: str, location: str | None = None):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


class ValidationError(ValueError):
    """Base class for semantic failures on well-formed inputs."""


class PinnedStatesError(ValidationError):
    """A pinned state list is inadmissible or does not match the enumeration."""


class NotSeparatingError(ValidationError):
    """Two atoms have identical supports under the given states."""

    def __init__(self, first: str, second: str):
        self.witness = (first, second)
        super().__init__(
            f"not separating: atoms {first!r} and {second!r} have identical supports"
        )


class EmptyStateSetError(ValidationError):
    """The logic admits no two-valued states, so nothing can be compiled."""


class NotAPartitionError(ValidationError):
    """A context's supports fail to partition the state labels."""


class MissingPaletteEntryError(ValidationError):
    """A render palette lacks a color for some state label."""

    def __init__(self, label: str):
        self.label = label
        super().__init__(f"palette has no color for state label {label!r}")


class ThetaOutOfRangeError(ValidationError):
    """The rotation angle must lie strictly between 0 and pi/2."""


class MissingVectorError(ValidationError):
    """A vector realization does not cover every atom of the logic."""

    def __init__(self, atom: str):
        self.atom = atom
        super().__init__(f"realization has no vector for atom {atom!r}")
