"""Exception types shared by the whole toolchain.

Two families matter to callers: :class:`LogicFileError` means the input file
itself is malformed (the CLI exits with status 2), while
:class:`ValidationError` means the input parsed fine but a semantic check
failed (CLI exit status 1). Its one subclass, :class:`NotSeparatingError`,
also carries the clashing atom pair as ``witness``.
"""

from __future__ import annotations


class LogicFileError(ValueError):
    """A logic file or vector file could not be parsed."""

    def __init__(self, message: str, location: str | None = None):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


class ValidationError(ValueError):
    """A semantic check failed on a well-formed input."""


class NotSeparatingError(ValidationError):
    """Two atoms have identical supports under the given states."""

    def __init__(self, first: str, second: str):
        self.witness = (first, second)
        super().__init__(
            f"not separating: atoms {first!r} and {second!r} have identical supports"
        )
