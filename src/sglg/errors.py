"""Exception types shared by the whole toolchain.

Each error sglg reports about its input is an :class:`SglgError`, whose
``location`` names the place at fault: a key path into the file such as
``states[2]`` or ``atoms[4]``, a flag such as ``--theta``, or ``None`` for
the file as a whole. The CLI prints it as the one line
``sglg: error: <location>: <message>``. In a base-set file, which has
no atom list, ``atoms[i]`` is its i-th distinct block, column i of
``sglg states``. Two families matter to callers: :class:`LogicFileError`
means the input itself is malformed (the CLI exits with status 2), while
:class:`ValidationError` means the input parsed fine but a semantic check
failed (exit status 1). Its one subclass, :class:`NotSeparatingError`, also
carries the clashing atom pair as ``witness``.
"""

from __future__ import annotations


class SglgError(ValueError):
    """An input sglg cannot use, and the place in it that is at fault."""

    def __init__(self, message: str, location: str | None = None):
        self.location, self.message = location, message
        super().__init__(f"{location}: {message}" if location else message)


class LogicFileError(SglgError):
    """A logic file or vector file could not be parsed."""


class ValidationError(SglgError):
    """A semantic check failed on a well-formed input."""


class NotSeparatingError(ValidationError):
    """Two atoms have identical supports under the given states."""

    def __init__(self, first: str, second: str, location: str):
        self.witness = (first, second)
        super().__init__(
            f"not separating: atoms {first!r} and {second!r} have identical supports",
            location,
        )
