"""Exception taxonomy shared across the engine.

The CLI maps these onto process exit codes: usage problems exit 1,
certification failures exit 2, resource guards exit 3.  Anything else
escaping to the top level is a genuine crash and keeps Python's default
behaviour.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(EngineError, ValueError):
    """Malformed user input: type strings, flag combinations, bad files."""


class ResourceGuardError(EngineError):
    """A configured resource bound would be exceeded.

    ``required`` carries the bound that would have been needed, so the
    message can tell the user which flag to raise; it is None when that
    bound is too large to form.
    """

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


class CertificationError(EngineError):
    """A mathematical certification failed; ``witness`` holds the evidence."""

    def __init__(self, check: str, witness=None):
        super().__init__(f"certification failed: {check}")
        self.check = check
        self.witness = witness


class DefectError(EngineError):
    """An internal invariant broke (exact division, transform bookkeeping).

    This always indicates a bug or a convention mismatch inside the
    engine, never bad user input.
    """
