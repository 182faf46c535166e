"""Shared exception base for the package, and the source position it carries."""

from __future__ import annotations

from typing import NamedTuple


class SourceLocation(NamedTuple):
    """Line/column position in the source bytes (1-based line, 0-based column).

    A tuple: it orders by (line, column) and equals the plain tuple.
    """

    line: int = 0
    column: int = 0

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class XbrlError(Exception):
    """Base class for every error raised by xbrlcore.

    ``location`` is where in the input the error was found; line 0 means
    the error has no position.
    """

    def __init__(self, message: str, location: SourceLocation = SourceLocation()):
        super().__init__(message)
        self.location = location
