"""Shared exception types."""


class LgcfError(Exception):
    """Base class for errors raised by this package."""


class DomainError(LgcfError, ValueError):
    """Input violates a documented precondition or domain constraint."""


class ParseError(LgcfError, ValueError):
    """A data file failed to parse. Carries the 1-based line number and,
    where the reader names it, the file's path."""

    def __init__(self, message: str, line_no: int | None = None, path=None):
        self.line_no = line_no
        self.path = path
        if line_no is not None:
            message = f"line {line_no}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
