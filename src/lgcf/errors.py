"""Shared exception types, and the type rule of config fields."""

from dataclasses import fields, is_dataclass
from numbers import Integral, Real


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


def check_field_types(config) -> None:
    """DomainError naming the first field of the dataclass config whose
    value does not fit its annotation, by check_type."""
    for f in fields(config):
        check_type(f.name, getattr(config, f.name), f.type)


def check_type(name: str, value, kind) -> None:
    """DomainError naming name unless value fits kind: an int takes an
    Integral, a float a Real and a bool a bool, and a bool is no number; a
    dataclass takes an instance of itself.  Other kinds are not checked
    here."""
    if kind is bool:
        if not isinstance(value, bool):
            raise DomainError(f"{name} must be a bool, got {value!r}")
    elif kind in (int, float):
        if isinstance(value, bool) or not isinstance(value, Real):
            raise DomainError(f"{name} must be a number, got {value!r}")
        if kind is int and not isinstance(value, Integral):
            raise DomainError(f"{name} must be an integer, got {value!r}")
    elif is_dataclass(kind) and not isinstance(value, kind):
        raise DomainError(f"{name} must be a {kind.__name__}, got {value!r}")
