"""Typed values of decoded JSON documents, checked one way by every loader.

A loader passes each value it reads, with any default already applied
(so a missing required field reads as None), to a `Reader` that raises
the loader's own exception class. A number is a JSON number, never a
boolean or a numeric string, and finite (Python's decoder reads `NaN`
and `Infinity`); no integer exceeds a float's range; an id is a JSON
string; an enum value names a member; an object holds only the keys its
loader declares, if it declares any. Nothing here imports the package.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from typing import AbstractSet, Optional, TypeVar

E = TypeVar("E", bound=Enum)
Keys = Optional[AbstractSet[str]]  # the keys an object may hold; None allows any
_FLOAT_MAX = sys.float_info.max


def _show(value: object) -> str:
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


class Reader:
    """Checks the values of one kind of document, raising `error`."""

    def __init__(self, error: type[Exception]) -> None:
        self.error = error

    def _invalid(self, what: str, expected: str, value: object) -> Exception:
        return self.error(f"{what} must be {expected}: {_show(value)}")

    def object(self, value: object, what: str, keys: Keys = None) -> dict:
        if type(value) is not dict:
            raise self._invalid(what, "a JSON object", value)
        if keys is not None and not value.keys() <= keys:
            raise self.error(f"unknown {what} key: {', '.join(sorted(value.keys() - keys))}")
        return value

    def items(self, value: object, what: str) -> list:
        if type(value) is not list:
            raise self._invalid(what, "a JSON array", value)
        return value

    def versioned(self, value: object, what: str, keys: Keys = None) -> dict:
        """An object, as `object` checks one, at schema-version 1 (the only one)."""
        doc = self.object(value, what, keys)
        version = self.integer(doc.get("schema-version", 1), "schema-version")
        if version != 1:
            raise self.error(f"unsupported schema-version: {version}")
        return doc

    def objects(self, value: object, what: str, keys: Keys = None) -> list:
        """A JSON array of objects, each checked as `object` checks one."""
        for item in self.items(value, f"{what} entries"):
            self.object(item, what, keys)
        return value

    def strings(self, value: object, what: str) -> tuple[str, ...]:
        """A JSON array of strings, such as a list of ids."""
        for item in self.items(value, what):
            if type(item) is not str:
                raise self._invalid(f"every member of {what}", "a string", item)
        return tuple(value)

    def integer(self, value: object, what: str) -> int:
        if type(value) is not int or not -_FLOAT_MAX <= value <= _FLOAT_MAX:
            raise self._invalid(what, "an integer within a float's range", value)
        return value

    def number(self, value: object, what: str) -> float:
        if type(value) is int and -_FLOAT_MAX <= value <= _FLOAT_MAX:
            return float(value)
        if type(value) is not float or not math.isfinite(value):
            raise self._invalid(what, "a finite number", value)
        return value

    def boolean(self, value: object, what: str) -> bool:
        if type(value) is not bool:
            raise self._invalid(what, "a JSON boolean", value)
        return value

    def string(self, value: object, what: str) -> str:
        if type(value) is not str:
            raise self._invalid(what, "a string", value)
        return value

    def member(self, enum: type[E], value: object, what: str) -> E:
        """The member with this value; `what` leads the error message."""
        try:
            return enum(value)
        except ValueError:
            valid = ", ".join(m.value for m in enum)
            raise self.error(f"{what} {_show(value)} (expected one of: {valid})") from None
