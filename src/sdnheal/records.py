"""What the package's records share beyond `typing.NamedTuple`.

Every record is a NamedTuple: immutable, compared, hashed and printed
field by field, and built without generating code at import. A record
that checks or normalizes its fields, or caches values with
`functools.cached_property`, is a subclass of its NamedTuple that derives
from `Frozen` first:

    class _Link(NamedTuple):
        id: str
        ...

    class Link(Frozen, _Link):
        __slots__ = ()  # left out by a record that caches: it needs a __dict__

        def __new__(cls, *args, **kwargs):
            link = super().__new__(cls, *args, **kwargs)
            ...  # raise, or build the normalized tuple with tuple.__new__

Nothing here imports the package.
"""

from __future__ import annotations


class Frozen:
    """A NamedTuple subclass that checks in `__new__` and may cache.

    `_replace` builds through `_make`, which a NamedTuple runs without
    `__new__`; here `_make` calls the class, so a replaced record is
    checked and normalized as a new one is. A subclass without
    `__slots__` has a `__dict__` for `cached_property`, which writes it
    directly; every other assignment raises, as on the NamedTuple itself.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
