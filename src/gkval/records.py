"""The shared base of gkval's value classes.

A record is a plain class whose public ``__slots__`` are its fields, set
once by an explicit ``__init__``.  It compares, hashes and prints like a
frozen dataclass: equal when the class and the fields are, hashed as the
tuple of the fields, and shown as ``Name(field=value, ...)``.  Private
slots such as a cached hash are not fields.  One record overrides
``__eq__``: ``lfactors.LFactorAtom`` compares one stored key that holds
every field.  Plain classes keep ``dataclasses``, and the ``inspect`` it
imports, out of start-up.
"""

from __future__ import annotations

import operator


class Record:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(n for n in cls.__slots__ if not n.startswith("_"))
        get = operator.attrgetter(*cls._fields)
        # the field tuple, also of a single field, which attrgetter gives bare
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({body})"
