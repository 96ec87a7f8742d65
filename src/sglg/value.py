"""Immutable value classes: the part of a frozen dataclass that sglg uses.

A subclass declares its fields as class annotations, in order, with any
default as the class attribute. It gets a constructor by position or
keyword that then calls ``__post_init__``; equality and hash by type and
fields; a ``Name(field=value, ...)`` repr; and ``AttributeError`` on
assignment or deletion. Fields live in the instance ``__dict__``, beside
what ``functools.cached_property`` stores. A class built once per state
or atom defines an ``__init__`` that fills ``__dict__`` directly, at a
third of the generic one's cost. Nothing is generated per class, where
``dataclasses`` compiles six methods per class and imports ``inspect``.
"""

from __future__ import annotations


class Value:
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__annotations__  # this class's own, on Python 3.10+
        cls._fields = (*cls._fields, *own)
        defaults = {f: cls.__dict__[f] for f in own if f in cls.__dict__}
        cls._defaults = {**cls._defaults, **defaults}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        given = dict(zip(fields, args))
        if len(args) > len(fields) or not given.keys().isdisjoint(kwargs):
            raise TypeError(f"{type(self).__name__}() takes each of {fields} once")
        values = {**self._defaults, **given, **kwargs}
        if values.keys() != set(fields):
            wrong = sorted(values.keys() ^ set(fields))
            raise TypeError(f"{type(self).__name__}() missing or unknown fields {wrong}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate the fields; by default any values pass."""

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash((self.__class__, *self._values()))

    def __repr__(self) -> str:
        shown = map("{}={!r}".format, self._fields, self._values())
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
