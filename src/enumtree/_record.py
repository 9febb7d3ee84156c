"""Frozen value records, without the start-up cost of importing dataclasses.

A record's fields are its __slots__, bound in order by Record.__init__ alone: a
record with checks calls it after them, or before them where they print the record.
_fields() reads them in order, and equality, hashing, repr and pickling all go
by it.  at_least is the one check of every bounded integer argument, in one message.
"""

set_field = object.__setattr__


def at_least(name: str, value, least: int, error: type = ValueError) -> None:
    """Raise error naming value unless it is an integer >= least."""
    if not (isinstance(value, int) and value >= least):
        raise error(f"{name} must be an integer >= {least}, got {value!r}")


def _frozen(message: str):
    from dataclasses import FrozenInstanceError  # only on this error path

    raise FrozenInstanceError(message)


class Record:
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        given = dict(zip(names, args), **kwargs)  # extra or repeated args vanish here
        if len(given) != len(args) + len(kwargs) or given.keys() != set(names):
            raise TypeError(f"{self.__class__.__qualname__}() takes each of {names} once")
        for name in names:
            set_field(self, name, given[name])

    def _fields(self) -> tuple:
        return tuple(getattr(self, k) for k in self.__slots__)

    def __setattr__(self, name, value):
        _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        _frozen(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._fields()))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._fields()
