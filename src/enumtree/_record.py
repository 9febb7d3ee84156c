"""Frozen value records, without the start-up cost of importing dataclasses.

A record's fields are its __slots__, which its own __init__ fills with
set_field; equality, hashing, repr and pickling go by the fields in order.
"""

set_field = object.__setattr__


def _frozen(message: str):
    from dataclasses import FrozenInstanceError  # only on this error path

    raise FrozenInstanceError(message)


def _by_value(cls: type) -> type:
    """Give cls the __eq__ and __hash__ that dataclass would generate.

    They read the fields inline, twice as fast as a generic getter; a class
    compiles them at its first comparison, so imports do not pay for them.
    """
    this = "(" + "".join(f"self.{k}, " for k in cls.__slots__) + ")"
    methods: dict = {}
    exec(
        "def __eq__(self, other):\n"
        "    if other.__class__ is self.__class__:\n"
        f"        return {this} == {this.replace('self.', 'other.')}\n"
        "    return NotImplemented\n"
        f"def __hash__(self):\n    return hash({this})\n",
        methods,
    )
    cls.__eq__, cls.__hash__ = methods["__eq__"], methods["__hash__"]
    return cls


class Record:
    __slots__ = ()

    def __setattr__(self, name, value):
        _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        _frozen(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return _by_value(self.__class__).__eq__(self, other)

    def __hash__(self):
        return _by_value(self.__class__).__hash__(self)

    def __repr__(self):
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, k) for k in self.__slots__)
