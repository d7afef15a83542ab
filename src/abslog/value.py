"""The base of abslog's value classes (terms, shapes, logics, algebras,
parsed blocks and reports).

A value class lists its constructor's parameters, in order, in `_fields`,
and keeps them in `__slots__` where it needs no `__dict__`.  Its
`__init__` makes the class's checks and sets each field with `_set`, or
all of them, in order, with `_init`.  Two values are equal only if of the
exact same class with equal fields, leaving out those in `_uncompared`,
and hash as the tuple of those fields.  The repr is
`Class(field=value, ...)` over the fields not in `_unshown`.  Setting or
deleting an attribute raises AttributeError, and a copy or a pickle is
built by the constructor again, so it is checked again.
"""
from operator import attrgetter

_set = object.__setattr__


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _uncompared: tuple[str, ...] = ()
    _unshown: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        compared = [f for f in cls._fields if f not in cls._uncompared]
        get = attrgetter(*compared)
        # the compared fields as a tuple, one field too (attrgetter gives it bare)
        cls._key = staticmethod(get if len(compared) > 1 else lambda value: (get(value),))
        cls._shown = [f for f in cls._fields if f not in cls._unshown]

    def _init(self, *values):
        """Set the fields, in `_fields` order, to values."""
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self._shown))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)
