"""Immutable value records, written out by hand.

A record class names its fields, in order, in ``_fields`` and sets them
in its own ``__init__`` through ``object.__setattr__`` (bound to a local
first when there are several, which is cheaper per field).  This base reads
the rest off that tuple, with the semantics of a frozen dataclass, but
without that module's import cost or its generated code:

* ``==`` holds only between instances of the same class whose field
  tuples are equal; any other comparison returns ``NotImplemented``;
* ``hash`` is the hash of the field tuple;
* ``repr`` is ``Name(field=value!r, ...)``;
* assignment and deletion raise ``AttributeError``;
* copy and pickle rebuild an instance by calling the class on the field
  tuple, since restoring slots one by one would go through the refusing
  ``__setattr__``.

Whatever else an instance keeps (a memo in ``__dict__``) stays out of
all of these.
"""

from operator import attrgetter


class Record:
    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls) -> None:
        get = attrgetter(*cls._fields)
        # attrgetter of one name returns the bare value, not a 1-tuple
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda r: (get(r),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        return type(self), self._values(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
