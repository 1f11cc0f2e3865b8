"""Plain slotted records, the package's data classes, built without
``dataclasses``.

A record lists its fields in ``__slots__``, in order, and writes its own
``__init__``. The base supplies what ``@dataclass`` would: ``==`` field by
field, true only between records of one type, and a repr in the dataclass
format. A ``FrozenRecord`` is also hashable and refuses assignment, so its
``__init__`` sets each field with ``set_field``. Fields named in ``_hidden``
are left out of equality, hash and repr; those in ``_unprinted`` only out of
the repr.

Building a dataclass compiles generated source for each class, and
``dataclasses`` imports ``inspect`` and ``ast``: together about half of
what a fresh ``import geocard`` cost with them.
"""

from __future__ import annotations

from operator import attrgetter

set_field = object.__setattr__  # how a frozen record's __init__ sets a field


class Record:
    __slots__ = ()
    _hidden = ()      # left out of ==, hash and repr
    _unprinted = ()   # left out of repr only

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__dict__.get("__slots__", ())
        if not fields:
            return
        compared = [name for name in fields if name not in cls._hidden]
        get = attrgetter(*compared)
        # A tuple of the compared values, even for a single field.
        cls._values = (get if len(compared) > 1
                       else staticmethod(lambda record: (get(record),)))
        cls._printed = tuple(name for name in compared
                             if name not in cls._unprinted)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            if self is other:  # as in a tuple, an identical item is equal
                return True
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._printed)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
