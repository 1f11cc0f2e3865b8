"""Plain slotted records, the package's data classes, built without
``dataclasses``.

A record lists its fields in ``__slots__``, in order, and the values of the
fields a caller may leave out in ``_defaults``; a type there (``dict``,
``list``) is called for each record, so each gets its own container. The
base's ``__init__`` binds positional, then keyword arguments to the fields,
fills the rest from ``_defaults``, and raises ``TypeError`` for a missing,
unknown, repeated or surplus argument; a call that passes every field by
position skips the binding. The base also supplies what ``@dataclass``
would: ``==`` field by field, true only between records of one type, and a
repr in the dataclass format. A ``FrozenRecord`` is also hashable and
refuses assignment. Fields named in ``_hidden`` are left out of equality,
hash and repr; those in ``_unprinted`` only out of the repr.

A record keeps its own ``__init__`` only where the generic one would cost
time per operation or cannot express it: ``EvaluationRequest`` and
``EvaluationTrace``, built once or more per evaluation, skip the binding
(a request's ``overrides=None`` reads as ``{}``), and ``Unit`` checks its
scale.

Building a dataclass compiles generated source for each class, and
``dataclasses`` imports ``inspect`` and ``ast``: together about half of
what a fresh ``import geocard`` cost with them.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()
    _defaults = {}    # field -> value (or type, called) of a field a caller may omit
    _hidden = ()      # left out of ==, hash and repr
    _unprinted = ()   # left out of repr only

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__dict__.get("__slots__", ())
        if not fields:
            return
        # Each slot's own setter, which a frozen record's __setattr__ skips.
        cls._setters = tuple(cls.__dict__[name].__set__ for name in fields)
        compared = [name for name in fields if name not in cls._hidden]
        get = attrgetter(*compared)
        # A tuple of the compared values, even for a single field.
        cls._values = (get if len(compared) > 1
                       else staticmethod(lambda record: (get(record),)))
        cls._printed = tuple(name for name in compared
                             if name not in cls._unprinted)

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        for setter, value in zip(setters, args):
            setter(self, value)

    @classmethod
    def _bind(cls, args, kwargs) -> list:
        """Every field's value, in field order, from a call's arguments."""
        fields, name = cls.__slots__, cls.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments "
                            f"but {len(args)} were given")
        given = dict(zip(fields, args))
        for key in kwargs:
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in given:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
        given.update(kwargs)
        for field, default in cls._defaults.items():
            if field not in given:
                given[field] = default() if isinstance(default, type) else default
        missing = [field for field in fields if field not in given]
        if missing:
            raise TypeError(f"{name}() missing argument(s): {', '.join(missing)}")
        return [given[field] for field in fields]

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
