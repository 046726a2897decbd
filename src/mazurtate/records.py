"""Base classes for the package's small value records.

A record class lists its fields, in order, as ``__slots__``.  ``Record``
binds positional and keyword arguments to them, taking missing ones from
the class's ``_defaults``; a class whose fields need checks or a fresh
``{}`` or ``[]`` writes its own ``__init__``.  ``Record`` also gives
field-wise equality, the ``Name(field=value, ...)`` repr, ``_replace``,
and copying and pickling through ``__init__``; mutable records stay
unhashable.  ``Frozen`` records also hash by their fields and refuse
assignment, so an ``__init__`` sets their fields with
``object.__setattr__``, as ``Record.__init__`` does.  A record class is
not subclassed further.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__slots__:  # Frozen has no fields
            # a plain attribute, not a method: self._field_values(record) reads the
            # values, as a tuple, since every record has two fields or more
            cls._field_values = attrgetter(*cls.__slots__)

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names) or not kwargs.keys() <= set(names[len(args):]):
            raise TypeError(f"{type(self).__name__}() got too many or unknown arguments")
        values = self._defaults | dict(zip(names, args)) | kwargs
        for name in names:
            if name not in values:
                raise TypeError(f"{type(self).__name__}() missing argument {name!r}")
            object.__setattr__(self, name, values[name])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._field_values(self) == self._field_values(other)

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through __init__, so its checks run again
        return type(self), self._field_values(self)

    def _replace(self, **changes):
        """A new record with the given fields changed."""
        return type(self)(**dict(zip(self.__slots__, self._field_values(self))) | changes)


class Frozen(Record):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._field_values(self))
