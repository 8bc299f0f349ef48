"""Plain record classes: named fields, compared and printed field by field.

A record class lists its fields, in order, in `__slots__` and writes its
own __init__.  A "__dict__" slot, kept only for cached properties, is no
field.  Nothing is generated or executed when a record class is made, so
importing the package stays cheap.
"""

from operator import attrgetter

_new = object.__new__
_setattr = object.__setattr__


class Record:
    """== compares the fields, in order, between instances of one class,
    and repr prints Name(field=value, ...).  The fields named in `_hidden`
    take part in neither."""

    __slots__ = ()
    _hidden = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(n for n in cls.__dict__.get("__slots__", ()) if n != "__dict__")
        if fields:
            cls._fields = fields
            cls._shown = tuple(n for n in fields if n not in cls._hidden)
            cls._key = staticmethod(attrgetter(*cls._shown))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._shown)
        return f"{self.__class__.__qualname__}({fields})"


class Frozen(Record):
    """A record whose fields __init__ sets once, through _set; it hashes
    its compared fields.  Pickling and copying rebuild it from its fields
    without running __init__ again."""

    __slots__ = ()

    def _set(self, *values):
        """Set the fields, in __slots__ order."""
        for name, value in zip(self._fields, values):
            _setattr(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}'")

    def __hash__(self):
        return hash(self._key(self))

    def __reduce__(self):
        return (_rebuild, (self.__class__, tuple(getattr(self, n) for n in self._fields)))


def _rebuild(cls, values):
    """The record of class cls with the given field values."""
    obj = _new(cls)
    obj._set(*values)
    return obj
