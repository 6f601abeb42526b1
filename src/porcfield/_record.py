"""Immutable value records with named fields.

A subclass names its fields in ``__slots__`` and any defaults in
``_defaults``.  Records are built positionally or by keyword, compare and
hash by class and field values, print as ``Name(field=value, ...)`` and
refuse assignment.  They stand in for frozen dataclasses, whose import
costs a cold process several milliseconds.
"""


class Record:
    __slots__ = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls.__slots__
        if len(args) > len(names) or not set(kwargs) <= set(names[len(args):]):
            raise TypeError(f"{cls.__qualname__} takes the fields {', '.join(names)}")
        values = {**cls._defaults, **dict(zip(names, args)), **kwargs}
        for name in names:
            if name not in values:
                raise TypeError(f"{cls.__qualname__} misses the field {name!r}")
            object.__setattr__(self, name, values[name])
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
