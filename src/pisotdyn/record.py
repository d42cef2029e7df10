"""Immutable value records without the dataclasses module.

`import dataclasses` pulls in `inspect`, and every `@dataclass` execs its
generated methods at import, which together cost a CLI call about 30 ms
of start-up; these records behave as the frozen dataclasses they replace.

A record's field list is written once, in `_fields`, and `Record.__init__`
alone stores the fields.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """A value with the named fields `_fields`, set once by `__init__`:
    positional values first, then named ones, in `_fields` order.

    A subclass that only holds values defines no `__init__`; one that
    validates or converts its input does so and then calls
    `super().__init__` once.  Records of one class are equal when their
    field tuples are and hash as their field tuple; assigning or deleting
    an attribute raises AttributeError.  A subclass lists its fields in
    `__slots__` too, unless it keeps a `__dict__` for a `cached_property`.
    """

    __slots__ = ()
    _fields: tuple  # set by every subclass

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the field tuple, read in one C call: equality and hashing use it
        get = attrgetter(*cls._fields)
        if len(cls._fields) == 1:
            cls._astuple = lambda self: (get(self),)
        else:
            cls._astuple = lambda self: get(self)

    def __init__(self, *values, **named):
        fields = self._fields
        if named:  # a positional call skips the keyword merge
            values += tuple(named.pop(f) for f in fields[len(values):] if f in named)
            if named:
                raise TypeError(f"{type(self).__name__}() got unknown or repeated "
                                f"fields {sorted(named)}")
        if len(values) != len(fields):
            raise TypeError(f"{type(self).__name__}() takes the {len(fields)} fields "
                            f"{', '.join(fields)}; got {len(values)}")
        for field, value in zip(fields, values):
            object.__setattr__(self, field, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__: slots of a frozen
        # record cannot be restored by setattr
        return type(self), self._astuple()
