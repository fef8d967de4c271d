"""Equality for the immutable records, named tuples rather than frozen
dataclasses: importing ``dataclasses`` (and ``inspect``) and building their
classes was most of the start-up time.  The modules that define named tuples
do not use ``from __future__ import annotations``, under which
``typing.NamedTuple`` compiles every field annotation at import."""
from operator import itemgetter


def record(*ignored: str):
    """Class decorator for a tuple subclass: ``==``, ``!=`` and ``hash``
    over every field not named in ``ignored`` (source positions), ``==``
    only within the class, never with a plain tuple or another record
    class.  Without ``ignored``, a class keeps its own ``__eq__``."""

    def decorate(cls):
        if ignored:
            key = itemgetter(*[i for i, f in enumerate(cls._fields) if f not in ignored])
            cls.__eq__ = lambda a, b: b.__class__ is a.__class__ and key(a) == key(b)
            cls.__hash__ = lambda a: hash(key(a))
        elif "__eq__" not in vars(cls):
            cls.__eq__ = lambda a, b: b.__class__ is a.__class__ and tuple.__eq__(a, b)
        cls.__ne__ = lambda a, b: not a == b  # tuple.__ne__ would see positions
        return cls

    return decorate
