"""The two policies behind opint's speed: identity and reuse.

Records are hash-consed, after Filliâtre & Conchon, *Type-Safe Modular
Hash-Consing* (ML Workshop 2006): building one whose fields equal those
of a live one returns that very record, so equality and hashing are
identity; the table files each live record under one weak entry, freed
with it.  Methods are memoized per instance, with a hit count.
"""

from __future__ import annotations

import weakref
from functools import wraps


class _Entry(weakref.ref):
    """A weak reference to a record, holding the fields it is filed under."""
    __slots__ = ("fields",)


class HashConsed:
    """An immutable record, hash-consed on its fields (one table per class).

    A subclass names its fields in ``__slots__`` and is built with
    positional fields only.  The table holds each live record weakly, in one
    88-byte ``_Entry``, and drops the entry once the record is freed.
    """

    __slots__ = ("__weakref__",)

    def __init_subclass__(cls):
        live = cls._live = {}   # fields -> _Entry of the live record
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

        def forget(entry):
            # the slot may already hold a newer record, built after entry died
            if live.get(entry.fields) is entry:
                del live[entry.fields]
        cls._forget = forget

    def __new__(cls, *fields):
        entry = cls._live.get(fields)
        obj = entry() if entry is not None else None
        if obj is None:
            obj = object.__new__(cls)
            for set_field, value in zip(cls._setters, fields, strict=True):
                set_field(obj, value)
            entry = cls._live[fields] = _Entry(obj, cls._forget)
            entry.fields = fields
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))


def memo_tables(*names) -> tuple[dict, dict]:
    """Fresh ``(memos, hits)`` for an owner of the memoized methods ``names``."""
    return {name: {} for name in names}, dict.fromkeys(names, 0)


_MISS = object()


def memoized(name: str):
    """Cache a method's result per instance in ``self._memos[name]``, keyed
    on its none, one or two positional arguments (``()``, the argument, or
    the pair), and count hits in ``self._hits[name]``."""
    def decorate(method):
        # fixed arities: a wrapper taking *args is called more slowly
        if method.__code__.co_argcount == 1:   # no arguments: one entry, under ()
            keyed = decorate(lambda self, _: method(self))
            return wraps(method)(lambda self: keyed(self, ()))
        if method.__code__.co_argcount == 2:
            def memo_method(self, a):
                out = self._memos[name].get(a, _MISS)
                if out is _MISS:
                    out = self._memos[name][a] = method(self, a)
                else:
                    self._hits[name] += 1
                return out
        else:
            def memo_method(self, a, b):
                out = self._memos[name].get((a, b), _MISS)
                if out is _MISS:
                    out = self._memos[name][a, b] = method(self, a, b)
                else:
                    self._hits[name] += 1
                return out
        return wraps(method)(memo_method)
    return decorate
