"""Weak hash-consing tables, shared by terms and trees.

A hash-consed class keeps its live instances in a dict from a key to a
weak entry.  A constructor looks its key up first and makes a fresh
instance only on a miss, so equal values are one object, and equality
and hashing can be those of identity (Filliâtre–Conchon, *Type-Safe
Modular Hash-Consing*, 2006).  Entries are weak: an instance leaves its
table when the last reference to it goes.
"""

from __future__ import annotations

import weakref
from dataclasses import FrozenInstanceError


class _Entry(weakref.ref):
    __slots__ = ("table", "key")


def _forget(entry: _Entry) -> None:
    if entry.table.get(entry.key) is entry:
        del entry.table[entry.key]


def _new_term(cls, table: dict, key, **fields):
    """A fresh instance of cls with the given fields, entered in table
    under key."""
    t = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(t, name, value)
    entry = table[key] = _Entry(t, _forget)
    entry.table = table
    entry.key = key
    return t


class Frozen:
    """An immutable, weakly referenceable base for hash-consed classes."""

    __slots__ = ("__weakref__",)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")
