"""Frozen record classes, built without per-import code generation.

lojex computes one germ per process, so the import is part of every run.
The standard library's `dataclass` compiles each method it generates with
`exec` when the class is decorated, and no `.pyc` keeps the result: on
CPython 3.11 lojex's classes made 162 such compiles, most of the time of
`import lojex`.  `record` compiles one `__init__` per class, as
`collections.namedtuple` does for `__new__`; equality, hashing, repr and
the frozen guard are the functions below, compiled once into this module's
`.pyc`.  Nor does a record import `inspect`, which `dataclass` loads.

A record behaves as a `dataclass(frozen=True)` with the same fields:

  * the fields are the class's own annotations, in order, and a class
    attribute of the same name is the field's default;
  * `__init__` takes them positionally or by keyword, stores each with
    `object.__setattr__` and then calls `__post_init__`, if the class has one;
  * two records are equal when they are of the same class and their
    compared fields are equal, and a record hashes as the tuple of those
    fields; `repr` shows the same fields;
  * assigning or deleting an attribute raises `AttributeError`.

Fields named in `uncompared` take no part in equality, hashing or repr.
"""

from __future__ import annotations

from operator import attrgetter


def record(cls=None, *, uncompared: tuple[str, ...] = ()):
    """Make `cls` a frozen record; use as `@record` or `@record(uncompared=...)`."""
    if cls is None:
        return lambda c: _build(c, uncompared)
    return _build(cls, uncompared)


def replace(obj, **changes):
    """A copy of the record `obj` with the fields in `changes` replaced."""
    values = {name: changes.pop(name, getattr(obj, name)) for name in obj._record_fields}
    return obj.__class__(**values, **changes)


def _build(cls, uncompared):
    names = tuple(cls.__dict__.get("__annotations__", {}))
    if not set(uncompared) <= set(names):
        raise TypeError(f"{cls.__name__}: uncompared names {uncompared} are not all fields")
    defaults = []
    for name in names:
        if name in cls.__dict__:
            defaults.append(cls.__dict__[name])
        elif defaults:
            raise TypeError(f"{cls.__name__}: non-default field {name!r} follows a default one")
    lines = [f"def __init__(self, {', '.join(names)}):"]
    lines += [f"    _set(self, {name!r}, {name})" for name in names]
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")
    namespace = {"_set": object.__setattr__}
    exec("\n".join(lines + ["    pass"]), namespace)
    init = namespace["__init__"]
    init.__defaults__ = tuple(defaults)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__

    compared = tuple(name for name in names if name not in uncompared)
    if len(compared) > 1:
        key = attrgetter(*compared)
    else:  # attrgetter of one name returns the bare value, not a 1-tuple
        key = lambda obj: tuple(getattr(obj, name) for name in compared)  # noqa: E731
    cls._record_fields = names
    cls._record_compared = compared
    cls._record_key = staticmethod(key)
    cls.__init__ = init
    cls.__eq__ = _eq
    cls.__hash__ = _hash
    cls.__repr__ = _repr
    cls.__setattr__ = _setattr
    cls.__delattr__ = _delattr
    return cls


def _eq(self, other):
    if other.__class__ is self.__class__:
        return self._record_key(self) == other._record_key(other)
    return NotImplemented


def _hash(self):
    return hash(self._record_key(self))


def _repr(self):
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._record_compared)
    return f"{self.__class__.__qualname__}({shown})"


def _setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")
