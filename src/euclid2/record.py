"""Record classes: plain value classes declared by annotated fields.

A record's fields are the names its own class body annotates, in order.  A
value assigned to a field in the class body is its default; a list or dict
default is copied for each instance.  `__init__` is compiled once per class,
takes the fields positionally or by keyword, and then calls `__post_init__`
if the class has one.  Equality holds only between instances of the same
class and compares every field except those named in `NOT_COMPARED`.  A
`FrozenRecord` hashes the same fields and refuses assignment.
"""

from __future__ import annotations

from operator import attrgetter

_MISSING = object()


class Record:
    """A mutable record: compared by value, and so not hashable."""

    NOT_COMPARED: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        names = tuple(cls.__dict__.get("__annotations__", ()))
        if not names:  # a base class such as `terms.Syntax`
            return
        params, body = [], []
        # a frozen class's own __setattr__ refuses, so its __init__ goes round it
        frozen = cls.__setattr__ is not object.__setattr__
        store = "_set(self, {0!r}, {0})" if frozen else "self.{0} = {0}"
        for name in names:
            default = cls.__dict__.get(name, _MISSING)
            if type(default) in (list, dict):
                params.append(f"{name}=_MISSING")
                body.append(f" if {name} is _MISSING: {name} = _cls.{name}.copy()")
            else:
                params.append(name if default is _MISSING else f"{name}=_cls.{name}")
            body.append(" " + store.format(name))
        if hasattr(cls, "__post_init__"):
            body.append(" self.__post_init__()")
        scope = {"_set": object.__setattr__, "_MISSING": _MISSING, "_cls": cls}
        exec(f"def __init__(self, {', '.join(params)}):\n" + "\n".join(body), scope)
        cls.__init__ = scope["__init__"]
        cls._fields = names
        cls._compared = attrgetter(*[n for n in names if n not in cls.NOT_COMPARED])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._compared(self) == other._compared(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """An immutable, hashable record."""

    def __hash__(self) -> int:
        return hash(self._compared(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
