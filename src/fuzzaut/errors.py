"""Shared roots: ``FuzzautError``, so callers can catch all library errors at
once; ``derived_cache``, whose caches ``clear_derived`` empties;
``Record``, the base of the immutable values (groups, fuzzy subsets and maps,
check reports, campaign rows), plain source, unlike a generated dataclass,
so importing the library compiles nothing; and ``Verdict``, what every
``check_*`` law checker returns.
"""

from functools import lru_cache
from operator import attrgetter
from typing import Optional


class FuzzautError(ValueError):
    """Base class for every validation or configuration error raised here."""


# a law checker's result: the verdict, and the text of what failed when it is False
Verdict = tuple[bool, Optional[str]]


DERIVED_CACHES: list = []  # every derived_cache; no other cache holds a derived fact


def derived_cache(fn, maxsize=None):
    """``lru_cache(maxsize)(fn)`` of a fact derived from a group or a (group, mu) pair."""
    DERIVED_CACHES.append(lru_cache(maxsize=maxsize)(fn))
    return DERIVED_CACHES[-1]


def clear_derived() -> None:
    """Empty every derived cache, as each campaign does when it returns."""
    for cached in DERIVED_CACHES:
        cached.cache_clear()


class Record:
    """Immutable value object whose fields are declared once, as annotations.

    A subclass's fields are its annotated names that do not start with ``_``,
    in declaration order, after the fields of its base class.  A class
    attribute with a field's name is that field's default, and a field with a
    default may be followed only by fields with defaults.  ``__init__`` takes
    the fields by position or by keyword and stores them through
    ``self.__dict__``; afterwards assigning or deleting any attribute raises
    ``AttributeError``.  ``functools.cached_property`` still works, as it
    writes the instance dictionary directly.  Two records are equal when they
    are of the same class and the fields named in ``_compared`` (all fields,
    unless a class names fewer) are equal; against another class, ``__eq__``
    returns ``NotImplemented``.  The hash covers the same fields; it is
    computed once and kept in the instance dictionary under ``_hash``.
    """

    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()  # the defaults of the last len(_defaults) fields
    _compared: tuple[str, ...]

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = tuple(name for name in cls.__annotations__ if not name.startswith("_"))
        defaults = list(cls._defaults)
        for name in own:
            if name in cls.__dict__:
                defaults.append(cls.__dict__[name])
            elif defaults:
                raise TypeError(f"{cls.__name__}: field {name!r} follows a field with a default")
        cls._fields += own
        cls._defaults = tuple(defaults)
        if "_compared" not in cls.__dict__:
            cls._compared = cls._fields
        cls._key = attrgetter(*cls._compared)

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # a fresh dict, merged, leaves the instance a compact dict: on CPython 3.11
        # it reads faster than a key-sharing one filled in place; this loop beats zip
        values = {}
        i = 0
        for name in fields:
            values[name] = args[i]
            i += 1
        self.__dict__.update(values)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """One value per field, from a call that does not pass each by position."""
        fields, defaults = cls._fields, cls._defaults
        given, required = len(args), len(fields) - len(defaults)
        if given > len(fields):
            raise TypeError(f"{cls.__name__} takes {len(fields)} fields but {given} were given")
        if not kwargs and given >= required:
            return args + defaults[given - required:]
        values = dict(zip(fields[required:], defaults))
        values.update(zip(fields, args))
        wrong = set(kwargs).difference(fields[given:])
        if wrong:
            raise TypeError(f"{cls.__name__} got unknown or repeated field(s) {sorted(wrong)}")
        values.update(kwargs)
        missing = [name for name in fields if name not in values]
        if missing:
            raise TypeError(f"{cls.__name__} is missing field(s) {', '.join(missing)}")
        return tuple(map(values.__getitem__, fields))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        # kept, as cached_property keeps its value: a group's hash covers its table
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash(self._key(self))
        return h

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__name__}({shown})"
