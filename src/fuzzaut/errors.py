"""Shared roots: ``FuzzautError``, so callers can catch all library errors at
once, and ``Record``, the base of the immutable value objects (groups, fuzzy
subsets and maps, check reports, campaign rows).  ``Record`` is plain source,
unlike a generated dataclass, so importing the library compiles nothing.
"""

from operator import attrgetter


class FuzzautError(ValueError):
    """Base class for every validation or configuration error raised here."""


class Record:
    """Immutable value object compared by the fields named in ``_compared``.

    A subclass's ``__init__`` stores its fields through ``self.__dict__``;
    afterwards assigning or deleting any attribute raises ``AttributeError``.
    ``functools.cached_property`` still works, as it writes the instance
    dictionary directly.  Two records are equal when they are of the same
    class and their compared fields are equal; against another class,
    ``__eq__`` returns ``NotImplemented``.  The hash covers the same fields.
    """

    _compared: tuple[str, ...]

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*cls._compared)

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
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__name__}({shown})"
