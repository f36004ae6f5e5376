"""The base of the package's validated value types.

A subclass lists its fields in ``__slots__``.  Its ``__new__`` checks its
arguments and returns ``cls._trusted(...)``, the one place that builds a
value without a check; producers in the package that build valid values
by construction call ``_trusted`` directly, and everything from outside
goes through ``Cls(...)``.  The base gives what ``dataclass(frozen=True)``
would, without importing ``dataclasses``: equality only between instances
of the same class, a hash over the fields, the ``Cls(field=value, ...)``
``repr``, and ``AttributeError`` on assignment and on deletion.
"""

from operator import attrgetter


class Frozen:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        # the fields in one C call (for a single field, its value, which
        # compares and hashes just as well); not a descriptor, so it is
        # called as ``self._key(self)``
        cls._key = attrgetter(*cls.__slots__)

    @classmethod
    def _trusted(cls, *fields):
        """The value with these fields, in ``__slots__`` order, unchecked."""
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            object.__setattr__(self, name, value)
        return self

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through the checked constructor
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
