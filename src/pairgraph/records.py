"""``Record``, the immutable base of the library's value types; it builds no code per class.

A subclass's own annotations are its fields, in order, and its class attributes their defaults.
"""

from operator import attrgetter


class Record:
    def __init_subclass__(cls, eq: bool = True) -> None:
        cls._fields = tuple(vars(cls).get("__annotations__", ()))
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}
        cls._values = attrgetter(*cls._fields)  # what compares and hashes, unless eq=False keeps identity
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields, values = self._fields, self.__dict__  # where cached_property stores too
        values.update(zip(fields, args))
        try:  # the fields after the positional ones by keyword, else by default
            for name in fields[len(args) :]:
                values[name] = kwargs.pop(name) if name in kwargs else self._defaults[name]
        except KeyError as missing:
            raise TypeError(f"{type(self).__name__} lacks the field {missing}") from None
        if kwargs or len(args) > len(fields):
            raise TypeError(f"{type(self).__name__} has the fields {fields}, not {len(args)} or {sorted(kwargs)}")
        self.__post_init__()

    def __post_init__(self) -> None:
        """Checks the fields once bound; ``object.__setattr__`` may normalise one."""

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"a {type(self).__name__} is immutable: {name!r} cannot be set or deleted")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"

    def __eq__(self, other: object) -> bool:
        return self._values(self) == self._values(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))
