"""The base class of the package's immutable records.

It gives each record what ``@dataclass(frozen=True)`` would, without
importing ``dataclasses``: that import pulls in ``inspect`` and takes longer
than a ``sweep`` spends computing.
"""


class Record:
    """An immutable record whose fields are its class annotations, in order.

    A class attribute with a field's name is that field's default.  The
    ``__init__`` made for each subclass takes the fields by position or
    keyword, then calls ``__post_init__`` where the class defines one.
    Equality (with the same class only), the hash, the repr and pickling are
    those of a frozen dataclass; assigning or deleting an attribute raises
    ``AttributeError``.
    """

    __match_args__ = ()  # the field names, in order

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = [n for n in cls.__dict__.get("__annotations__", {}) if n not in cls.__match_args__]
        cls.__match_args__ = fields = (*cls.__match_args__, *own)
        defaults = {n: getattr(cls, n) for n in fields if hasattr(cls, n)}
        params = ", ".join(f"{n}=_defaults[{n!r}]" if n in defaults else n for n in fields)
        body = f"self.__dict__.update({', '.join(f'{n}={n}' for n in fields)})"
        if hasattr(cls, "__post_init__"):
            body += "\n    self.__post_init__()"
        namespace = {"_defaults": defaults}
        exec(f"def __init__(self, {params}):\n    {body}", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        """The field values, in order."""
        return tuple(getattr(self, n) for n in self.__match_args__)

    def _asdict(self) -> dict:
        """The fields by name, in order, with each record among them as its own dict."""
        values = zip(self.__match_args__, self._values())
        return {n: v._asdict() if isinstance(v, Record) else v for n, v in values}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__match_args__, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
