"""Record classes: what `dataclasses.dataclass` gave the package, without its import.

`record` rebuilds a class with a slot per annotated field (a record base's first), which
`__init__` sets through its descriptor, and with `__repr__`, `__eq__`, `__hash__` and
`__match_args__` as `dataclass(frozen=frozen)` writes them; class attributes are defaults.
"""


def _values(self) -> tuple:
    return tuple([getattr(self, name) for name in self.__match_args__])


def _eq(self, other: object) -> bool:
    return _values(self) == _values(other) if other.__class__ is self.__class__ else NotImplemented


def _repr(self) -> str:
    return f"{self.__class__.__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self.__match_args__)})"


def _frozen(self, name: str, *value: object) -> None:
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def record(frozen: bool = False):
    """Class decorator: the class rebuilt as a record of its annotated fields."""

    def build(cls: type) -> type:
        own = tuple(cls.__annotations__)
        body = {key: value for key, value in vars(cls).items() if key not in ("__dict__", "__weakref__")}
        namespace = {f"_default_{name}": body.pop(name) for name in own if name in body}
        fields = getattr(cls, "__match_args__", ()) + own
        body.update(__slots__=own, __qualname__=cls.__qualname__, __match_args__=fields, __repr__=_repr, __eq__=_eq)
        body.update(__hash__=None, __reduce__=lambda self: (self.__class__, _values(self)))  # for copy and pickle
        if frozen:
            body.update(__hash__=lambda self: hash(_values(self)), __setattr__=_frozen, __delattr__=_frozen)
        cls = type(cls)(cls.__name__, cls.__bases__, body)
        namespace.update({f"_set_{name}": getattr(cls, name).__set__ for name in fields})
        params = ", ".join(f"{name}=_default_{name}" if f"_default_{name}" in namespace else name for name in fields)
        lines = [f"def __init__(self, {params}):", *(f" _set_{name}(self, {name})" for name in fields)]
        exec("\n".join(lines + [" self.__post_init__()"] * hasattr(cls, "__post_init__")), namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
        return cls

    return build
