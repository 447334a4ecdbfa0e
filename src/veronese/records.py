"""Frozen value records: what the package uses of
``dataclass(frozen=True)``, built from closures rather than from
generated source, so that importing the package costs no ``exec`` per
class and no ``dataclasses``/``inspect`` import.

``@record`` reads a class's annotated fields, in order, and adds
``__init__`` (positional or keyword arguments, then ``__post_init__``
when the class has one), ``__repr__`` in the form ``Name(field=value,
...)``, ``__eq__`` and ``__hash__`` over the field values, and a
``__setattr__``/``__delattr__`` that raise ``AttributeError``.  A
method the class body defines is kept.  A changed copy is built with
the constructor.

``__init__`` keeps the tuple of field values beside the fields, as
``_values``; equality and hashing compare and hash that one tuple, with
no tuple built per call.  Nothing may change a field after
construction, ``__post_init__`` included.
"""

_set_field = object.__setattr__  # past the frozen __setattr__


def _frozen(self, name, *value):
    raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")


def record(cls):
    names = tuple(cls.__dict__.get("__annotations__", {}))
    slots = tuple(enumerate(names))
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = _bind(cls.__name__, names, args, kwargs)
        _set_field(self, "_values", args)
        # one setattr per field, as the dataclass does: filling
        # self.__dict__ instead turns the instance's inline attribute
        # values into a dict and makes every later read of a field slower
        for i, name in slots:
            _set_field(self, name, args[i])
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if type(other) is type(self):
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    methods = {"__init__": __init__, "__repr__": __repr__, "__eq__": __eq__,
               "__hash__": __hash__, "__setattr__": _frozen, "__delattr__": _frozen}
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls


def _bind(cls_name, names, args, kwargs) -> tuple:
    """The field values, in order, from positional and keyword arguments."""
    bound = {**dict(zip(names, args)), **kwargs}
    if (len(args) > len(names) or len(bound) != len(args) + len(kwargs)
            or bound.keys() != set(names)):
        raise TypeError(f"{cls_name}() takes each of {', '.join(names)} once, "
                        "by position or keyword")
    return tuple(bound[n] for n in names)
