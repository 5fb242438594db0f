"""Frozen record classes, built from plain closures.

The standard library's frozen-record decorator imports ``inspect`` (and
with it ``ast``, ``dis`` and ``tokenize``) and compiles six methods per
class from source text, which made up about half of the library's import
time.  :func:`frozen` installs the same behaviour without either.
"""

from operator import attrgetter


def frozen(cls):
    """Make ``cls`` an immutable record of the fields it annotates.

    The fields are the class's own annotations, in order; a class
    attribute of the same name is a field's default.  Installs a
    positional-or-keyword ``__init__`` that then calls ``__post_init__``
    when the class has one, the ``Name(field=value, ...)`` repr,
    same-class ``__eq__``, ``__hash__`` of the field tuple, and
    ``__setattr__``/``__delattr__`` that raise :class:`AttributeError`.
    A method the class defines itself is kept.
    """
    name = cls.__qualname__
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {f: cls.__dict__[f] for f in names if f in cls.__dict__}
    least = len(names) - len(defaults)
    if tuple(defaults) != names[least:]:
        raise TypeError(f"{name}: a field without a default follows a default")
    tail = tuple(defaults.values())
    values = attrgetter(*names) if len(names) > 1 else lambda r: (getattr(r, names[0]),)
    post_init = getattr(cls, "__post_init__", None)
    set_field = object.__setattr__

    def bind(args, kwargs):
        given = dict(zip(names, args))
        wrong = [f for f in kwargs if f in given or f not in names]
        missing = [f for f in names[:least] if f not in given and f not in kwargs]
        if len(args) > len(names) or wrong or missing:
            raise TypeError(
                f"{name}() takes the fields {', '.join(names)}: got {len(args)} "
                f"positional, repeated or unknown {wrong}, missing {missing}"
            )
        given.update(kwargs)
        return [given[f] if f in given else defaults[f] for f in names]

    def __init__(self, *args, **kwargs):
        if kwargs or not least <= len(args) <= len(names):
            args = bind(args, kwargs)
        elif len(args) < len(names):
            args += tail[len(args) - least :]
        for field, value in zip(names, args):
            set_field(self, field, value)
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in names)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __setattr__(self, field, value):
        raise AttributeError(f"cannot assign to field {field!r}")

    def __delattr__(self, field):
        raise AttributeError(f"cannot delete field {field!r}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        if method.__name__ not in cls.__dict__:
            method.__qualname__ = f"{name}.{method.__name__}"
            setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls


def replace(obj, **changes):
    """A copy of the record ``obj`` with ``changes`` applied.

    The copy goes through ``__init__``, so ``__post_init__`` validates it.
    """
    fields = {f: getattr(obj, f) for f in obj.__match_args__}
    return type(obj)(**{**fields, **changes})
