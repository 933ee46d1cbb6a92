"""Frozen record classes, without per-class code generation.

A Record subclass lists its fields as class annotations, each with an
optional class-level default, as for @dataclass(frozen=True), and gets
that decorator's behaviour from one shared set of methods:

* Name(*args, **kwargs) takes each field by position or keyword, fills
  the defaults, raises TypeError for a missing, unknown or repeated
  argument, then runs the class's __post_init__;
* equality is field by field against an instance of the same class, and
  the hash is the hash of the field tuple;
* assigning or deleting an attribute raises AttributeError (__post_init__
  and a class's own __init__ set fields with object.__setattr__);
* the repr is Name(field=value, ...).

__init_subclass__ reads a subclass's own annotations once, after its base
class's fields; a field without a default may not follow one with a
default.  dataclass writes and compiles these methods for each class when
its module is imported; here nothing is compiled, and this module loads
only the standard library.
"""


class Record:
    """Base of the frozen records; see the module docstring."""

    _fields = ()  # field names, in order
    _defaults = {}  # field name -> default, for the fields that have one

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        names = cls._fields + tuple(n for n in own if n not in cls._fields)
        defaults = {n: getattr(cls, n) for n in names if hasattr(cls, n)}
        for i, name in enumerate(names):
            if name not in defaults and any(n in defaults for n in names[:i]):
                raise TypeError(f"{cls.__name__}: field {name!r} without a "
                                f"default follows a field with one")
            if name in defaults and type(defaults[name]).__hash__ is None:
                raise ValueError(f"{cls.__name__}: mutable default for field "
                                 f"{name!r}; set it in __post_init__")
        cls._fields, cls._defaults = names, defaults

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            args = _bind(type(self), args, kwargs)
        self.__dict__.update(zip(names, args))
        self.__post_init__()

    def __post_init__(self):
        """Check or convert the fields after __init__ has set them."""

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot assign "
                             f"to {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete "
                             f"{name!r}")


def _bind(cls, args, kwargs):
    """The value of each field of cls, in order, from a call's positional
    and keyword arguments and the defaults; TypeError for a missing,
    unknown or repeated argument."""
    names = cls._fields
    if len(args) > len(names):
        raise TypeError(f"{cls.__name__}() takes {len(names)} arguments "
                        f"but {len(args)} were given")
    values = list(args)
    for name in names[len(args):]:
        if name in kwargs:
            values.append(kwargs.pop(name))
        elif name in cls._defaults:
            values.append(cls._defaults[name])
        else:
            raise TypeError(f"{cls.__name__}() missing argument {name!r}")
    if kwargs:
        name = next(iter(kwargs))
        raise TypeError(f"{cls.__name__}() got "
                        f"{'multiple values for' if name in names else 'an unexpected'}"
                        f" argument {name!r}")
    return values
