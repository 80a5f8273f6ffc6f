"""Exception types, and the frozen base of the value types, shared across
the package. Both are leaves: this module imports nothing."""


class Frozen:
    """An immutable value whose fields are its class's own annotated names,
    in order, except those that start with "_".

    Arguments bind positionally or by keyword in field order; a field left
    out takes the class attribute of its name as its default. __post_init__
    then validates, and may normalise a field with object.__setattr__.
    Assignment and deletion are refused. Equality (same class only), hash
    and repr read the fields, so a private attribute such as a cached frame
    takes part in none of them.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__dict__.get("__annotations__", {})
                            if not name.startswith("_"))

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments "
                            f"but {len(args)} were given")
        given = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{cls.__name__}() got an unexpected argument {name!r}")
            if name in given:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
            given[name] = value
        state = self.__dict__
        for name in fields:
            if name in given:
                state[name] = given[name]
            elif name in cls.__dict__:
                state[name] = cls.__dict__[name]
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class LpconvError(Exception):
    """Base class for all package errors."""


class BudgetError(LpconvError):
    """An input exceeds a configured enumeration budget."""


class AlgebraMismatch(LpconvError):
    """Operands live on different measure algebras or contexts."""


class NotIsometry(LpconvError):
    """An operator failed surjective-isometry validation."""


class P2Unsupported(LpconvError):
    """The requested structure theory breaks down at exponent 2."""


class POutOfRange(LpconvError):
    """The exponent lies outside the supported range."""


class NotGroupLike(LpconvError):
    """Isometry classes of an algebra do not form a finite group."""
