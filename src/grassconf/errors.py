"""Exception hierarchy shared by all grassconf modules, the readers of
wire-format fields, and ``record``, the class decorator that makes their
value types.

``record`` builds only the few methods these types need, compiled for each
class, so a command-line run imports no code generator from the standard
library (which would pull in ``inspect`` and cost every fresh interpreter a
few milliseconds of start-up).
"""


class GrassconfError(Exception):
    """Base class for every error raised by this package."""


class InconsistentSystemError(GrassconfError):
    """A linear system a·x = b has no exact solution."""


class ZeroSubspaceError(GrassconfError):
    """A generating set spans only the zero subspace."""


class MixedAmbientError(GrassconfError):
    """Subspaces of different ambient dimensions were combined."""


class FullSpaceError(GrassconfError):
    """The full space has no complement."""


class NotComplementaryError(GrassconfError):
    """Two subspaces were required to be complementary but are not."""


class DuplicatePointsError(GrassconfError):
    """A configuration contains coinciding subspaces."""


class EmptyStratumError(GrassconfError):
    """The requested stratum is empty."""


class OutsideChartError(GrassconfError):
    """A point fails the transversality condition of a chart."""


class NotDirectSumError(GrassconfError):
    """The configuration is not in a direct-sum stratum."""


class DirectSumError(GrassconfError):
    """The two subspaces are in direct sum, so their intersection is zero."""


class WrongArityError(GrassconfError):
    """The operation applies only to pairs of subspaces."""


class OutOfRangeError(GrassconfError):
    """The homotopy degree is outside the computed range."""


class OutOfScopeError(GrassconfError):
    """The parameters fall outside the scope of this calculator."""


class UnreachableError(GrassconfError):
    """The requested stratum cannot be reached from the given point."""


class WireFormatError(GrassconfError, ValueError):
    """A JSON wire-format object is malformed or lacks a field."""


def _wire_int(value) -> int:
    """A wire-format integer: a JSON integer or a decimal string, ASCII
    digits after an optional minus sign as matrix_to_json writes them (a
    JSON boolean is neither, though Python's bool is an int)."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise WireFormatError(f"expected an integer, got {value!r}")
    if isinstance(value, str):
        digits = value[1:] if value.startswith("-") else value
        if not (digits.isascii() and digits.isdigit()):
            raise WireFormatError(f"expected a decimal integer string, got {value!r}")
    try:
        return int(value)
    except ValueError as exc:
        raise WireFormatError(str(exc)) from None


def _wire_field(data: dict, key: str, what: str):
    """data[key] of the wire-format object named what; a missing key raises
    WireFormatError naming the object and the field."""
    if key not in data:
        raise WireFormatError(f"{what} is missing the field {key!r}")
    return data[key]


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, a field of an immutable value."""


def _frozen_setattr(self, name: str, value) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


_MISSING = object()


class Factory:
    """A record field default built afresh for each instance by make()."""

    def __init__(self, make) -> None:
        self.make = make


def record(cls=None, /, *, frozen: bool = True):
    """Class decorator: a record of the fields annotated in the class body.

    It adds an ``__init__`` taking the fields in order (a class-body value
    is the default, a ``Factory`` is called for each instance) that ends by
    calling ``__post_init__`` when the class has one; an ``__eq__`` that
    compares the field tuples of two instances of the same class only; a
    ``__repr__`` of the form ``Name(field=value, ...)``; and
    ``__match_args__``.  A frozen record hashes its field tuple and raises
    FrozenInstanceError on assignment and deletion; a mutable record is
    unhashable.  Fields are ordinary instance attributes, so copy and
    pickle need no support.  The methods are compiled for each class, so
    construction runs a plain positional signature.
    """
    if cls is None:
        return lambda c: record(c, frozen=frozen)
    names = tuple(cls.__dict__.get("__annotations__", {}))
    namespace: dict = {"_MISSING": _MISSING, "_set": object.__setattr__}
    params, body = [], []
    for name in names:
        default = cls.__dict__.get(name, _MISSING)
        value = name
        if isinstance(default, Factory):
            delattr(cls, name)
            namespace[f"_make_{name}"] = default.make
            params.append(f"{name}=_MISSING")
            value = f"_make_{name}() if {name} is _MISSING else {name}"
        elif default is _MISSING:
            params.append(name)
        else:
            namespace[f"_default_{name}"] = default
            params.append(f"{name}=_default_{name}")
        body.append(f"  _set(self, {name!r}, {value})\n")
    if hasattr(cls, "__post_init__"):
        body.append("  self.__post_init__()\n")
    mine = "".join(f"self.{name}," for name in names)
    theirs = "".join(f"other.{name}," for name in names)
    shown = ", ".join(f"{name}={{self.{name}!r}}" for name in names)
    exec(
        f"def __init__(self, {', '.join(params)}):\n"
        + ("".join(body) or "  pass\n")
        + "def __eq__(self, other):\n"
        "  if other.__class__ is self.__class__:\n"
        f"    return ({mine}) == ({theirs})\n"
        "  return NotImplemented\n"
        "def __hash__(self):\n"
        f"  return hash(({mine}))\n"
        "def __repr__(self):\n"
        f"  return self.__class__.__qualname__ + f'({shown})'\n",
        namespace,
    )
    for method in ("__init__", "__eq__", "__repr__", "__hash__"):
        namespace[method].__qualname__ = f"{cls.__qualname__}.{method}"
        setattr(cls, method, namespace[method])
    cls.__match_args__ = names
    if frozen:
        cls.__setattr__ = _frozen_setattr
        cls.__delattr__ = _frozen_delattr
    else:
        cls.__hash__ = None
    return cls
