"""One parser for JSON config blocks, used by the ``from_dict`` of each object.

Unknown or missing keys, bools where a number is expected, counts that are
not integers and non-finite numbers (an int beyond the float range among
them) raise ConfigParseError naming the key; counts outside their range
(``at_least``) and values outside a fixed set
(``member``, ``block_kind``) raise a ValueError naming it.  The JSON literals
``NaN``, ``Infinity`` and ``-Infinity`` load as floats and meet the same
converters, so no separate pass looks for them: ``number`` rejects them as
not finite; ``count``, ``flag``, ``items`` and ``parse_block`` as the wrong
type; ``member`` and ``block_kind`` as outside their set.  Other out-of-range
values are left to the constructors, which raise a FieldError naming the
field (and reject NaN and infinities, ``require_finite``, when built from
Python); ``field_keys`` turns that field into the key's dotted path.

``Block``, the base of the frozen config dataclasses, reads and echoes a block
by its fields.  A field without a default is required.  Each value goes
through ``CONVERTERS[name]``, else its type's converter (``number`` for
``float``, ``count`` for ``int``); a field with neither is a TypeError.  A key
that is not a field must be in ``CONVERTERS`` and is dropped, as is the
``kind`` required where the class names it as a plain class attribute.
``PATH`` is the default error path.  ``to_dict`` writes that ``kind``, then
each field: a ``Block`` by its ``to_dict``, an ``Enum`` by its value, a tuple
or list as a new list.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import numbers
from enum import Enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .geometry import UnitVector3


MAX_COUNT = 2 ** 53  # the default bound of a count: up to it a float holds each integer


class ConfigParseError(ValueError):
    """Malformed config: bad JSON, wrong types, unknown or missing keys."""


class FieldError(ValueError):
    """A field value out of range: ``field`` and what is wrong with it.  A
    rule that relates two fields names the second as ``other``, the field
    the problem ends by comparing against ("price_min must be below
    price_max")."""

    def __init__(self, field: str, problem: str, other: str | None = None):
        super().__init__(f"{field} {problem}" + ("" if other is None else f" {other}"))
        self.field, self.problem, self.other = field, problem, other


@contextlib.contextmanager
def field_keys(path: str):
    """A FieldError in the block becomes a ValueError naming ``path.field``, and ``path.other``."""
    try:
        yield
    except FieldError as exc:
        other = "" if exc.other is None else f" '{path}.{exc.other}'"
        raise ValueError(f"'{path}.{exc.field}' {exc.problem}{other}") from None


def parse_block(d, context: str, required=None, optional=None) -> dict:
    """Block ``d`` with each value converted by the ``conv(value, name)``
    that ``required`` or ``optional`` maps its key to (None keeps it).
    Absent optional keys stay absent, so the built object's defaults apply."""
    if not isinstance(d, dict):
        raise ConfigParseError(f"'{context}' must be an object")
    convs = {**(required or {}), **(optional or {})}
    missing = [key for key in required or () if key not in d]
    unknown = sorted(key for key in d if key not in convs)
    for problem, keys in (("missing", missing), ("unknown", unknown)):
        if keys:
            raise ConfigParseError(f"{problem} key '{keys[0]}' in '{context}'")
    return {key: value if convs[key] is None else convs[key](value, f"{context}.{key}")
            for key, value in d.items()}


def block_kind(d, context: str, kinds) -> str:
    """The ``kind`` of block ``d``; ValueError unless it is one of ``kinds``."""
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigParseError(f"'{context}' must be an object with a 'kind' key")
    if d["kind"] not in tuple(kinds):
        raise ValueError(f"unknown {context} kind: {shown(d['kind'])}")
    return d["kind"]


def require_finite(obj, *names: str):
    """FieldError naming the first field of ``obj`` in ``names`` that is NaN
    or infinite."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise FieldError(name, f"must be finite, got {value!r}")


def shown(value) -> str:
    """``repr(value)`` for an error message, but an int of more than 20
    digits by its digit count, so one line stays short."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or abs(value) < 10 ** 20):
        return repr(value)
    n = abs(int(value))
    d = int(math.log10(n))  # floor(log10(n)), or one off where the log rounds
    digits = d + 1 + (n >= 10 ** (d + 1)) - (n < 10 ** d)
    return f"{'a negative' if value < 0 else 'an'} integer of {digits} digits"


def number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigParseError(f"'{name}' must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ConfigParseError(f"'{name}' must be finite, got {shown(value)}")
    return float(value)


def count(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigParseError(f"'{name}' must be an integer, got {value!r}")
    return int(value)


def at_least(minimum: int, at_most: int = MAX_COUNT):
    """``count``, plus a ValueError naming the key for a value below
    ``minimum`` or above ``at_most``.  The default cap, ``MAX_COUNT``, is
    also the bound of ``n_steps`` and of the GBM ``steps``."""
    def conv(value, name: str) -> int:
        value = count(value, name)
        if value < minimum:
            raise ValueError(f"'{name}' must be at least {minimum}, got {shown(value)}")
        if value > at_most:
            raise ValueError(f"'{name}' must be at most {at_most}, got {shown(value)}")
        return value
    return conv


def flag(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigParseError(f"'{name}' must be true or false, got {value!r}")
    return value


def member(choices):
    """A converter to the member of ``choices`` (an Enum class or a tuple) with
    the given value; ValueError naming the key for any other value."""
    def conv(value, name: str):
        for m in choices:
            if getattr(m, "value", m) == value:
                return m
        allowed = ", ".join(repr(getattr(m, "value", m)) for m in choices)
        raise ValueError(f"'{name}' must be one of {allowed}, got {shown(value)}")
    return conv


def items(conv, value, name: str, length: int | None = None) -> list:
    """[conv(v)] over the JSON list ``value``, optionally of a fixed length."""
    if not isinstance(value, list) or length not in (None, len(value)):
        raise ConfigParseError(f"'{name}' must be a list of {length or 'any number of'} values")
    return [conv(v, f"{name}[{i}]") for i, v in enumerate(value)]


def unit_vector(value, name: str) -> UnitVector3:
    """The JSON list ``[x, y, z]``, scaled to unit length unless it is a unit
    vector already, so that an echoed direction parses back to itself;
    ValueError naming the key when it has no direction (the zero vector)."""
    from .geometry import UnitVector3  # here, so a run without directions loads no geometry

    xyz = items(number, value, name, 3)
    with contextlib.suppress(ValueError):
        return UnitVector3(*xyz)
    try:
        return UnitVector3.normalized(*xyz)
    except ValueError as exc:
        raise ValueError(f"'{name}' cannot be normalized: {exc}") from None


_BY_TYPE = {"float": number, "int": count}  # a field's converter by its type


def _kind(cls) -> dict:
    """{"kind": kind} where ``cls`` names its kind as a plain class attribute, else {}."""
    kind = getattr(cls, "kind", None)
    return {"kind": kind} if kind and "kind" not in cls.__dataclass_fields__ else {}


class Block:
    """A frozen config dataclass read and echoed by its fields (see the module docstring)."""

    PATH = ""
    CONVERTERS: dict = {}

    @classmethod
    def keys(cls) -> tuple[dict, dict]:
        """The converters of the required keys, and of every key a block may hold."""
        fields = dataclasses.fields(cls)
        convs = {key: member((kind,)) for key, kind in _kind(cls).items()}
        for f in fields:
            convs[f.name] = (cls.CONVERTERS.get(f.name)
                             or _BY_TYPE.get(getattr(f.type, "__name__", f.type)))
            if convs[f.name] is None:
                raise TypeError(f"{cls.__name__}.{f.name} of type {f.type} has no converter")
        required = [*_kind(cls), *(f.name for f in fields
                                  if f.default is f.default_factory is dataclasses.MISSING)]
        return {key: convs[key] for key in required}, {**cls.CONVERTERS, **convs}

    @classmethod
    def from_dict(cls, d, path: str | None = None):
        """The block ``d``; errors name keys under ``path``, by default ``PATH``."""
        path = cls.PATH if path is None else path
        p = parse_block(d, path, *cls.keys())
        with field_keys(path):
            return cls(**{key: p[key] for key in p if key in cls.__dataclass_fields__})

    def to_dict(self) -> dict:
        out = _kind(type(self))
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Block):
                value = value.to_dict()
            elif isinstance(value, Enum):
                value = value.value
            out[f.name] = list(value) if isinstance(value, (tuple, list)) else value
        return out
