"""Declared domains of config leaves, and the one checker that enforces them.

Each config dataclass derives from ``Checked`` and declares every leaf where
it defines it, e.g. ``mass: float = leaf(0.094, POSITIVE)``.  Constructing
one raises ``ValueError("<field> must be <domain>, got <value>")`` at the
first leaf outside its domain or cross-field rule that fails.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Callable


class ConfigError(ValueError):
    """A configuration the program refuses; the CLI exits 2 on it."""


# each leaf kind: the types of its values, and its name in messages
KINDS = {bool: (bool, "a boolean"), int: (numbers.Integral, "an integer"),
         float: (numbers.Real, "a number"), str: (str, "a string")}
RELATIONS = {"below": operator.lt, "at most": operator.le, "divisible by": lambda a, b: a % b == 0}


@dataclass(frozen=True)
class Domain:
    """A scalar domain or, with ``elem``, a list of ``elem`` values; ``optional`` admits None."""

    words: str
    test: Callable = lambda v: True
    elem: Domain | None = None
    optional: bool = False

    def coerce(self, value, kind: type, path: str):
        """The JSON value of leaf ``path`` as a ``kind``: a list becomes a tuple of coerced
        elements, an int leaf takes an integral float.  A value of another kind raises, but in
        an optional leaf, whose null default shows no kind, it is left to ``check``."""
        if self.elem is not None and isinstance(value, (tuple, list)):
            return tuple(self.elem.coerce(v, kind, path) for v in value)
        integral = kind is int and isinstance(value, float) and value.is_integer()
        if self.elem is None and (of_kind(value, kind) or integral):
            try:
                return kind(value)
            except OverflowError:  # an integer past the largest float
                raise ConfigError(f"{path}: expected a finite number, got an integer too large "
                                  "for a float") from None
        if self.optional:
            return value
        raise ConfigError(f"{path}: expected {'a list' if self.elem else KINDS[kind][1]}")

    def check(self, value, kind: type) -> str | None:
        """The words of the domain that ``value`` of ``kind`` lies outside of, or None."""
        if value is None and self.optional:
            return None
        if self.elem is not None:  # the elements first, then the list as a whole
            listed = isinstance(value, (tuple, list))
            failed = listed and next(filter(None, (self.elem.check(v, kind) for v in value)), None)
            return failed or (None if listed and self.test(value) else self.words)
        if of_kind(value, kind) and (kind is not float or math.isfinite(value)) and self.test(value):
            return None
        return self.words


def of_kind(value, kind: type) -> bool:
    return isinstance(value, KINDS[kind][0]) and (kind is bool or not isinstance(value, bool))


FINITE = Domain("finite")
POSITIVE = Domain("positive", lambda v: v > 0)  # of an int leaf: at least 1
NON_NEGATIVE = Domain("non-negative", lambda v: v >= 0)
UNIT = Domain("in [0, 1]", lambda v: 0 <= v <= 1)  # a probability or a decay factor
SEED = Domain("an integer in [0, 2**64)", lambda v: 0 <= v < 2**64)
FLAG = Domain("true or false")
NON_EMPTY = Domain("non-empty", len)  # a string, or the shape of a list
PAIR = Domain("an ordered pair [lo, hi]", lambda v: len(v) == 2 and v[0] <= v[1])
TRIPLE = Domain("3 values", lambda v: len(v) == 3)


def one_of(*choices) -> Domain:
    return Domain(f"one of {sorted(choices)}", lambda v: v in choices)


def list_of(elem: Domain, shape: Domain = Domain("a list")) -> Domain:
    """A list of ``elem`` values of any length or of ``shape``: ``NON_EMPTY``, ``PAIR``, ``TRIPLE``."""
    return dataclasses.replace(shape, elem=elem)


def leaf(default, domain: Domain, kind: type | None = None, off: str = ""):
    """A dataclass field holding ``default`` in ``domain``.  A None default
    makes the leaf optional; ``off`` names the value that turns a feature off."""
    kind = kind or type(default[0] if isinstance(default, tuple) else default)
    words = f"{domain.words} ({off})" if off else domain.words
    if default is None and domain.elem is None:  # null is the other choice, so name the kind
        words = f"a {words} {'integer' if kind is int else 'number'} or null"
    domain = dataclasses.replace(domain, words=words, optional=default is None)
    return dataclasses.field(default=default, metadata={"domain": domain, "kind": kind})


class Checked:
    """Base of every config dataclass: constructing one (``replace`` too) checks each leaf,
    then each of ``RULES``, a ``(left, relation, right)`` over two attribute paths."""

    RULES = ()

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value, domain = getattr(self, f.name), f.metadata.get("domain")
            if domain and (failed := domain.check(value, f.metadata["kind"])):
                raise ValueError(f"{f.name} must be {failed}, got {value!r}")
        for left, relation, right in self.RULES:
            a, b = operator.attrgetter(left, right)(self)
            if not RELATIONS[relation](a, b):
                raise ValueError(f"{left} must be {relation} {right}, got {a!r} and {b!r}")
