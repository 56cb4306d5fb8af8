"""Run-configuration specs: typed checks, the one reader and the one error.

A spec maps each key a run reads to ``(default, check)``.  A check is called
as ``check(doc, key)`` and returns ``doc[key]`` checked (and converted), or
raises ``ConfigError`` with a message that starts with the key.  ``read``
takes each key from its flag, else from the config, else its default, and
rejects every key outside the spec.
"""

from __future__ import annotations

import math
from functools import partial


class ConfigError(ValueError):
    """A run the engine cannot take: a key ill-typed, past a size budget, or
    naming a model or variant without the oracle the run needs.  The message
    starts with that key, and the CLI exits 2 on it."""


def expect_int(doc: dict, key: str, minimum: int | None = None) -> int:
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key}: must be >= {minimum}, got {value}")
    return value


def at_least(minimum: int):
    """Check for an integer >= ``minimum`` (counts and sizes)."""
    return partial(expect_int, minimum=minimum)


def expect_number(doc: dict, key: str) -> float:
    """A finite number: JSON's ``NaN`` and ``Infinity``, a flag's ``nan``
    and ``inf``, and an integer beyond the float range are rejected."""
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{key}: expected a finite number, got {number}")
    return number


def positive(doc: dict, key: str) -> float:
    """A number > 0."""
    value = expect_number(doc, key)
    if not value > 0.0:
        raise ConfigError(f"{key}: must be > 0, got {value}")
    return value


def fraction(doc: dict, key: str) -> float:
    """A number in (0, 1]: a time or a window as a share of the path."""
    value = expect_number(doc, key)
    if not 0.0 < value <= 1.0:
        raise ConfigError(f"{key}: must lie in (0, 1], got {value}")
    return value


def expect_p(doc: dict, key: str) -> float:
    """The moment exponent: a number > 2, so that alpha = 1/2 - 1/p > 0."""
    p = expect_number(doc, key)
    if not p > 2.0:
        raise ConfigError(f"{key}: must be > 2, got {p}")
    return p


def number_or_null(doc: dict, key: str):
    """A number or null, returned as written."""
    if doc[key] is not None:
        expect_number(doc, key)
    return doc[key]


def as_given(doc: dict, key: str):
    """No check here: the value is checked where it is used (a model builder)."""
    return doc[key]


def one_of(choices: tuple[str, ...]):
    """Check for one of the strings ``choices``."""

    def check(doc: dict, key: str) -> str:
        value = doc[key]
        if value not in choices:
            raise ConfigError(f"{key}: must be one of {choices}, got {value!r}")
        return value

    return check


def list_of(expect, decreasing: bool = False, distinct: bool = False):
    """Check for a nonempty list whose every item passes ``expect``; with
    ``decreasing``, no item may exceed the one before it; with ``distinct``,
    the list holds two items at least and none repeats another (the points
    of a fitted slope)."""
    least = 2 if distinct else 1

    def check(doc: dict, key: str) -> list:
        value = doc[key]
        if not isinstance(value, list) or len(value) < least:
            what = "a nonempty list" if least == 1 else f"a list of {least} or more items"
            raise ConfigError(f"{key}: expected {what}, got {value!r}")
        items = [expect({key: item}, key) for item in value]
        if decreasing and sorted(items, reverse=True) != items:
            raise ConfigError(f"{key}: must be decreasing, got {value!r}")
        if distinct and len(set(items)) < len(items):
            raise ConfigError(f"{key}: must not repeat an item, got {value!r}")
        return items

    return check


def read(
    spec: dict, config: dict, flags: dict | None = None, known=None, what: str = "this run"
) -> dict:
    """Each key of ``spec``: its flag when given (not None), else its config
    value, else its default.  A flag or config value passes the key's check;
    a default is taken as it is.  A config key or given flag outside
    ``known`` (the spec's keys by default) raises ``ConfigError`` naming it.
    """
    given = {key: value for key, value in (flags or {}).items() if value is not None}
    known = spec if known is None else known
    for key in (*config, *given):
        if key not in known:
            reads = ", ".join(sorted(known)) or "no keys"
            raise ConfigError(f"{key}: not a key of {what}, which reads {reads}")
    return {
        key: check(given if key in given else config, key)
        if key in given or key in config
        else default
        for key, (default, check) in spec.items()
    }
