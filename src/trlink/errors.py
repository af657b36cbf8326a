"""Exception hierarchy shared by all simulator modules, the strict readers
that turn malformed JSON input (scenarios, ensemble files) into a
``ConfigurationError`` naming the field, and the range check of a dB value.
"""

import math
from typing import Callable


class TrLinkError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(TrLinkError, ValueError):
    """Inconsistent setup: mismatched sample rates, bad scheme, invalid scenario."""


class DomainError(TrLinkError, ValueError):
    """Input outside an operation's domain: empty signal, zero-energy channel, ..."""


def require_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    """``obj`` is a JSON object with every ``required`` key and no key outside ``allowed``."""
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{where} must be an object, got {obj!r}")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigurationError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigurationError(f"missing keys in {where}: {sorted(missing)}")


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's ``(key, value)`` pairs as a dict; ``json.loads``'s
    ``object_pairs_hook``, so a repeated key is an error, not a last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigurationError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def read_integer(value, name: str) -> int:
    """A JSON integer. Booleans and floats such as ``15.7`` are rejected, not coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return value


def read_number(value, name: str) -> float:
    """A finite JSON number. Booleans, strings, NaN and infinities are rejected."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ConfigurationError(f"{name} must be a finite number, got {value!r}")


def check_power_ratio(db: float, what: str) -> None:
    """``10**(db/10)``, the power ratio a dB value stands for, must be a
    positive finite double; ``what`` names the field in the error."""
    try:
        ratio = 10.0 ** (db / 10.0)
    except OverflowError:
        ratio = math.inf
    if not 0.0 < ratio < math.inf:
        raise ConfigurationError(
            f"{what} of 10**{db / 10.0:g}, outside the positive finite doubles"
        )


def read_list(value, name: str, read: Callable) -> list:
    """A JSON list whose items each pass ``read``."""
    if not isinstance(value, list):
        raise ConfigurationError(f"{name} must be a list, got {value!r}")
    return [read(item, f"{name}[{i}]") for i, item in enumerate(value)]
