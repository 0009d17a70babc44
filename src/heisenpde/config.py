"""Strict checking of the JSON config sections read by the CLI."""

from __future__ import annotations

import math


def config_section(cfg, name: str, required=(), optional=()) -> dict:
    """Return cfg if it is a JSON object holding every key in `required` and
    no key outside `required` and `optional`; errors name the section."""
    if not isinstance(cfg, dict):
        raise ValueError(f"{name} config must be an object, got {cfg!r}")
    extra = set(cfg) - set(required) - set(optional)
    if extra:
        raise ValueError(f"unknown {name} config keys: {sorted(extra)}")
    for key in required:
        if key not in cfg:
            raise ValueError(f"{name} config is missing {key!r}")
    return cfg


def config_number(cfg: dict, name: str, key: str, kind=float, default=None, length=None):
    """cfg[key] of section `name` as a `kind` (float or int), or
    `default` when the key is absent; with `length`, a list of that many such
    values, returned as a tuple.  A value of another JSON type, a non-finite
    number (JSON's Infinity and NaN, or an integer beyond the float range),
    or a non-integral int, raises ValueError naming the section and the key."""
    if key not in cfg and default is not None:
        return default
    where = f"{name} config {key!r}"
    value = cfg.get(key)
    if length is None:
        return _convert(value, kind, where)
    if not isinstance(value, list) or len(value) != length:
        raise ValueError(f"{where} must be a list of {length} numbers, got {value!r}")
    return tuple(_convert(v, kind, where) for v in value)


def _convert(value, kind, where: str):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer literal beyond the float range
        finite = False
    if not finite:
        raise ValueError(f"{where} must be finite, got {value!r}")
    if kind is int and not float(value).is_integer():
        raise ValueError(f"{where} must be an integer, got {value!r}")
    return kind(value)
