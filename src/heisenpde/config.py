"""Strict checking of the JSON config sections read by the CLI."""

from __future__ import annotations


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
