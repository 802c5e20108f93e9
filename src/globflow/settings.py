"""Settings read from the environment."""

from __future__ import annotations

import os


def env_count(name: str, default: int) -> int:
    """The non-negative integer in environment variable `name`, or `default`
    when it is unset; any other value raises ValueError."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise ValueError(f"{name} must be a non-negative integer")
    return value
