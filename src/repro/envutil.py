"""Validated environment-variable overrides.

Integer knobs (``REPRO_ACCESSES``, ``REPRO_TRACE_CACHE``,
``REPRO_KERNEL_MEMO``, ...) are read through :func:`env_int` so a
malformed value fails at the boundary as a typed
:class:`~repro.errors.ConfigError` naming the variable, instead of a
bare ``ValueError`` from ``int()`` deep inside whatever first touched
the setting.

This lives at the package root (rather than ``repro.sim.experiment``,
its original home) because both the sim layer and the workload
substrate need it and the substrate must not import the sim package —
``repro.sim.experiment`` imports the substrate, and the reverse edge
would be a cycle.
"""

from __future__ import annotations

import os

from .errors import ConfigError


def env_int(name: str, default: int) -> int:
    """An integer environment override, validated at the boundary.

    Returns ``default`` when the variable is unset; raises
    :class:`~repro.errors.ConfigError` naming the variable and the
    offending value when it is set but not an integer.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(
            f"environment variable {name} must be an integer, "
            f"got {raw!r}") from None
