"""Replacement policies for set-associative caches.

Each policy tracks recency *per set* and answers two questions: which way
to victimize on a fill, and (for way prediction, Section VII-A) which way
is most-recently used. Policies are deliberately tiny objects — the cache
model calls them millions of times per experiment.
"""

from __future__ import annotations

from itertools import repeat
from typing import List, Optional

import numpy as np


class ReplacementPolicy:
    """Interface: per-set recency state over ``n_sets`` x ``n_ways``."""

    def __init__(self, n_sets: int, n_ways: int):
        if n_sets <= 0 or n_ways <= 0:
            raise ValueError("n_sets and n_ways must be positive")
        self.n_sets = n_sets
        self.n_ways = n_ways

    def touch(self, set_index: int, way: int) -> None:
        """Record an access to ``way`` of ``set_index``."""
        raise NotImplementedError

    def victim(self, set_index: int) -> int:
        """Choose the way to evict from ``set_index``."""
        raise NotImplementedError

    def mru_way(self, set_index: int) -> int:
        """Most-recently-used way (the way-prediction hint)."""
        raise NotImplementedError

    def invalidate(self, set_index: int, way: int) -> None:
        """Mark ``way`` least-recently-used so it is the next victim."""
        raise NotImplementedError

    def state_dict(self) -> dict:
        """JSON-safe snapshot of the policy's recency state."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict` (same geometry)."""


class LruPolicy(ReplacementPolicy):
    """True LRU via per-set recency stacks (lists of way numbers).

    Position 0 is MRU; the last position is the victim. List operations on
    <= 32 ways are fast enough and exact, which matters for the replacement
    tests and the way-prediction accuracy results.
    """

    def __init__(self, n_sets: int, n_ways: int):
        super().__init__(n_sets, n_ways)
        # Per-set recency stacks as bytearrays: remove/insert scan raw
        # bytes instead of boxed ints (touch() runs on every access),
        # and a checkpoint serializes all stacks with one C-level join.
        # Way numbers must fit a byte; no real cache is >255-way.
        if n_ways > 255:
            raise ValueError(f"LruPolicy supports at most 255 ways, "
                             f"got {n_ways}")
        # Every stack starts as a copy of one template stack.
        self._stacks: List[bytearray] = list(map(
            bytearray, repeat(bytes(range(n_ways)), n_sets)))

    def touch(self, set_index: int, way: int) -> None:
        stack = self._stacks[set_index]
        # Re-touching the MRU way is the common case (streaming and
        # tight loops); skip the remove/insert churn entirely.
        if stack[0] == way:
            return
        stack.remove(way)
        stack.insert(0, way)

    def victim(self, set_index: int) -> int:
        return self._stacks[set_index][-1]

    def mru_way(self, set_index: int) -> int:
        return self._stacks[set_index][0]

    def invalidate(self, set_index: int, way: int) -> None:
        stack = self._stacks[set_index]
        stack.remove(way)
        stack.append(way)

    def state_dict(self) -> dict:
        """Per-set recency stacks, MRU first, packed flat.

        Every stack is a full permutation of ``range(n_ways)`` (touch
        and invalidate reorder, never shrink), so the row width is
        implied and the flat row-major array round-trips exactly.
        """
        from ..stateutil import pack_ints
        return {"stacks": pack_ints(b"".join(self._stacks), "B")}

    def load_state_dict(self, state: dict) -> None:
        """Restore recency stacks in place (``touch`` stays pre-bound)."""
        from ..stateutil import unpack_ints
        flat = unpack_ints(state["stacks"])
        ways = self.n_ways
        for set_index, stack in enumerate(self._stacks):
            stack[:] = bytes(flat[set_index * ways:
                                  (set_index + 1) * ways])


class FifoPolicy(ReplacementPolicy):
    """Round-robin (FIFO) replacement; MRU falls back to last fill."""

    def __init__(self, n_sets: int, n_ways: int):
        super().__init__(n_sets, n_ways)
        self._next = [0] * n_sets
        self._last = [0] * n_sets

    def touch(self, set_index: int, way: int) -> None:
        self._last[set_index] = way

    def victim(self, set_index: int) -> int:
        way = self._next[set_index]
        self._next[set_index] = (way + 1) % self.n_ways
        return way

    def mru_way(self, set_index: int) -> int:
        return self._last[set_index]

    def invalidate(self, set_index: int, way: int) -> None:
        self._next[set_index] = way

    def state_dict(self) -> dict:
        """Round-robin pointers and last-touched ways."""
        return {"next": list(self._next), "last": list(self._last)}

    def load_state_dict(self, state: dict) -> None:
        """Restore FIFO pointers in place."""
        self._next[:] = state["next"]
        self._last[:] = state["last"]


class RandomPolicy(ReplacementPolicy):
    """Pseudo-random replacement with a seeded generator (deterministic)."""

    def __init__(self, n_sets: int, n_ways: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__(n_sets, n_ways)
        self._rng = rng or np.random.default_rng(0)
        self._last = [0] * n_sets

    def touch(self, set_index: int, way: int) -> None:
        self._last[set_index] = way

    def victim(self, set_index: int) -> int:
        return int(self._rng.integers(self.n_ways))

    def mru_way(self, set_index: int) -> int:
        return self._last[set_index]

    def invalidate(self, set_index: int, way: int) -> None:
        pass

    def state_dict(self) -> dict:
        """Generator state plus last-touched ways (fully deterministic)."""
        from ..stateutil import rng_state
        return {"rng": rng_state(self._rng), "last": list(self._last)}

    def load_state_dict(self, state: dict) -> None:
        """Restore the generator mid-stream and the last-touched ways."""
        from ..stateutil import load_rng
        load_rng(self._rng, state["rng"])
        self._last[:] = state["last"]


_POLICIES = {
    "lru": LruPolicy,
    "fifo": FifoPolicy,
    "random": RandomPolicy,
}


def make_policy(name: str, n_sets: int, n_ways: int) -> ReplacementPolicy:
    """Instantiate a policy by name ('lru', 'fifo', or 'random')."""
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
    return cls(n_sets, n_ways)
