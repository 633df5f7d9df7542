"""A set-associative cache model with SIPT-aware indexing.

The model tracks tags, valid and dirty bits, and replacement state. Data
values are not stored (this is a timing/behaviour simulator), but all the
structural behaviour — indexing, tag matching, eviction, write-back — is
exact.

Two details matter specifically for SIPT (Section IV):

* **Tags are full line addresses.** A lookup performed with a *wrong*
  speculative index can never produce a false hit, because the stored tag
  encodes the complete physical line address, not just the bits above the
  index. This is the paper's correctness guarantee.
* **Fills always use the true physical index.** A line therefore has
  exactly one home set; synonyms cannot create duplicates.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import repeat
from typing import List, Optional, Tuple

from .replacement import ReplacementPolicy, make_policy


@dataclass
class CacheStats:
    """Access counters for one cache instance."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    fills: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits per access (0.0 when nothing was accessed)."""
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        """Misses per access (0.0 when nothing was accessed)."""
        return self.misses / self.accesses if self.accesses else 0.0


class AccessResult:
    """Outcome of a single cache access.

    A plain ``__slots__`` class rather than a dataclass: one is
    allocated per cache access at every level, and slot storage avoids
    the per-object ``__dict__`` on the hot path.
    """

    __slots__ = ("hit", "way", "writeback_line", "victim_line")

    def __init__(self, hit: bool, way: int = -1,
                 writeback_line: Optional[int] = None,
                 victim_line: Optional[int] = None):
        self.hit = hit
        self.way = way
        self.writeback_line = writeback_line   # line written back, if any
        self.victim_line = victim_line         # line evicted, if any

    def __repr__(self) -> str:
        return (f"AccessResult(hit={self.hit}, way={self.way}, "
                f"writeback_line={self.writeback_line}, "
                f"victim_line={self.victim_line})")


class SetAssociativeCache:
    """One level of cache, addressed by physical line address.

    Parameters
    ----------
    capacity_bytes, line_size, n_ways:
        Geometry. ``n_sets = capacity / (line_size * n_ways)`` must be a
        power of two.
    replacement:
        'lru' (default), 'fifo', or 'random'.
    name:
        Label used in stats reporting ("L1D", "L2", ...).
    """

    def __init__(self, capacity_bytes: int, line_size: int, n_ways: int,
                 replacement: str = "lru", name: str = "cache"):
        if capacity_bytes % (line_size * n_ways):
            raise ValueError("capacity must be a multiple of line*ways")
        n_sets = capacity_bytes // (line_size * n_ways)
        if n_sets & (n_sets - 1):
            raise ValueError(f"n_sets ({n_sets}) must be a power of two")
        if line_size & (line_size - 1):
            raise ValueError("line_size must be a power of two")
        self.name = name
        #: Dotted metrics namespace this array registers its stats
        #: under (see ``repro.obs``): "l1d", "l2", "llc", ...
        self.metrics_namespace = name.lower()
        self.capacity_bytes = capacity_bytes
        self.line_size = line_size
        self.n_ways = n_ways
        self.n_sets = n_sets
        self.line_shift = line_size.bit_length() - 1
        self.index_mask = n_sets - 1
        #: Number of index bits above the 4 KiB page offset — the bits SIPT
        #: must speculate. Zero for VIPT-feasible configurations.
        offset_index_bits = self.line_shift + n_sets.bit_length() - 1
        self.speculative_bits = max(0, offset_index_bits - 12)
        self.stats = CacheStats()
        self.policy: ReplacementPolicy = make_policy(replacement,
                                                     n_sets, n_ways)
        # Tags live in per-set int64 arrays and dirty bits in per-set
        # bytearrays (0/1 per way). Both support the same indexing,
        # assignment, and ``index()`` the hot path used on plain lists
        # — ``array.index`` even compares raw int64s instead of boxed
        # ints — while a checkpoint serializes each whole plane with
        # one C-level join instead of flattening 10k+ Python objects
        # (see state_dict). Every row starts as a copy of one template
        # row, which costs a fraction of building each one element by
        # element.
        empty = array("q", [-1] * n_ways)
        self._tags: List[array] = list(map(array.__copy__,
                                           repeat(empty, n_sets)))
        self._dirty: List[bytearray] = list(map(bytearray,
                                                repeat(bytes(n_ways),
                                                       n_sets)))
        # Per-set line -> way map mirroring ``_tags``: an associative
        # lookup is O(1) instead of an O(ways) list scan on every probe.
        # ``_tags`` stays authoritative (tests inspect it); the dict is
        # maintained alongside and cross-checked by check_invariants().
        self._where: List[dict] = [{} for _ in range(n_sets)]
        self._touch = self.policy.touch

    # ------------------------------------------------------------------
    # address helpers
    # ------------------------------------------------------------------
    def set_index(self, pa: int) -> int:
        """The true set index for a physical address."""
        return (pa >> self.line_shift) & self.index_mask

    def line_of(self, pa: int) -> int:
        """The full line address (tag) for a physical address."""
        return pa >> self.line_shift

    # ------------------------------------------------------------------
    # access paths
    # ------------------------------------------------------------------
    def probe(self, set_index: int, line: int) -> int:
        """Tag-match ``line`` in ``set_index`` without updating state.

        Returns the matching way, or -1. Used for SIPT speculative lookups
        where the index may be wrong.
        """
        return self._where[set_index].get(line, -1)

    def access(self, pa: int, is_write: bool) -> AccessResult:
        """Reference ``pa``; on a miss, fill it (allocate-on-write).

        Returns an :class:`AccessResult`; a write-back line address is
        reported when a dirty victim is evicted.
        """
        stats = self.stats
        stats.accesses += 1
        line = pa >> self.line_shift
        set_index = line & self.index_mask
        way = self._where[set_index].get(line, -1)
        if way >= 0:
            stats.hits += 1
            self._touch(set_index, way)
            if is_write:
                self._dirty[set_index][way] = True
            return AccessResult(True, way)
        stats.misses += 1
        result = self._fill(set_index, line, dirty=is_write)
        result.hit = False
        return result

    def lookup_no_fill(self, pa: int, is_write: bool) -> bool:
        """Reference ``pa`` without allocating on a miss; returns hit."""
        self.stats.accesses += 1
        set_index = self.set_index(pa)
        way = self.probe(set_index, self.line_of(pa))
        if way < 0:
            self.stats.misses += 1
            return False
        self.stats.hits += 1
        self.policy.touch(set_index, way)
        if is_write:
            self._dirty[set_index][way] = True
        return True

    def _fill(self, set_index: int, line: int, dirty: bool) -> AccessResult:
        ways = self._tags[set_index]
        where = self._where[set_index]
        try:
            # Single scan: index() both finds and tests for a free way.
            way = ways.index(-1)
            victim_line = None
            writeback = None
        except ValueError:
            way = self.policy.victim(set_index)
            victim_line = ways[way]
            writeback = victim_line if self._dirty[set_index][way] else None
            self.stats.evictions += 1
            if writeback is not None:
                self.stats.writebacks += 1
            del where[victim_line]
        ways[way] = line
        where[line] = way
        self._dirty[set_index][way] = dirty
        self.policy.touch(set_index, way)
        self.stats.fills += 1
        return AccessResult(hit=False, way=way,
                            writeback_line=writeback, victim_line=victim_line)

    def invalidate_line(self, pa: int) -> bool:
        """Invalidate the line containing ``pa``; returns True if present."""
        set_index = self.set_index(pa)
        way = self.probe(set_index, self.line_of(pa))
        if way < 0:
            return False
        del self._where[set_index][self._tags[set_index][way]]
        self._tags[set_index][way] = -1
        self._dirty[set_index][way] = False
        self.policy.invalidate(set_index, way)
        return True

    def contains(self, pa: int) -> bool:
        """Non-mutating membership check."""
        return self.probe(self.set_index(pa), self.line_of(pa)) >= 0

    def resident_lines(self) -> List[int]:
        """All valid line addresses (for invariant checks in tests)."""
        return [line for ways in self._tags for line in ways if line != -1]

    def state_dict(self) -> dict:
        """JSON-safe snapshot: stats, tags, dirty bits, policy state.

        Tags and dirty bits are flattened row-major and packed with
        :func:`~repro.stateutil.pack_ints` — an LLC holds tens of
        thousands of slots, and nested JSON lists would dominate the
        whole checkpoint's serialization time (see stateutil).
        """
        from ..stateutil import pack_ints, stats_state
        return {"stats": stats_state(self.stats),
                "n_sets": self.n_sets,
                "n_ways": self.n_ways,
                "tags": pack_ints(
                    b"".join([row.tobytes() for row in self._tags]), "q"),
                "dirty": pack_ints(b"".join(self._dirty), "B"),
                "policy": self.policy.state_dict()}

    def load_state_dict(self, state: dict) -> None:
        """Restore a same-geometry snapshot into this instance.

        All containers are mutated in place — ``_tags``/``_dirty`` rows
        and the ``_where`` accelerator dicts keep their identities, so
        pre-bound references elsewhere stay valid. ``_where`` is rebuilt
        from the restored tags rather than serialized (it is derived
        state; ``check_invariants`` cross-checks the rebuild).
        """
        from ..errors import CheckpointError
        from ..stateutil import load_stats, unpack_ints
        if (state["n_sets"], state["n_ways"]) != (self.n_sets,
                                                  self.n_ways):
            raise CheckpointError(
                f"cache {self.name}: snapshot geometry "
                f"{state['n_sets']}x{state['n_ways']} does not match "
                f"this instance's {self.n_sets}x{self.n_ways}")
        load_stats(self.stats, state["stats"])
        flat_tags = unpack_ints(state["tags"])
        flat_dirty = unpack_ints(state["dirty"])
        if len(flat_tags) != self.n_sets * self.n_ways:
            raise CheckpointError(
                f"cache {self.name}: snapshot has {len(flat_tags)} "
                f"slots, this instance has {self.n_sets * self.n_ways}")
        ways_n = self.n_ways
        for set_index, ways in enumerate(self._tags):
            ways[:] = array("q", flat_tags[set_index * ways_n:
                                           (set_index + 1) * ways_n])
        for set_index, ways in enumerate(self._dirty):
            ways[:] = bytes(flat_dirty[set_index * ways_n:
                                       (set_index + 1) * ways_n])
        for set_index, ways in enumerate(self._tags):
            where = self._where[set_index]
            where.clear()
            for way, line in enumerate(ways):
                if line != -1:
                    where[line] = way
        self.policy.load_state_dict(state["policy"])

    def check_invariants(self) -> None:
        """Each line appears at most once, and at its true set index.

        Also cross-checks the ``_where`` acceleration map against the
        authoritative tag array — they must describe the same contents.
        """
        seen = set()
        for set_index, ways in enumerate(self._tags):
            expected = {}
            for way, line in enumerate(ways):
                if line == -1:
                    continue
                if line in seen:
                    raise AssertionError(f"line {line:#x} duplicated")
                seen.add(line)
                expected[line] = way
                home = (line & self.index_mask)
                if home != set_index:
                    raise AssertionError(
                        f"line {line:#x} resident in set {set_index}, "
                        f"home is {home}")
            if self._where[set_index] != expected:
                raise AssertionError(
                    f"set {set_index}: lookup map {self._where[set_index]} "
                    f"out of sync with tags {expected}")
