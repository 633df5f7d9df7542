"""A Linux-style binary buddy allocator for physical page frames.

The paper's index-bit predictability argument (Section VI) rests on how the
Linux buddy allocator hands out physical memory: free frames are kept in
per-order free lists of 1, 2, 4, ... 1024 contiguous frames, and large
requests (or bursts of small ones) are served from large aligned blocks.
That makes VA->PA deltas constant across long runs of pages, which is what
the index delta buffer learns.

This module implements that allocator faithfully enough for the effect to
emerge rather than be scripted:

* per-order free lists with lowest-address-first allocation,
* block splitting on allocation and buddy coalescing on free,
* order-9 (2 MiB) allocations for transparent huge pages,
* the unusable free space index Fu(j) of Gorman & Whitcroft, used by the
  paper to quantify fragmentation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

#: Linux's MAX_ORDER is 11: blocks of 2**0 .. 2**10 pages.
MAX_ORDER = 10

#: Order of a 2 MiB huge-page allocation with 4 KiB base pages.
HUGE_PAGE_ORDER = 9


def _run_frames(bases: Sequence[int], orders: Sequence[int]) -> np.ndarray:
    """Every frame of the runs ``bases[i] .. bases[i] + 2**orders[i]``,
    run by run, as one int64 array."""
    lengths = np.left_shift(1, np.asarray(orders, dtype=np.int64))
    firsts = np.cumsum(lengths) - lengths
    return (np.repeat(np.asarray(bases, dtype=np.int64) - firsts, lengths)
            + np.arange(int(lengths.sum()), dtype=np.int64))


class OutOfMemoryError(Exception):
    """Raised when an allocation cannot be satisfied at any order."""


@dataclass
class BuddyStats:
    """Counters describing allocator activity, useful in tests and benches."""

    allocations: int = 0
    frees: int = 0
    splits: int = 0
    coalesces: int = 0
    failed_allocations: int = 0


class BuddyAllocator:
    """Binary buddy allocator over a flat range of physical page frames.

    Frames are numbered ``0 .. total_frames - 1``. Blocks of order ``k``
    cover ``2**k`` frames and are naturally aligned (the base frame number
    is a multiple of ``2**k``), exactly as in the Linux implementation —
    the alignment is what makes huge-page physical bits line up.
    """

    def __init__(self, total_frames: int):
        if total_frames <= 0:
            raise ValueError("total_frames must be positive")
        self.total_frames = total_frames
        self.stats = BuddyStats()
        # _heaps[order] is a min-heap of base frame numbers with lazy
        # deletion: entries whose block was removed (coalesced or
        # allocated) stay in the heap until popped and are skipped then.
        # _free_blocks is the source of truth: base -> order.
        self._heaps: List[List[int]] = [[] for _ in range(MAX_ORDER + 1)]
        self._live_counts: List[int] = [0] * (MAX_ORDER + 1)
        self._free_frame_total = 0
        # The allocation map: one byte per frame, holding order + 1 at
        # the base frame of every allocated block and 0 everywhere else
        # (free frames and the non-base frames of a live block). A
        # fragmented memory holds ~90k live blocks; as a dict that was
        # several MB, as bytes it is ``total_frames`` bytes.
        self._allocated = bytearray(total_frames)
        self._free_blocks: Dict[int, int] = {}
        self._seed_free_lists()

    def _seed_free_lists(self) -> None:
        """Carve the frame range into maximal aligned free blocks."""
        frame = 0
        remaining = self.total_frames
        while remaining > 0:
            order = MAX_ORDER
            while order > 0 and ((frame % (1 << order)) != 0
                                 or (1 << order) > remaining):
                order -= 1
            self._insert_free(frame, order)
            frame += 1 << order
            remaining -= 1 << order

    # ------------------------------------------------------------------
    # free-list bookkeeping
    # ------------------------------------------------------------------
    def _insert_free(self, base: int, order: int) -> None:
        heapq.heappush(self._heaps[order], base)
        self._free_blocks[base] = order
        self._live_counts[order] += 1
        self._free_frame_total += 1 << order

    def _remove_free(self, base: int, order: int) -> None:
        # Lazy deletion: the heap entry is skipped when popped later.
        del self._free_blocks[base]
        self._live_counts[order] -= 1
        self._free_frame_total -= 1 << order

    def _pop_free(self, order: int) -> int:
        """Pop the lowest-addressed free block of ``order``."""
        heap = self._heaps[order]
        while heap:
            base = heapq.heappop(heap)
            if self._free_blocks.get(base) == order:
                del self._free_blocks[base]
                self._live_counts[order] -= 1
                self._free_frame_total -= 1 << order
                return base
        raise OutOfMemoryError(f"no free block of order {order}")

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def allocate(self, order: int = 0) -> int:
        """Allocate a naturally aligned block of ``2**order`` frames.

        Returns the base frame number. Raises :class:`OutOfMemoryError`
        when no block of the requested order (or larger, to split) exists.
        """
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"order {order} outside [0, {MAX_ORDER}]")
        source = order
        while source <= MAX_ORDER and self._live_counts[source] == 0:
            source += 1
        if source > MAX_ORDER:
            self.stats.failed_allocations += 1
            raise OutOfMemoryError(f"no free block of order >= {order}")
        base = self._pop_free(source)
        # Split down to the requested order, returning the upper halves
        # to their free lists (this is the "break large groups" behaviour
        # Section VI describes).
        while source > order:
            source -= 1
            buddy = base + (1 << source)
            self._insert_free(buddy, source)
            self.stats.splits += 1
        self._allocated[base] = order + 1
        self.stats.allocations += 1
        return base

    def try_allocate(self, order: int = 0) -> Optional[int]:
        """Like :meth:`allocate` but returns ``None`` instead of raising."""
        try:
            return self.allocate(order)
        except OutOfMemoryError:
            return None

    def allocate_colored(self, color: int, color_bits: int,
                         max_search: int = 64) -> Optional[int]:
        """Allocate one frame whose low ``color_bits`` match ``color``.

        This is the allocator half of software page coloring (Section
        II-D): the OS constrains physical placement so that VA and PA
        agree on the index bits a VIPT cache needs. Implemented the way
        real colored allocators work — scan the free pool for a
        matching frame, putting mismatches back. Returns ``None`` when
        no matching frame is found within ``max_search`` candidates
        (the fragmentation-induced failure the paper warns about).
        """
        if color_bits <= 0:
            return self.try_allocate(0)
        mask = (1 << color_bits) - 1
        stash = []
        found = None
        for _ in range(max_search):
            frame = self.try_allocate(0)
            if frame is None:
                break
            if frame & mask == color & mask:
                found = frame
                break
            stash.append(frame)
        for frame in stash:
            self.free(frame, 0)
        if found is None:
            self.stats.failed_allocations += 1
        return found

    def free(self, base: int, order: Optional[int] = None) -> None:
        """Free a previously allocated block, coalescing with buddies."""
        if not 0 <= base < self.total_frames or not self._allocated[base]:
            raise ValueError(f"frame {base} is not the base of a live block")
        actual = self._allocated[base] - 1
        if order is not None and order != actual:
            raise ValueError(
                f"block at {base} has order {actual}, not {order}")
        self._allocated[base] = 0
        self.stats.frees += 1
        self._coalesce_and_insert(base, actual)

    def free_runs(self, bases: Sequence[int], orders: Sequence[int]) -> None:
        """Free aligned runs of order-0 blocks, one run per (base, order).

        Same end state and counters as calling :meth:`free` on each
        frame of each run, run by run and frame by frame in ascending
        order: every free but a run's last stops at a still allocated
        buddy inside the run, the last one merges the whole run into one
        order-``order`` block and coalesces on from there. Every frame
        of every run is validated before anything changes.
        """
        for base, order in zip(bases, orders):
            if not 0 <= order <= MAX_ORDER or base % (1 << order):
                raise ValueError(
                    f"run at {base} is not an aligned order-{order} run")
        frames = _run_frames(bases, orders)
        inside = (frames >= 0) & (frames < self.total_frames)
        held = np.zeros(len(frames), dtype=np.uint8)
        held[inside] = self._map()[frames[inside]]
        # A frame that is free, part of a larger block, or in two runs
        # (its second appearance) is refused.
        bad = held != 1
        _, first = np.unique(frames, return_index=True)
        repeated = np.ones(len(frames), dtype=bool)
        repeated[first] = False
        bad |= repeated
        if bad.any():
            frame = int(frames[int(np.argmax(bad))])
            raise ValueError(f"frame {frame} is not a live order-0 block")
        self._map()[frames] = 0
        self.stats.frees += len(frames)
        self.stats.coalesces += len(frames) - len(bases)
        for base, order in zip(bases, orders):
            self._coalesce_and_insert(base, order)

    def allocate_pages(self, count: int) -> List[int]:
        """Allocate ``count`` frames, each as its own order-0 block.

        Same frames, in the same order, and the same end state and
        counters as ``count`` calls of ``allocate(0)``: those take the
        lowest-addressed block of the smallest non-empty order and use
        it up frame by frame before touching the next, so this pops
        whole blocks instead. A block used up entirely costs ``2**k - 1``
        splits; the block the run ends inside leaves its unused tail on
        the free lists as the aligned blocks those splits leave behind.
        When memory runs out, the frames allocated so far are returned
        (fewer than ``count``) and the one failing ``allocate(0)`` is
        counted as a failed allocation.
        """
        frames: List[int] = []
        live = self._live_counts
        stats = self.stats
        allocated = self._allocated
        need = count
        while need > 0:
            order = 0
            while order <= MAX_ORDER and not live[order]:
                order += 1
            if order > MAX_ORDER:
                stats.failed_allocations += 1
                break
            base = self._pop_free(order)
            end = base + (1 << order)
            taken = min(end - base, need)
            frames.extend(range(base, base + taken))
            allocated[base:base + taken] = b"\x01" * taken
            need -= taken
            pieces = taken
            rest = base + taken
            while rest < end:
                # ``base`` is aligned to the block, so the unused tail's
                # pieces are the aligned blocks at its low set bits.
                piece = (rest & -rest).bit_length() - 1
                self._insert_free(rest, piece)
                rest += 1 << piece
                pieces += 1
            stats.splits += pieces - 1
        stats.allocations += len(frames)
        return frames

    def allocate_all_order0(self) -> np.ndarray:
        """Allocate every free frame as its own order-0 block.

        Same end state and counters as calling ``try_allocate(0)`` until
        it returns ``None`` — a block of order ``k`` costs ``2**k - 1``
        splits, and the final failing call counts one failed allocation —
        in one pass over the free blocks. Returns the frames in ascending
        order, as an int64 array.
        """
        blocks = sorted(self._free_blocks.items())
        frames = _run_frames([base for base, _ in blocks],
                             [order for _, order in blocks])
        self._map()[frames] = 1
        self.stats.splits += len(frames) - len(blocks)
        self.stats.allocations += len(frames)
        self.stats.failed_allocations += 1
        self._free_blocks.clear()
        self._heaps = [[] for _ in range(MAX_ORDER + 1)]
        self._live_counts = [0] * (MAX_ORDER + 1)
        self._free_frame_total = 0
        return frames

    def _coalesce_and_insert(self, current: int, cur_order: int) -> None:
        """Merge the newly freed block with free buddies, then list it."""
        while cur_order < MAX_ORDER:
            buddy = current ^ (1 << cur_order)
            if buddy >= self.total_frames:
                break
            if self._free_blocks.get(buddy) != cur_order:
                break
            self._remove_free(buddy, cur_order)
            current = min(current, buddy)
            cur_order += 1
            self.stats.coalesces += 1
        self._insert_free(current, cur_order)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def free_frames(self) -> int:
        """Total number of free page frames."""
        return self._free_frame_total

    def allocated_frames(self) -> int:
        """Total number of allocated page frames."""
        return self.total_frames - self.free_frames()

    def free_blocks_by_order(self) -> List[int]:
        """Return ``k_i``: the number of free blocks at each order."""
        return list(self._live_counts)

    def largest_free_order(self) -> int:
        """Largest order with at least one free block, or -1 if empty."""
        for order in range(MAX_ORDER, -1, -1):
            if self._live_counts[order]:
                return order
        return -1

    def unusable_free_space_index(self, order: int = HUGE_PAGE_ORDER) -> float:
        """Gorman & Whitcroft's Fu(j) fragmentation metric (Section VII-B).

        0 means every free page sits in blocks big enough to satisfy an
        order-``order`` allocation; 1 means none do. The paper keeps
        Fu(9) > 0.95 for its fragmented-memory sensitivity study.
        """
        total_free = self.free_frames()
        if total_free == 0:
            return 0.0
        usable = sum((1 << o) * self._live_counts[o]
                     for o in range(order, MAX_ORDER + 1))
        return (total_free - usable) / total_free

    def is_allocated(self, base: int) -> bool:
        """True if ``base`` is the base frame of a live allocation."""
        return 0 <= base < self.total_frames and bool(self._allocated[base])

    def allocated_blocks(self) -> Dict[int, int]:
        """Every live block as ``{base frame: order}``, by base."""
        allocated = self._map()
        bases = np.flatnonzero(allocated)
        return dict(zip(bases.tolist(),
                        (allocated[bases] - 1).tolist()))

    def _map(self) -> np.ndarray:
        """The allocation map as a writable uint8 view (made per use,
        so a copied or pickled allocator never shares one)."""
        return np.frombuffer(self._allocated, dtype=np.uint8)

    def check_invariants(self) -> None:
        """Validate internal consistency; used by property-based tests."""
        covered = set()
        for base, order in self._free_blocks.items():
            if base % (1 << order) != 0:
                raise AssertionError(
                    f"free block {base} misaligned for order {order}")
            span = set(range(base, base + (1 << order)))
            if covered & span:
                raise AssertionError("overlapping free blocks")
            covered |= span
        by_order = [0] * (MAX_ORDER + 1)
        for order in self._free_blocks.values():
            by_order[order] += 1
        if by_order != self._live_counts:
            raise AssertionError("live counts out of sync with free set")
        for base, order in self.allocated_blocks().items():
            span = set(range(base, base + (1 << order)))
            if covered & span:
                raise AssertionError("allocated block overlaps free block")
            covered |= span
        if len(covered) != self.total_frames:
            raise AssertionError(
                f"coverage {len(covered)} != total {self.total_frames}")
