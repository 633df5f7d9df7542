"""Tests for the fragmentation tool and Fu index."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import (
    HUGE_PAGE_ORDER,
    BuddyAllocator,
    PhysicalMemory,
    Process,
    fragment_memory,
    unusable_free_space_index,
)
from repro.mem.address import HUGE_PAGE_SIZE, PAGE_SIZE
from repro.mem.fragmentation import (_RUN_LENGTHS, _RUN_WEIGHTS, _WINDOW,
                                     _free_short_runs)


def test_fresh_allocator_is_unfragmented():
    buddy = BuddyAllocator(1 << 14)
    assert unusable_free_space_index(buddy) == 0.0


def test_fragment_memory_reaches_target():
    buddy = BuddyAllocator(1 << 14)
    fu = fragment_memory(buddy, target_fu=0.95,
                         rng=np.random.default_rng(7))
    assert fu >= 0.95
    buddy.check_invariants()


def test_fragmented_memory_still_has_free_pages():
    """The paper stresses contiguity, not capacity: memory never runs out."""
    buddy = BuddyAllocator(1 << 14)
    fragment_memory(buddy, target_fu=0.95, rng=np.random.default_rng(7))
    assert buddy.free_frames() > 0
    # Single-page allocations still succeed.
    assert buddy.try_allocate(0) is not None


def test_fragmented_memory_blocks_huge_allocations():
    buddy = BuddyAllocator(1 << 14)
    fragment_memory(buddy, target_fu=0.95, rng=np.random.default_rng(7))
    assert buddy.try_allocate(HUGE_PAGE_ORDER) is None


def test_fragmentation_defeats_thp():
    """Under Fu > 0.95, demand paging falls back to 4 KiB pages."""
    memory = PhysicalMemory(128 * 1024 * 1024, thp_enabled=True)
    fragment_memory(memory.buddy, target_fu=0.95,
                    rng=np.random.default_rng(7))
    proc = Process(memory)
    region = proc.mmap(4 * HUGE_PAGE_SIZE)
    va = region.start
    while va < region.end and memory.buddy.free_frames() > 64:
        proc.touch(va)
        va += PAGE_SIZE
    assert proc.stats.huge_page_faults == 0
    assert proc.stats.base_page_faults > 0


def test_fragmented_frames_are_non_contiguous():
    """Sequential faults under fragmentation get scattered frames."""
    memory = PhysicalMemory(128 * 1024 * 1024, thp_enabled=False)
    fragment_memory(memory.buddy, target_fu=0.95,
                    rng=np.random.default_rng(7))
    proc = Process(memory)
    region = proc.mmap(64 * PAGE_SIZE)
    proc.populate(region)
    pfns = [proc.page_table.lookup((region.start // PAGE_SIZE) + i).pfn
            for i in range(64)]
    contiguous_steps = sum(1 for i in range(63) if pfns[i + 1] == pfns[i] + 1)
    # Almost no contiguity should survive (some accidental adjacency ok).
    assert contiguous_steps < 16


def test_target_fu_validation():
    buddy = BuddyAllocator(1024)
    import pytest
    with pytest.raises(ValueError):
        fragment_memory(buddy, target_fu=1.5)


def reference_free_short_runs(buddy, grabbed, free_fraction, rng):
    """The window-by-window, frame-by-frame fragmenter."""
    grabbed_set = set(grabbed)
    n_windows = buddy.total_frames // _WINDOW
    target = int(buddy.total_frames * free_fraction)
    windows = rng.permutation(n_windows)
    lengths = rng.choice(_RUN_LENGTHS, size=n_windows,
                         p=_RUN_WEIGHTS / _RUN_WEIGHTS.sum())
    freed = 0
    for window, run_len in zip(windows, lengths):
        if freed >= target:
            break
        base = int(window) * _WINDOW
        run = range(base, base + int(run_len))
        if not grabbed_set.issuperset(run):
            continue
        for frame in run:
            buddy.free(frame, 0)
        freed += len(run)


def buddy_state(buddy):
    return (buddy._free_blocks, buddy.allocated_blocks(),
            dataclasses.astuple(buddy.stats))


def live_heaps(buddy):
    """Per order, the free blocks the heap must hold."""
    return [{base for base, order in buddy._free_blocks.items()
             if order == k} for k in range(len(buddy._heaps))]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1 << 12, 5000, 1 << 14]),
       st.lists(st.integers(min_value=0, max_value=7), max_size=30),
       st.sampled_from([0.05, 0.35, 0.6, 1.0]),
       st.integers(min_value=0, max_value=2 ** 32))
def test_property_free_short_runs_matches_frame_loop(total, held_orders,
                                                     free_fraction, seed):
    """Same free blocks, allocations and counters as freeing each chosen
    run frame by frame; blocks held before the fragmenter ran make some
    windows ineligible. The heaps hold exactly the free blocks, as they
    did when each run was freed in one piece: the frame loop's
    intermediate blocks never reach them."""
    buddies = []
    for free_short_runs in (_free_short_runs, reference_free_short_runs):
        buddy = BuddyAllocator(total)
        for order in held_orders:
            buddy.try_allocate(order)
        grabbed = buddy.allocate_all_order0()
        free_short_runs(buddy, grabbed, free_fraction,
                        np.random.default_rng(seed))
        buddy.check_invariants()
        buddies.append(buddy)
    assert buddy_state(buddies[0]) == buddy_state(buddies[1])
    assert [set(heap) for heap in buddies[0]._heaps] == live_heaps(
        buddies[0])
