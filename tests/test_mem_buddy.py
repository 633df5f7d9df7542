"""Unit and property tests for the buddy allocator."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import (
    HUGE_PAGE_ORDER,
    MAX_ORDER,
    BuddyAllocator,
    OutOfMemoryError,
)


def test_initial_state_all_free():
    buddy = BuddyAllocator(4096)
    assert buddy.free_frames() == 4096
    assert buddy.allocated_frames() == 0
    buddy.check_invariants()


def test_allocate_returns_aligned_base():
    buddy = BuddyAllocator(4096)
    for order in range(MAX_ORDER + 1):
        base = buddy.allocate(order)
        assert base % (1 << order) == 0


def test_allocate_and_free_restore_all_frames():
    buddy = BuddyAllocator(4096)
    blocks = [(buddy.allocate(order), order) for order in (0, 3, 5, 0, 9)]
    assert buddy.allocated_frames() == sum(1 << o for _, o in blocks)
    for base, order in blocks:
        buddy.free(base, order)
    assert buddy.free_frames() == 4096
    assert buddy.largest_free_order() == MAX_ORDER
    buddy.check_invariants()


def test_coalescing_restores_max_order_block():
    buddy = BuddyAllocator(1024)
    frames = [buddy.allocate(0) for _ in range(1024)]
    assert buddy.free_frames() == 0
    for frame in frames:
        buddy.free(frame, 0)
    assert buddy.largest_free_order() == MAX_ORDER
    assert buddy.free_blocks_by_order()[MAX_ORDER] == 1


def test_out_of_memory_raises():
    buddy = BuddyAllocator(8)
    buddy.allocate(3)
    with pytest.raises(OutOfMemoryError):
        buddy.allocate(0)
    assert buddy.try_allocate(0) is None
    assert buddy.stats.failed_allocations == 2


def test_double_free_rejected():
    buddy = BuddyAllocator(16)
    base = buddy.allocate(2)
    buddy.free(base, 2)
    with pytest.raises(ValueError):
        buddy.free(base, 2)


def test_free_with_wrong_order_rejected():
    buddy = BuddyAllocator(16)
    base = buddy.allocate(2)
    with pytest.raises(ValueError):
        buddy.free(base, 1)


def test_lowest_address_first_allocation():
    buddy = BuddyAllocator(1024)
    first = buddy.allocate(0)
    second = buddy.allocate(0)
    assert first == 0
    assert second == 1


def test_sequential_order0_allocations_are_contiguous():
    # The property Section VI relies on: a burst of single-page requests
    # served from one large block yields physically contiguous frames.
    buddy = BuddyAllocator(2048)
    frames = [buddy.allocate(0) for _ in range(512)]
    assert frames == list(range(512))


def test_unusable_free_space_index_bounds():
    buddy = BuddyAllocator(4096)
    assert buddy.unusable_free_space_index(HUGE_PAGE_ORDER) == 0.0
    # Allocate everything as single pages, then free every other page:
    # free space exists but nothing of order >= 1 can be satisfied.
    frames = [buddy.allocate(0) for _ in range(4096)]
    for frame in frames[::2]:
        buddy.free(frame, 0)
    assert buddy.unusable_free_space_index(1) == 1.0
    assert buddy.unusable_free_space_index(HUGE_PAGE_ORDER) == 1.0


def test_non_power_of_two_memory_size():
    buddy = BuddyAllocator(1000)
    assert buddy.free_frames() == 1000
    buddy.check_invariants()
    frames = [buddy.allocate(0) for _ in range(1000)]
    assert sorted(frames) == list(range(1000))
    with pytest.raises(OutOfMemoryError):
        buddy.allocate(0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=6), max_size=40),
       st.randoms(use_true_random=False))
def test_property_alloc_free_never_corrupts(orders, rnd):
    """Random allocate/free interleavings preserve allocator invariants."""
    buddy = BuddyAllocator(1 << 12)
    live = []
    for order in orders:
        if live and rnd.random() < 0.4:
            base, o = live.pop(rnd.randrange(len(live)))
            buddy.free(base, o)
        block = buddy.try_allocate(order)
        if block is not None:
            live.append((block, order))
        buddy.check_invariants()
    for base, order in live:
        buddy.free(base, order)
    buddy.check_invariants()
    assert buddy.free_frames() == 1 << 12


# ----------------------------------------------------------------------
# bulk operations: allocate_all_order0, free_runs and allocate_pages
# ----------------------------------------------------------------------
#: (order, pick) steps of a random allocate/free history; ``pick``
#: chooses between allocating and freeing, and which live block to free.
HISTORY = st.lists(st.tuples(st.integers(min_value=0, max_value=6),
                             st.integers(min_value=0, max_value=10_000)),
                   max_size=60)
TOTALS = st.sampled_from([64, 1000, 1 << 11])
NEXT_ORDERS = st.lists(st.integers(min_value=0, max_value=4),
                       min_size=64, max_size=64)
#: Seeds the per-frame coin flips: thousands of frames would exceed
#: hypothesis's entropy budget if each flip were drawn from it.
FLIP_SEEDS = st.integers(min_value=0, max_value=2 ** 32)


def _with_history(total, history):
    """A non-fresh allocator: mixed-order live blocks and free holes."""
    buddy = BuddyAllocator(total)
    live = []
    for order, pick in history:
        if live and pick % 3 == 0:
            base, o = live.pop(pick % len(live))
            buddy.free(base, o)
            continue
        block = buddy.try_allocate(order)
        if block is not None:
            live.append((block, order))
    return buddy


def _state(buddy):
    return (dict(buddy._free_blocks), buddy.allocated_blocks(),
            dataclasses.astuple(buddy.stats), buddy.free_blocks_by_order(),
            buddy.free_frames())


def _drain_frame_by_frame(buddy):
    frames = []
    while True:
        frame = buddy.try_allocate(0)
        if frame is None:
            return frames
        frames.append(frame)


def _assert_same_future(bulk, loop, orders):
    """Both allocators hand out the same frames from here on."""
    assert ([bulk.try_allocate(k) for k in orders]
            == [loop.try_allocate(k) for k in orders])
    assert _state(bulk) == _state(loop)
    bulk.check_invariants()


@settings(max_examples=60, deadline=None)
@given(TOTALS, HISTORY, FLIP_SEEDS, NEXT_ORDERS)
def test_property_allocate_all_order0_matches_frame_loop(total, history,
                                                         flip_seed, orders):
    rnd = random.Random(flip_seed)
    bulk, loop = _with_history(total, history), _with_history(total, history)
    frames = bulk.allocate_all_order0().tolist()
    assert frames == sorted(_drain_frame_by_frame(loop))
    assert _state(bulk) == _state(loop)
    bulk.check_invariants()
    # Return a random subset so the next allocations have choices.
    for frame in frames:
        if rnd.random() < 0.5:
            bulk.free(frame, 0)
            loop.free(frame, 0)
    _assert_same_future(bulk, loop, orders)


@settings(max_examples=60, deadline=None)
@given(TOTALS, HISTORY, FLIP_SEEDS, st.sampled_from([0.05, 0.3, 0.6]),
       st.lists(st.tuples(st.integers(min_value=0, max_value=1 << 11),
                          st.integers(min_value=0, max_value=5)),
                max_size=30),
       NEXT_ORDERS)
def test_property_free_run_matches_ascending_frees(total, history,
                                                   flip_seed, hole_rate,
                                                   runs, orders):
    rnd = random.Random(flip_seed)
    bulk, loop = _with_history(total, history), _with_history(total, history)
    drained = bulk.allocate_all_order0().tolist()
    _drain_frame_by_frame(loop)
    # Free holes first, so runs can coalesce with free blocks around them.
    for frame in drained:
        if rnd.random() < hole_rate:
            bulk.free(frame, 0)
            loop.free(frame, 0)
    for start, order in runs:
        base = (start % total) & ~((1 << order) - 1)
        run = range(base, base + (1 << order))
        if run.stop > total:
            continue
        blocks = bulk.allocated_blocks()
        if all(blocks.get(frame) == 0 for frame in run):
            bulk.free_runs([base], [order])
            for frame in run:
                loop.free(frame, 0)
        else:
            before = _state(bulk)
            with pytest.raises(ValueError):
                bulk.free_runs([base], [order])
            assert _state(bulk) == before
        assert _state(bulk) == _state(loop)
        bulk.check_invariants()
    _assert_same_future(bulk, loop, orders)


def test_allocate_all_order0_on_full_allocator_counts_one_failure():
    buddy = BuddyAllocator(8)
    buddy.allocate(3)
    assert buddy.allocate_all_order0().tolist() == []
    assert buddy.stats.failed_allocations == 1
    assert buddy.stats.allocations == 1


@pytest.mark.parametrize("spoil", ["free_frame", "order1_block",
                                   "misaligned"])
def test_free_run_rejects_bad_runs_without_side_effects(spoil):
    buddy = BuddyAllocator(64)
    buddy.allocate(1)                      # frames 0-1: one order-1 block
    frames = buddy.allocate_all_order0().tolist()  # frames 2-63: order 0
    base, order = 4, 2
    if spoil == "free_frame":
        buddy.free(frames[3], 0)           # frame 5, inside the run
    elif spoil == "order1_block":
        base = 0
    else:
        base = 6
    before = _state(buddy)
    with pytest.raises(ValueError):
        buddy.free_runs([base], [order])
    assert _state(buddy) == before
    buddy.check_invariants()


def test_free_run_coalesces_past_the_run():
    bulk, loop = BuddyAllocator(64), BuddyAllocator(64)
    bulk.allocate_all_order0()
    _drain_frame_by_frame(loop)
    for buddy in (bulk, loop):
        for frame in range(4, 8):
            buddy.free(frame, 0)
    bulk.free_runs([0], [2])
    for frame in range(4):
        loop.free(frame, 0)
    assert bulk._free_blocks == {0: 3}
    assert _state(bulk) == _state(loop)


@settings(max_examples=80, deadline=None)
@given(TOTALS, HISTORY, FLIP_SEEDS,
       st.lists(st.integers(min_value=0, max_value=700), min_size=1,
                max_size=4),
       NEXT_ORDERS)
def test_property_allocate_pages_matches_order0_loop(total, history,
                                                     flip_seed, counts,
                                                     orders):
    """Bulk order-0 allocation is ``count`` calls of ``allocate(0)``,
    also when memory runs out part way through a run."""
    rnd = random.Random(flip_seed)
    bulk, loop = _with_history(total, history), _with_history(total, history)
    for count in counts:
        expected = []
        for _ in range(count):
            frame = loop.try_allocate(0)
            if frame is None:
                break
            expected.append(frame)
        assert bulk.allocate_pages(count) == expected
        assert _state(bulk) == _state(loop)
        bulk.check_invariants()
        # Hand a random subset back so later runs start mid-block.
        for frame in expected:
            if rnd.random() < 0.3:
                bulk.free(frame, 0)
                loop.free(frame, 0)
    _assert_same_future(bulk, loop, orders)


def test_allocate_pages_counts_one_failure_when_memory_runs_out():
    buddy = BuddyAllocator(8)
    assert buddy.allocate_pages(5) == [0, 1, 2, 3, 4]
    assert buddy.stats.failed_allocations == 0
    assert buddy.allocate_pages(5) == [5, 6, 7]
    assert buddy.stats.failed_allocations == 1
    assert buddy.stats.splits == 7
    assert buddy.allocate_pages(0) == []
    assert buddy.stats.failed_allocations == 1


def test_free_runs_rejects_overlapping_runs_without_side_effects():
    buddy = BuddyAllocator(64)
    buddy.allocate_all_order0()
    before = _state(buddy)
    with pytest.raises(ValueError):
        buddy.free_runs([8, 8], [2, 1])
    assert _state(buddy) == before
    buddy.check_invariants()
