"""``Process.populate`` against a per-page reference fault loop.

The reference is the one-page demand-fault path (``_fault`` on every
unmapped page, in address order), written out here so that any faster
``populate`` must leave exactly the state it leaves: the same page
table, the same fault counters, and the same buddy allocator.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import (HUGE_PAGE_SIZE, PAGE_SIZE, PhysicalMemory, Process,
                       page_number)
from repro.workloads.spec import get_profile
from repro.workloads.trace import (MemoryCondition, _condition_memory,
                                   build_memory_image)

PHYS_BYTES = 64 * 1024 * 1024


def reference_populate(process, region):
    """Fault every unmapped page of ``region`` one page at a time."""
    first_vpn = page_number(region.start)
    for vpn in range(first_vpn, first_vpn + region.length // PAGE_SIZE):
        if vpn not in process.page_table:
            process._fault(vpn * PAGE_SIZE, region)


def image_state(process):
    """Everything a populate can change, in comparable form."""
    buddy = process.memory.buddy
    return (sorted(process.page_table.entries()),
            dataclasses.astuple(process.stats),
            sorted(buddy._free_blocks.items()),
            sorted(buddy.allocated_blocks().items()),
            dataclasses.astuple(buddy.stats))


def memory_for(condition, seed, phys_bytes=PHYS_BYTES):
    return _condition_memory(condition, phys_bytes,
                             np.random.default_rng(seed))


@pytest.mark.parametrize("condition", list(MemoryCondition),
                         ids=lambda c: c.value)
def test_colored_populate_matches_per_page_faults(condition):
    images = []
    for populate in (Process.populate, reference_populate):
        process = Process(memory_for(condition, seed=5), coloring_bits=3)
        # Two whole THP chunks and a ragged tail, one chunk pre-touched
        # so it must fall back to base pages, then a small ineligible
        # region.
        big = process.mmap(2 * HUGE_PAGE_SIZE + 37 * PAGE_SIZE)
        process.touch(big.start + HUGE_PAGE_SIZE + 5 * PAGE_SIZE)
        small = process.mmap(300 * PAGE_SIZE, thp_eligible=False,
                             align=PAGE_SIZE)
        populate(process, big)
        populate(process, small)
        images.append(image_state(process))
    assert images[0] == images[1]
    assert images[0][1][3] > 0          # some faults were colored


#: One app per allocation style: thp_big, chunked, offset, scattered.
STYLE_APPS = ("libquantum", "hmmer", "gromacs", "xalancbmk_17")


@settings(max_examples=24, deadline=None)
@given(st.sampled_from(STYLE_APPS), st.sampled_from(list(MemoryCondition)),
       st.integers(min_value=0, max_value=2 ** 32),
       st.lists(st.integers(min_value=0, max_value=3 * 512 - 1),
                max_size=6))
def test_property_populate_matches_per_page_faults(app, condition, seed,
                                                   touched):
    """A whole memory image (app and noise processes), then a region
    some of whose pages were touched first, built run-wise and page by
    page, ends in the same state."""
    states = []
    for populate in (Process.populate, reference_populate):
        # Room for the largest image here even when fragmented.
        memory = memory_for(condition, seed, phys_bytes=2 * PHYS_BYTES)
        with mock.patch.object(Process, "populate", populate):
            process, _ = build_memory_image(
                get_profile(app), memory, np.random.default_rng(seed))
            extra = process.mmap(3 * HUGE_PAGE_SIZE)
            for page in touched:
                process.touch(extra.start + page * PAGE_SIZE)
            process.populate(extra)
        states.append(image_state(process))
    assert states[0] == states[1]


@pytest.mark.parametrize("thp", [True, False], ids=["thp", "no_thp"])
def test_out_of_memory_mid_run_matches_per_page_faults(thp):
    """Exhaustion part way through a run: the pages before it mapped,
    the failing fault counted, as the page-by-page handler leaves it."""
    states = []
    for populate in (Process.populate, reference_populate):
        memory = PhysicalMemory(3 * 1024 * 1024, thp_enabled=thp)
        memory.buddy.allocate(3)
        process = Process(memory)
        region = process.mmap(4 * HUGE_PAGE_SIZE)
        with pytest.raises(MemoryError):
            populate(process, region)
        states.append(image_state(process))
    assert states[0] == states[1]
    assert len(states[0][0]) == 3 * 256 - 8
