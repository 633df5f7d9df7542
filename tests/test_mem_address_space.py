"""Tests for process address spaces, demand paging, and THP."""

import pytest

from repro.mem import (
    HUGE_PAGE_SIZE,
    PAGE_SIZE,
    PAGES_PER_HUGE_PAGE,
    PhysicalMemory,
    Process,
    TranslationFault,
    page_number,
)


def make_process(mib=64, thp=True):
    memory = PhysicalMemory(mib * 1024 * 1024, thp_enabled=thp)
    return memory, Process(memory)


def test_mmap_reserves_but_does_not_map():
    _, proc = make_process()
    region = proc.mmap(16 * PAGE_SIZE)
    assert region.length == 16 * PAGE_SIZE
    assert not proc.page_table.is_mapped(region.start)
    with pytest.raises(TranslationFault):
        proc.translate(region.start)


def test_touch_faults_in_one_page_without_thp():
    _, proc = make_process(thp=False)
    region = proc.mmap(16 * PAGE_SIZE)
    pa = proc.touch(region.start + 5)
    assert pa % PAGE_SIZE == 5
    assert proc.stats.minor_faults == 1
    assert proc.stats.base_page_faults == 1
    assert proc.page_table.is_mapped(region.start)
    assert not proc.page_table.is_mapped(region.start + PAGE_SIZE)


def test_touch_is_idempotent():
    _, proc = make_process(thp=False)
    region = proc.mmap(PAGE_SIZE)
    first = proc.touch(region.start)
    second = proc.touch(region.start)
    assert first == second
    assert proc.stats.minor_faults == 1


def test_thp_promotes_aligned_chunk_to_huge_page():
    _, proc = make_process()
    region = proc.mmap(4 * HUGE_PAGE_SIZE)
    proc.touch(region.start)
    assert proc.stats.huge_page_faults == 1
    # The whole 2 MiB chunk is mapped by one fault.
    for i in range(PAGES_PER_HUGE_PAGE):
        va = region.start + i * PAGE_SIZE
        _, entry = proc.page_table.translate_entry(va)
        assert entry.huge


def test_thp_preserves_offset_within_huge_page():
    """PA bits [12, 21) equal VA bits [12, 21) inside a huge page."""
    _, proc = make_process()
    region = proc.mmap(HUGE_PAGE_SIZE)
    for offset in (0, PAGE_SIZE, 17 * PAGE_SIZE + 123, HUGE_PAGE_SIZE - 1):
        va = region.start + offset
        pa = proc.touch(va)
        assert va % HUGE_PAGE_SIZE == pa % HUGE_PAGE_SIZE


def test_thp_disabled_uses_base_pages():
    _, proc = make_process(thp=False)
    region = proc.mmap(HUGE_PAGE_SIZE)
    proc.touch(region.start)
    assert proc.stats.huge_page_faults == 0
    _, entry = proc.page_table.translate_entry(region.start)
    assert not entry.huge


def test_thp_not_used_for_small_region():
    _, proc = make_process()
    region = proc.mmap(PAGE_SIZE * 3)
    proc.touch(region.start)
    assert proc.stats.huge_page_faults == 0


def test_sequential_population_yields_contiguous_frames():
    """Demand-paging a fresh region draws consecutive frames from buddy."""
    _, proc = make_process(thp=False)
    region = proc.mmap(64 * PAGE_SIZE)
    proc.populate(region)
    pfns = []
    for i in range(64):
        _, entry = proc.page_table.translate_entry(region.start + i * PAGE_SIZE)
        pfns.append(entry.pfn)
    deltas = {pfns[i + 1] - pfns[i] for i in range(len(pfns) - 1)}
    assert deltas == {1}


def test_munmap_returns_frames():
    memory, proc = make_process()
    baseline_free = memory.buddy.free_frames()
    region = proc.mmap(4 * HUGE_PAGE_SIZE)
    proc.populate(region)
    assert memory.buddy.free_frames() < baseline_free
    proc.munmap(region)
    assert memory.buddy.free_frames() == baseline_free
    memory.buddy.check_invariants()


def test_munmap_mixed_huge_and_base_pages():
    memory, proc = make_process()
    baseline_free = memory.buddy.free_frames()
    region = proc.mmap(HUGE_PAGE_SIZE + 4 * PAGE_SIZE)
    proc.populate(region)
    assert proc.stats.huge_page_faults >= 1
    assert proc.stats.base_page_faults >= 1
    proc.munmap(region)
    assert memory.buddy.free_frames() == baseline_free
    memory.buddy.check_invariants()


def test_segfault_outside_regions():
    _, proc = make_process()
    with pytest.raises(MemoryError):
        proc.touch(0x1000)


def test_out_of_physical_memory():
    memory = PhysicalMemory(1024 * 1024, thp_enabled=False)  # 256 frames
    proc = Process(memory)
    region = proc.mmap(2 * 1024 * 1024)
    with pytest.raises(MemoryError):
        proc.populate(region)


def test_two_processes_do_not_share_frames():
    memory = PhysicalMemory(16 * 1024 * 1024, thp_enabled=False)
    p1, p2 = Process(memory, asid=1), Process(memory, asid=2)
    r1 = p1.mmap(8 * PAGE_SIZE)
    r2 = p2.mmap(8 * PAGE_SIZE)
    p1.populate(r1)
    p2.populate(r2)
    pfns1 = {e.pfn for _, e in p1.page_table.entries()}
    pfns2 = {e.pfn for _, e in p2.page_table.entries()}
    assert not pfns1 & pfns2


def test_populate_rejects_region_of_another_process():
    memory = PhysicalMemory(16 * 1024 * 1024, thp_enabled=False)
    p1, p2 = Process(memory, asid=1), Process(memory, asid=2)
    r1 = p1.mmap(8 * PAGE_SIZE)
    r2 = p2.mmap(8 * PAGE_SIZE)
    # Both heaps start at the same base: only ownership tells them apart.
    assert (r1.start, r1.length) == (r2.start, r2.length)
    free = memory.buddy.free_frames()
    with pytest.raises(ValueError):
        p1.populate(r2)
    assert len(p1.page_table) == len(p2.page_table) == 0
    assert p1.stats.minor_faults == 0
    assert memory.buddy.free_frames() == free


def test_populate_rejects_unmapped_region():
    memory, proc = make_process(thp=False)
    region = proc.mmap(4 * PAGE_SIZE)
    proc.munmap(region)
    with pytest.raises(ValueError):
        proc.populate(region)
    assert len(proc.page_table) == 0


def test_touch_outside_every_region_still_segfaults():
    _, proc = make_process(thp=False)
    region = proc.mmap(4 * PAGE_SIZE)
    proc.populate(region)
    with pytest.raises(MemoryError, match="segfault"):
        proc.touch(region.end)
    assert len(proc.page_table) == 4
