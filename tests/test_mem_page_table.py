"""Direct unit tests for the page table."""

import pickle

import pytest

from repro.mem import (
    PAGE_SIZE,
    PageTable,
    PageTableEntry,
    TranslationFault,
    page_number,
)


def test_map_and_translate():
    table = PageTable()
    table.map_page(vpn=0x100, pfn=0x55)
    assert table.translate(0x100 * PAGE_SIZE + 0x123) == \
        0x55 * PAGE_SIZE + 0x123


def test_double_map_rejected():
    table = PageTable()
    table.map_page(0x100, 0x55)
    with pytest.raises(ValueError):
        table.map_page(0x100, 0x66)


def test_translate_unmapped_faults():
    table = PageTable()
    with pytest.raises(TranslationFault) as exc:
        table.translate(0xABC123)
    assert exc.value.va == 0xABC123


def test_unmap_returns_entry_and_faults_after():
    table = PageTable()
    table.map_page(0x10, 0x20, huge=True)
    entry = table.unmap_page(0x10)
    assert entry.pfn == 0x20
    assert entry.huge
    with pytest.raises(TranslationFault):
        table.translate(0x10 * PAGE_SIZE)


def test_unmap_missing_faults():
    with pytest.raises(TranslationFault):
        PageTable().unmap_page(0x1)


def test_lookup_and_contains():
    table = PageTable()
    table.map_page(7, 9)
    assert 7 in table
    assert 8 not in table
    assert table.lookup(7).pfn == 9
    assert table.lookup(8) is None


def test_translate_entry_returns_flags():
    table = PageTable()
    table.map_page(3, 4, huge=True, writable=False)
    pa, entry = table.translate_entry(3 * PAGE_SIZE)
    assert pa == 4 * PAGE_SIZE
    assert entry.huge
    assert not entry.writable


def test_len_entries_mapped_bytes():
    table = PageTable(asid=5)
    assert table.asid == 5
    for vpn in range(10):
        table.map_page(vpn, 100 + vpn)
    assert len(table) == 10
    assert table.mapped_bytes() == 10 * PAGE_SIZE
    assert dict(table.entries())[3].pfn == 103


def test_is_mapped_uses_page_granularity():
    table = PageTable()
    table.map_page(1, 2)
    assert table.is_mapped(PAGE_SIZE)
    assert table.is_mapped(2 * PAGE_SIZE - 1)
    assert not table.is_mapped(2 * PAGE_SIZE)


def test_entry_is_immutable():
    entry = PageTableEntry(pfn=1)
    with pytest.raises(AttributeError):
        entry.pfn = 2


def test_entry_is_a_value():
    """Entries compare, hash, print and pickle by their fields, as the
    frozen dataclass they replaced did."""
    entry = PageTableEntry(pfn=7, huge=True)
    twin = PageTableEntry(7, True, True)
    assert entry == twin and hash(entry) == hash(twin)
    assert entry != PageTableEntry(pfn=7)
    assert entry != (7, True, True)
    assert repr(entry) == "PageTableEntry(pfn=7, huge=True, writable=True)"
    assert pickle.loads(pickle.dumps(entry)) == entry
    with pytest.raises(AttributeError):
        del entry.huge


def test_map_run_rejects_overlap_before_mapping_anything():
    table = PageTable()
    table.map_page(5, 50)
    with pytest.raises(ValueError, match="0x5"):
        table.map_run(3, [30, 40, 50, 60])
    assert len(table) == 1
    table.map_run(6, range(60, 63), huge=True)
    assert [table.lookup(v) for v in (6, 8)] == [
        PageTableEntry(60, huge=True), PageTableEntry(62, huge=True)]
    assert table.any_mapped(4, 2) and not table.any_mapped(9, 100)
