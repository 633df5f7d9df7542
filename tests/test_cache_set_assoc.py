"""Tests for the set-associative cache model."""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import SetAssociativeCache


def make_l1(capacity=32 * 1024, ways=8, line=64, **kw):
    return SetAssociativeCache(capacity, line, ways, name="L1D", **kw)


def test_geometry():
    cache = make_l1()
    assert cache.n_sets == 64
    assert cache.line_shift == 6
    # 64 sets * 64B lines -> 12 index+offset bits -> 0 speculative bits.
    assert cache.speculative_bits == 0


def test_speculative_bits_for_sipt_configs():
    # Table II SIPT configurations and their index bits beyond 4 KiB.
    assert make_l1(32 * 1024, 2).speculative_bits == 2
    assert make_l1(32 * 1024, 4).speculative_bits == 1
    assert make_l1(64 * 1024, 4).speculative_bits == 2
    assert make_l1(128 * 1024, 4).speculative_bits == 3
    assert make_l1(16 * 1024, 4).speculative_bits == 0


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        SetAssociativeCache(32 * 1024 + 1, 64, 8)
    with pytest.raises(ValueError):
        SetAssociativeCache(48 * 1024, 64, 4)  # 192 sets: not a power of 2
    with pytest.raises(ValueError):
        SetAssociativeCache(32 * 1024, 48, 8)  # line size not power of 2


@pytest.mark.parametrize("capacity,ways", [(2 * 1024 * 1024, 16),
                                            (256 * 1024, 8),
                                            (32 * 1024, 2)])
def test_fresh_planes_match_element_wise_construction(capacity, ways):
    """Rows copied from a template are the rows built one by one, and
    every row is its own object."""
    cache = SetAssociativeCache(capacity, 64, ways)
    fresh = cache.state_dict()
    n_sets = cache.n_sets
    cache._tags[:] = [array("q", [-1] * ways) for _ in range(n_sets)]
    cache._dirty[:] = [bytearray(ways) for _ in range(n_sets)]
    cache.policy._stacks[:] = [bytearray(range(ways))
                               for _ in range(n_sets)]
    assert fresh == cache.state_dict()
    rebuilt = SetAssociativeCache(capacity, 64, ways)
    for plane in (rebuilt._tags, rebuilt._dirty, rebuilt.policy._stacks):
        assert len({id(row) for row in plane}) == n_sets
    rebuilt.access(0x40, is_write=True)
    assert rebuilt.resident_lines() == [1]
    assert sum(map(sum, rebuilt._dirty)) == 1


def test_miss_then_hit():
    cache = make_l1()
    first = cache.access(0x1000, is_write=False)
    assert not first.hit
    second = cache.access(0x1040 - 1, is_write=False)  # same line as 0x1000
    assert second.hit is True or cache.line_of(0x103F) != cache.line_of(0x1000)
    again = cache.access(0x1000, is_write=False)
    assert again.hit
    assert cache.stats.hits >= 1
    assert cache.stats.misses >= 1


def test_eviction_after_ways_exhausted():
    cache = make_l1(capacity=8 * 1024, ways=2)  # 64 sets, 2 ways
    set_stride = cache.n_sets * cache.line_size
    addrs = [i * set_stride for i in range(3)]  # 3 lines, same set
    for addr in addrs:
        cache.access(addr, is_write=False)
    assert not cache.contains(addrs[0])  # LRU evicted
    assert cache.contains(addrs[1])
    assert cache.contains(addrs[2])
    assert cache.stats.evictions == 1


def test_dirty_eviction_reports_writeback():
    cache = make_l1(capacity=8 * 1024, ways=2)
    set_stride = cache.n_sets * cache.line_size
    cache.access(0, is_write=True)
    cache.access(set_stride, is_write=False)
    result = cache.access(2 * set_stride, is_write=False)
    assert result.writeback_line == cache.line_of(0)
    assert cache.stats.writebacks == 1


def test_clean_eviction_no_writeback():
    cache = make_l1(capacity=8 * 1024, ways=2)
    set_stride = cache.n_sets * cache.line_size
    for i in range(3):
        result = cache.access(i * set_stride, is_write=False)
    assert result.writeback_line is None


def test_write_hit_marks_dirty():
    cache = make_l1(capacity=8 * 1024, ways=2)
    set_stride = cache.n_sets * cache.line_size
    cache.access(0, is_write=False)
    cache.access(0, is_write=True)  # hit, dirties the line
    cache.access(set_stride, is_write=False)
    result = cache.access(2 * set_stride, is_write=False)
    assert result.writeback_line == cache.line_of(0)


def test_probe_does_not_mutate():
    cache = make_l1()
    cache.access(0x2000, is_write=False)
    before = cache.stats.accesses
    way = cache.probe(cache.set_index(0x2000), cache.line_of(0x2000))
    assert way >= 0
    assert cache.stats.accesses == before


def test_probe_wrong_index_never_false_hits():
    """A SIPT lookup with a wrong index must mismatch: full-line tags."""
    cache = make_l1(capacity=32 * 1024, ways=2)  # 2 speculative bits
    pa = 0x5000  # index bits above page offset differ from 0x4000's
    cache.access(pa, is_write=False)
    true_set = cache.set_index(pa)
    for wrong_set in range(cache.n_sets):
        if wrong_set == true_set:
            continue
        assert cache.probe(wrong_set, cache.line_of(pa)) == -1


def test_lookup_no_fill():
    cache = make_l1()
    assert not cache.lookup_no_fill(0x3000, is_write=False)
    assert not cache.contains(0x3000)
    cache.access(0x3000, is_write=False)
    assert cache.lookup_no_fill(0x3000, is_write=False)


def test_invalidate_line():
    cache = make_l1()
    cache.access(0x4000, is_write=False)
    assert cache.invalidate_line(0x4000)
    assert not cache.contains(0x4000)
    assert not cache.invalidate_line(0x4000)


def test_fill_takes_lowest_free_way_in_one_scan():
    """The allocator finds the free way with a single tags.index scan;
    invalid ways must fill lowest-first before any eviction."""
    cache = make_l1(capacity=8 * 1024, ways=2)  # 64 sets, 2 ways
    set_stride = cache.n_sets * cache.line_size
    cache.access(0, is_write=False)
    cache.access(set_stride, is_write=False)
    set_index = cache.set_index(0)
    assert cache.probe(set_index, cache.line_of(0)) == 0
    assert cache.probe(set_index, cache.line_of(set_stride)) == 1
    assert cache.stats.evictions == 0
    cache.check_invariants()


def test_eviction_unmaps_victim_from_probe_index():
    cache = make_l1(capacity=8 * 1024, ways=2)
    set_stride = cache.n_sets * cache.line_size
    addrs = [i * set_stride for i in range(3)]
    for addr in addrs:
        cache.access(addr, is_write=False)
    set_index = cache.set_index(addrs[0])
    # The victim's probe entry is gone; its way now maps the new line.
    assert cache.probe(set_index, cache.line_of(addrs[0])) == -1
    assert cache.probe(set_index, cache.line_of(addrs[2])) == 0
    cache.check_invariants()


def test_invalidate_keeps_probe_index_consistent():
    cache = make_l1(capacity=8 * 1024, ways=2)
    cache.access(0x4000, is_write=False)
    cache.invalidate_line(0x4000)
    set_index = cache.set_index(0x4000)
    assert cache.probe(set_index, cache.line_of(0x4000)) == -1
    cache.check_invariants()
    # The freed way is reallocated by the next fill in that set.
    cache.access(0x4000, is_write=False)
    assert cache.probe(set_index, cache.line_of(0x4000)) >= 0
    cache.check_invariants()


def test_invariants_hold_after_traffic():
    cache = make_l1(capacity=4 * 1024, ways=4)
    for i in range(1000):
        cache.access((i * 1337) % (1 << 20), is_write=i % 3 == 0)
    cache.check_invariants()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=(1 << 18) - 1),
                min_size=1, max_size=300))
def test_property_resident_set_bounded_and_unique(addresses):
    cache = SetAssociativeCache(4 * 1024, 64, 4)
    for addr in addresses:
        cache.access(addr, is_write=False)
    lines = cache.resident_lines()
    assert len(lines) == len(set(lines))
    assert len(lines) <= cache.n_sets * cache.n_ways
    cache.check_invariants()
    # Most recent distinct lines must still hit.
    last = addresses[-1]
    assert cache.contains(last)
