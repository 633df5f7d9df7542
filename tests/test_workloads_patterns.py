"""Tests for the access-pattern generators."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import make_pattern
from repro.workloads.patterns import (
    _clustered_pages,
    pointer_chase,
    random_uniform,
    sequential,
    strided,
    zipf,
)


def take(gen, n):
    return list(itertools.islice(gen, n))


def test_sequential_walks_linearly_and_wraps():
    gen = sequential(64, stride=8)
    assert take(gen, 10) == [0, 8, 16, 24, 32, 40, 48, 56, 0, 8]


def test_sequential_rejects_bad_args():
    with pytest.raises(ValueError):
        next(sequential(0))
    with pytest.raises(ValueError):
        next(sequential(64, stride=0))


def test_strided_covers_multiple_lines():
    offs = take(strided(1 << 16, stride=256), 100)
    lines = {o // 64 for o in offs}
    assert len(lines) > 50


def test_strided_stays_in_bounds():
    offs = take(strided(10_000, stride=333), 1000)
    assert all(0 <= o < 10_000 for o in offs)


def test_random_uniform_respects_working_set():
    rng = np.random.default_rng(1)
    offs = take(random_uniform(1 << 20, working_set=4096, rng=rng), 2000)
    assert all(0 <= o < 4096 for o in offs)
    assert len({o for o in offs}) > 100  # actually random


def test_random_uniform_deterministic_per_seed():
    a = take(random_uniform(1 << 16, rng=np.random.default_rng(5)), 50)
    b = take(random_uniform(1 << 16, rng=np.random.default_rng(5)), 50)
    assert a == b


def test_zipf_is_skewed():
    rng = np.random.default_rng(2)
    offs = take(zipf(1 << 22, alpha=1.2, rng=rng), 5000)
    pages = [o // 4096 for o in offs]
    unique = len(set(pages))
    # Zipf concentrates: far fewer unique pages than accesses, and the
    # top page takes a disproportionate share.
    assert unique < len(pages) / 3
    top_share = max(pages.count(p) for p in set(pages)) / len(pages)
    assert top_share > 0.05


def test_zipf_validates_hot_fraction():
    with pytest.raises(ValueError):
        next(zipf(1 << 20, hot_fraction=0.0))


def test_pointer_chase_visits_all_elements_before_repeating():
    rng = np.random.default_rng(3)
    n_elems = 64
    gen = pointer_chase(n_elems * 64, element_size=64, rng=rng)
    first_cycle = take(gen, n_elems)
    assert len(set(first_cycle)) == n_elems  # a permutation
    second_cycle = take(gen, n_elems)
    assert first_cycle == second_cycle  # cyclic


def test_make_pattern_dispatch_and_unknown():
    gen = make_pattern("sequential", 1024, np.random.default_rng(0),
                       stride=16)
    assert next(gen) == 0
    with pytest.raises(ValueError):
        make_pattern("lru", 1024, np.random.default_rng(0))


def test_all_patterns_yield_in_bounds():
    rng = np.random.default_rng(7)
    footprint = 1 << 18
    for kind in ("sequential", "strided", "random", "zipf", "chase"):
        gen = make_pattern(kind, footprint, rng)
        assert all(0 <= o < footprint for o in take(gen, 500)), kind


# ----------------------------------------------------------------------
# take(k) against the one-offset-at-a-time reference generators
# ----------------------------------------------------------------------
def ref_sequential(footprint, stride=8, rng=None, start=0,
                   working_set=None):
    span = min(working_set or footprint, footprint)
    offset = start % span
    while True:
        yield offset
        offset = (offset + stride) % span


def ref_strided(footprint, stride=256, rng=None, working_set=None):
    span = min(working_set or footprint, footprint)
    offset = 0
    phase = 0
    while True:
        yield offset
        offset += stride
        if offset >= span:
            phase = (phase + 8) % max(1, min(stride, span))
            offset = phase


def ref_random_uniform(footprint, working_set=None, rng=None):
    span = min(working_set or footprint, footprint)
    while True:
        for value in rng.integers(0, span, size=1024):
            yield int(value) & ~0x7


def ref_zipf(footprint, alpha=1.2, rng=None, working_set=None,
             lines_per_page=16, n_clusters=4):
    total_pages = max(1, footprint // 4096)
    span = min(working_set or footprint, footprint)
    n_lines = max(1, span // 64)
    n_pages = min(total_pages, max(1, -(-n_lines // lines_per_page)))
    n_lines = min(n_lines, n_pages * lines_per_page)
    pages = _clustered_pages(total_pages, n_pages, n_clusters, rng)
    line_page = pages[np.arange(n_lines) // lines_per_page]
    line_slot = np.concatenate([
        rng.choice(64, size=min(lines_per_page, n_lines - p * lines_per_page),
                   replace=False)
        for p in range(n_pages)])[:n_lines]
    line_addr = line_page.astype(np.int64) * 4096 + line_slot * 64
    ranks = np.arange(1, n_lines + 1, dtype=np.float64)
    weights = ranks ** -alpha
    weights /= weights.sum()
    order = rng.permutation(n_lines)
    while True:
        picks = rng.choice(n_lines, size=1024, p=weights)
        in_line = rng.integers(0, 64, size=1024)
        for pick, offset in zip(picks, in_line):
            yield int(line_addr[order[pick]]) + (int(offset) & ~0x7)


def ref_pointer_chase(footprint, working_set=None, element_size=64,
                      rng=None):
    span = min(working_set or footprint, footprint)
    n_elems = max(2, span // element_size)
    order = rng.permutation(n_elems)
    position = 0
    while True:
        yield int(order[position]) * element_size
        position = (position + 1) % n_elems


REFERENCE = {"sequential": ref_sequential, "strided": ref_strided,
             "random": ref_random_uniform, "zipf": ref_zipf,
             "chase": ref_pointer_chase}

#: Per kind, parameter sets small enough that a few thousand offsets
#: wrap the walks (and shift the strided phase) many times over.
PARAMS = {
    "sequential": [dict(stride=8, working_set=512), dict(stride=24),
                   dict(stride=4096, working_set=40_000)],
    "strided": [dict(stride=96, working_set=4096),
                dict(stride=333, working_set=10_000),
                dict(stride=4096), dict(stride=8192, working_set=4096)],
    "random": [dict(working_set=4096), dict()],
    "zipf": [dict(alpha=1.2, working_set=64 * 1024), dict(alpha=0.8)],
    "chase": [dict(working_set=4096), dict(working_set=100), dict()],
}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(PARAMS)), st.integers(0, 3),
       st.sampled_from([1 << 16, 1 << 20, 3 * 4096 + 200]),
       st.lists(st.one_of(st.integers(0, 40),
                          st.integers(1000, 2100)),
                min_size=1, max_size=4),
       st.integers(min_value=0, max_value=2 ** 32))
def test_property_take_matches_reference_generator(kind, which, footprint,
                                                   ks, seed):
    """Successive ``take(k)`` calls return what the reference generator
    yields, across wrap-arounds and 1024-draw batch boundaries, and
    iteration carries on from where they stopped."""
    params = PARAMS[kind][which % len(PARAMS[kind])]
    pattern = make_pattern(kind, footprint, np.random.default_rng(seed),
                           **params)
    ref = REFERENCE[kind](footprint, rng=np.random.default_rng(seed),
                          **params)
    for k in ks:
        offsets = pattern.take(k)
        assert offsets.dtype == np.int64
        assert offsets.tolist() == take(ref, k)
    assert take(pattern, 3) == take(ref, 3)


@pytest.mark.parametrize("kind", ["random", "zipf"])
def test_take_at_the_batch_boundary_draws_no_early_batch(kind):
    """Taking exactly a batch leaves the next batch undrawn, as the
    generator would: both RNGs are in the same state afterwards."""
    rng_take, rng_ref = np.random.default_rng(4), np.random.default_rng(4)
    pattern = make_pattern(kind, 1 << 20, rng_take)
    ref = REFERENCE[kind](1 << 20, rng=rng_ref)
    assert pattern.take(1024).tolist() == take(ref, 1024)
    assert rng_take.bit_generator.state == rng_ref.bit_generator.state
