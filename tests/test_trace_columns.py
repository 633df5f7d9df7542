"""Array-wise trace columns against the one-access-at-a-time reference.

``generate_trace`` builds its columns component by component; the
reference below walks the accesses in trace order, drawing each offset
with ``next()`` on its component's pattern, and must produce the same
``va``, ``pc`` and ``dep_dist`` columns and the same ``huge_fraction``.
"""

from bisect import bisect_right
from itertools import accumulate

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import Process
from repro.workloads.patterns import make_pattern
from repro.workloads.spec import get_profile
from repro.workloads.trace import (MemoryCondition, _condition_memory,
                                   build_memory_image, generate_trace,
                                   stable_hash)

PHYS_BYTES = 256 * 1024 * 1024

#: Every allocation style and pattern kind, and mixes of them.
APPS = ("mcf", "perlbench", "libquantum", "gamess", "omnetpp", "graph500",
        "gromacs", "xalancbmk_17", "bwaves", "sjeng")


def reference_trace(app, n_accesses, condition, seed):
    """``(va, pc, dep_dist, huge_fraction)`` built access by access."""
    profile = get_profile(app)
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, stable_hash(app),
                                stable_hash(condition.value)]))
    memory = _condition_memory(condition, PHYS_BYTES, rng)
    process, regions = build_memory_image(profile, memory, rng)
    ends = list(accumulate(region.length for region in regions))
    patterns, pc_bases, weights, dep_means = [], [], [], []
    for i, spec in enumerate(profile.patterns):
        params = {}
        if spec.working_set:
            params["working_set"] = spec.working_set
        if spec.stride:
            params["stride"] = spec.stride
        if spec.alpha:
            params["alpha"] = spec.alpha
        kind_rng = np.random.default_rng(rng.integers(2 ** 31))
        patterns.append(make_pattern(spec.kind, profile.footprint,
                                     kind_rng, **params))
        pc_bases.append(0x400000 + i * 0x100000)
        weights.append(spec.weight)
        dep_means.append(spec.dep_dist_mean)
    weights = np.asarray(weights)
    weights = weights / weights.sum()
    component = rng.choice(len(patterns), size=n_accesses, p=weights)
    rng.random(n_accesses)                               # writes
    gap_mean = max(0.0, 1.0 / profile.mem_per_inst - 1.0)
    rng.poisson(gap_mean, size=n_accesses)               # inst_gap
    dep_draw = rng.exponential(1.0, size=n_accesses)
    repeats = rng.random(n_accesses) < profile.repeat_frac
    line_offsets = rng.integers(0, 8, size=n_accesses) * 8

    va = np.empty(n_accesses, dtype=np.int64)
    pc = np.empty(n_accesses, dtype=np.int64)
    dep_dist = np.empty(n_accesses, dtype=np.int32)
    huge_hits = 0
    last_line = [-1] * len(patterns)
    for i in range(n_accesses):
        comp = component[i]
        if repeats[i] and last_line[comp] >= 0:
            address = last_line[comp] | int(line_offsets[i])
        else:
            offset = next(patterns[comp])
            r = bisect_right(ends, offset)
            if r < len(regions):
                address = (regions[r].start + offset
                           - (ends[r] - regions[r].length))
            else:
                address = regions[-1].start + (
                    (offset - ends[-1]) % regions[-1].length)
        last_line[comp] = address & ~63
        va[i] = address
        pc[i] = pc_bases[comp] + 4 * ((address - Process.HEAP_BASE) >> 15)
        dep_dist[i] = int(dep_draw[i] * dep_means[comp])
        entry = process.page_table.lookup(address >> 12)
        if entry is not None and entry.huge:
            huge_hits += 1
    return va, pc, dep_dist, huge_hits / n_accesses


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(APPS), st.sampled_from(list(MemoryCondition)),
       st.integers(min_value=0, max_value=2 ** 31),
       st.one_of(st.integers(1, 50), st.integers(900, 3000)))
def test_property_columns_match_per_access_loop(app, condition, seed, n):
    trace = generate_trace(app, n, condition, seed=seed,
                           phys_bytes=PHYS_BYTES)
    va, pc, dep_dist, huge_fraction = reference_trace(app, n, condition,
                                                      seed)
    assert trace.va.dtype == va.dtype and trace.va.tolist() == va.tolist()
    assert trace.pc.dtype == pc.dtype and trace.pc.tolist() == pc.tolist()
    assert (trace.dep_dist.dtype == dep_dist.dtype
            and trace.dep_dist.tolist() == dep_dist.tolist())
    assert trace.huge_fraction == huge_fraction
