"""A trace is built live, then replayed frozen.

``generate_trace`` runs an app through the whole OS memory model
(physical memory, buddy allocator, dict page table); replay reads only
the access columns and the VA->PA mapping. ``TraceCache`` therefore
keeps each trace frozen (``repro.workloads.storage.freeze_trace``): a
``ReplayProcess`` over an ``ArrayPageTable``, the same form a pool
worker's attached trace and a loaded trace replay. These tests pin that
the frozen form lets the generation-time image go, that it replays
byte-identically under both engines, and that flattening it (as
``--jobs`` publishing does) builds no page-table entries.
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro.mem import page_table as page_table_mod
from repro.sim import SIPT_GEOMETRIES, experiment, ooo_system, simulate
from repro.sim.experiment import TraceCache, trace_recipe
from repro.workloads.storage import flatten_page_table
from repro.workloads.substrate import ArrayPageTable
from repro.workloads.trace import MemoryCondition, generate_trace

N = 1500


def test_cached_trace_pins_no_generation_memory(monkeypatch):
    images = []
    real = experiment.generate_trace

    def generate(*args, **kwargs):
        trace = real(*args, **kwargs)
        memory = trace.process.memory
        images.append((weakref.ref(memory), weakref.ref(memory.buddy)))
        return trace

    monkeypatch.setattr(experiment, "generate_trace", generate)
    cache = TraceCache()
    trace = cache.of(trace_recipe("mcf", N, MemoryCondition.FRAGMENTED))
    assert cache.of(trace_recipe("mcf", N, MemoryCondition.FRAGMENTED)) \
        is trace
    gc.collect()
    assert len(images) == 1
    memory, buddy = images[0]
    assert memory() is None
    assert buddy() is None
    assert isinstance(trace.process.page_table, ArrayPageTable)


@pytest.mark.parametrize("engine", ["python", "kernel"])
@pytest.mark.parametrize("condition", list(MemoryCondition),
                         ids=lambda c: c.value)
def test_frozen_trace_replays_like_the_live_one(condition, engine):
    live = generate_trace("graph500", N, condition, seed=3)
    frozen = TraceCache().of(trace_recipe("graph500", N, condition,
                                          seed=3))
    assert frozen.process.memory is None
    assert frozen.huge_fraction == live.huge_fraction
    assert dataclasses.astuple(frozen.process.stats) == \
        dataclasses.astuple(live.process.stats)
    system = ooo_system(SIPT_GEOMETRIES["32K_2w"])
    want = simulate(live, system, engine=engine)
    got = simulate(frozen, ooo_system(SIPT_GEOMETRIES["32K_2w"]),
                   engine=engine)
    assert dataclasses.asdict(got) == dataclasses.asdict(want)


def test_flattening_an_array_page_table_builds_no_entries(monkeypatch):
    live = generate_trace("mcf", N, MemoryCondition.FRAGMENTED)
    vpns, pfns, flags = flatten_page_table(live.process.page_table)
    table = ArrayPageTable(vpns, pfns, flags, asid=1)
    built = []
    real_init = page_table_mod.PageTableEntry.__init__

    def counted_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(page_table_mod.PageTableEntry, "__init__",
                        counted_init)
    flat = flatten_page_table(table)
    assert built == []
    for got, want in zip(flat, (vpns, pfns, flags)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
