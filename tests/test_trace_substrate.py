"""Tests for the shared trace substrate (``repro.workloads.substrate``).

The contract under test has three layers:

* derived columns (``TraceColumns``) are computed once per trace and
  agree with a from-scratch recomputation;
* a published trace attaches zero-copy in another context and replays
  to a bit-identical ``SimResult``, with ``ArrayPageTable`` giving the
  same translations as the original eager page table;
* shared-memory segments never outlive the sweep — clean completion,
  a crashing worker, and ``KeyboardInterrupt`` all leave ``/dev/shm``
  exactly as they found it.
"""

import dataclasses
import json

import numpy as np
import pytest
from multiprocessing import shared_memory

from repro.errors import ConfigError
from repro.sim import BASELINE_L1, SIPT_GEOMETRIES, ResilientRunner, \
    inorder_system, simulate
from repro.sim.experiment import TraceCache
from repro.sim.resilience import ResilientRunner as _Runner
from repro.sim.sweep import SweepSpec, run_sweep
from repro.workloads import generate_trace
from repro.workloads.storage import flatten_page_table
from repro.workloads.substrate import ArrayPageTable, TraceStore, attach, \
    columns_for, trace_fingerprint


@pytest.fixture
def trace():
    return generate_trace("povray", 1500, seed=3)


def spec_small():
    return SweepSpec(apps=["povray"],
                     configs={"base": BASELINE_L1,
                              "sipt": SIPT_GEOMETRIES["32K_2w"]},
                     seeds=[0],
                     baseline="base")


# ---------------------------------------------------------------------
# Derived columns
# ---------------------------------------------------------------------

def test_columns_memoized_per_trace(trace):
    cols = columns_for(trace)
    assert columns_for(trace) is cols
    assert cols.lists() is cols.lists()  # hot-loop lists render once


def test_derived_columns_match_recompute(trace):
    cols = columns_for(trace)
    assert np.array_equal(
        cols.ppn,
        np.asarray([trace.process.translate(int(va)) >> 12
                    for va in trace.va[:200]] +
                   list(cols.ppn[200:])))
    lists = cols.lists()
    assert lists[0] == trace.pc.tolist()
    assert lists[1] == trace.va.tolist()


def test_fingerprint_tracks_content():
    a = generate_trace("povray", 800, seed=1)
    b = generate_trace("povray", 800, seed=1)
    c = generate_trace("povray", 800, seed=2)
    assert trace_fingerprint(a) == trace_fingerprint(b)
    assert trace_fingerprint(a) != trace_fingerprint(c)


# ---------------------------------------------------------------------
# ArrayPageTable
# ---------------------------------------------------------------------

def test_array_page_table_matches_eager(trace):
    eager = trace.process.page_table
    vpns, pfns, flags = flatten_page_table(eager)
    table = ArrayPageTable(vpns, pfns, flags, asid=eager.asid)
    assert len(table) == len(list(eager.entries()))
    for vpn, entry in eager.entries():
        got = table.lookup(vpn)
        assert got is not None
        assert (got.pfn, got.huge, got.writable) == \
            (entry.pfn, entry.huge, entry.writable)
    assert table.lookup(max(int(v) for v in vpns) + 999) is None
    first, last = int(vpns[0]), int(vpns[-1])
    for start, count in [(first - 5, 5), (first - 5, 6), (first, 1),
                         (last, 1), (last + 1, 100), (first, last)]:
        assert table.any_mapped(start, count) == eager.any_mapped(start,
                                                                  count)


def test_array_page_table_is_read_only(trace):
    vpns, pfns, flags = flatten_page_table(trace.process.page_table)
    table = ArrayPageTable(vpns, pfns, flags, asid=1)
    with pytest.raises(ValueError):
        table.map_page(12345, 678)
    with pytest.raises(ValueError):
        table.unmap_page(int(vpns[0]))
    with pytest.raises(ValueError):
        table.map_run(12345, [678, 679])


# ---------------------------------------------------------------------
# Publish / attach round trip
# ---------------------------------------------------------------------

def test_publish_attach_round_trip(trace):
    with TraceStore() as store:
        handle = store.publish(trace)
        assert store.publish(trace) is handle  # idempotent per key
        twin = attach(handle)
        for name in ("pc", "va", "is_write", "inst_gap", "dep_dist"):
            assert np.array_equal(getattr(twin, name),
                                  getattr(trace, name))
        assert not twin.va.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            twin.va[0] = 0
        for va in trace.va[:200]:
            assert twin.process.translate(int(va)) == \
                trace.process.translate(int(va))


def test_attached_trace_simulates_identically(trace):
    system = inorder_system(BASELINE_L1)
    want = simulate(trace, system)
    with TraceStore() as store:
        twin = attach(store.publish(trace))
        got = simulate(twin, inorder_system(BASELINE_L1))
    assert dataclasses.asdict(got) == dataclasses.asdict(want)


# ---------------------------------------------------------------------
# Segment lifecycle: nothing may leak into /dev/shm
# ---------------------------------------------------------------------

def _assert_unlinked(names):
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def test_close_unlinks_every_segment(trace):
    store = TraceStore()
    store.publish(trace)
    names = store.names
    assert names
    store.close()
    _assert_unlinked(names)
    store.close()  # idempotent


def test_sweep_parallel_substrate_matches_serial(tmp_path):
    spec = spec_small()
    serial = run_sweep(spec, n_accesses=600, traces=TraceCache(),
                       runner=_Runner(checkpoint_dir=tmp_path / "s"))
    parallel = run_sweep(spec, n_accesses=600, traces=TraceCache(),
                         runner=_Runner(jobs=2,
                                        checkpoint_dir=tmp_path / "p"))
    assert json.dumps(parallel, sort_keys=True, default=str) == \
        json.dumps(serial, sort_keys=True, default=str)


def _shm_names():
    import pathlib
    root = pathlib.Path("/dev/shm")
    return {p.name for p in root.iterdir()} if root.is_dir() else set()


def test_sweep_completion_leaves_no_segments(tmp_path):
    before = _shm_names()
    run_sweep(spec_small(), n_accesses=500, traces=TraceCache(),
              runner=_Runner(jobs=2, checkpoint_dir=tmp_path))
    assert _shm_names() <= before


def test_sweep_interrupt_leaves_no_segments(tmp_path, monkeypatch):
    before = _shm_names()
    runner = _Runner(jobs=2, checkpoint_dir=tmp_path)

    def boom(cells, **kw):
        raise KeyboardInterrupt

    monkeypatch.setattr(runner, "run_cells", boom)
    with pytest.raises(KeyboardInterrupt):
        run_sweep(spec_small(), n_accesses=500, traces=TraceCache(),
                  runner=runner)
    assert _shm_names() <= before


def test_sweep_worker_crash_leaves_no_segments(tmp_path, monkeypatch):
    before = _shm_names()
    runner = _Runner(jobs=2, checkpoint_dir=tmp_path)

    def die(cells, **kw):
        raise RuntimeError("worker pool died")

    monkeypatch.setattr(runner, "run_cells", die)
    with pytest.raises(RuntimeError):
        run_sweep(spec_small(), n_accesses=500, traces=TraceCache(),
                  runner=runner)
    assert _shm_names() <= before


@pytest.mark.parametrize("interrupt", [False, True])
def test_sweep_leaves_no_ephemeral_warm_root(tmp_path, monkeypatch,
                                             interrupt):
    """A parallel sweep without a store creates no temporary store
    root: its cells exchange no results, so neither completion nor
    KeyboardInterrupt has one to remove."""
    import tempfile
    temp_root = tmp_path / "tmp"
    temp_root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp_root))
    runner = _Runner(jobs=2, checkpoint_dir=tmp_path / "ckpt")
    run_cells = runner.run_cells
    seen = []

    def spy(cells, **kw):
        seen.extend(temp_root.glob("repro-warm-*"))
        if interrupt:
            raise KeyboardInterrupt
        rows = run_cells(cells, **kw)
        seen.extend(temp_root.glob("repro-warm-*"))
        return rows

    monkeypatch.setattr(runner, "run_cells", spy)
    if interrupt:
        with pytest.raises(KeyboardInterrupt):
            run_sweep(spec_small(), n_accesses=500, traces=TraceCache(),
                      runner=runner)
    else:
        run_sweep(spec_small(), n_accesses=500, traces=TraceCache(),
                  runner=runner)
    assert seen == []
    assert not list(temp_root.rglob("*.result.pkl"))
    assert not list(temp_root.glob("repro-warm-*"))


# ---------------------------------------------------------------------
# TraceCache LRU bound
# ---------------------------------------------------------------------

def test_trace_cache_lru_eviction():
    cache = TraceCache(max_traces=2)
    a = cache.get("povray", 400, seed=0)
    b = cache.get("povray", 400, seed=1)
    assert cache.get("povray", 400, seed=0) is a  # refresh recency
    cache.get("povray", 400, seed=2)  # evicts seed=1, the LRU entry
    assert cache.get("povray", 400, seed=0) is a
    assert cache.get("povray", 400, seed=1) is not b


def test_trace_cache_rejects_nonpositive_cap():
    with pytest.raises(ConfigError):
        TraceCache(max_traces=0)


def test_trace_cache_clear():
    cache = TraceCache(max_traces=4)
    a = cache.get("povray", 400, seed=0)
    cache.clear()
    assert cache.get("povray", 400, seed=0) is not a


# ---------------------------------------------------------------------
# Orphan-segment scavenging (parent SIGKILL recovery)
# ---------------------------------------------------------------------

def _shm_dir():
    from repro.workloads.substrate import _SHM_DIR
    if not _SHM_DIR.is_dir():
        pytest.skip("no /dev/shm on this platform")
    return _SHM_DIR


def _dead_pid():
    """A pid guaranteed dead: a child we spawn and reap."""
    import subprocess
    import sys
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


def test_segments_are_named_after_owner_pid(trace):
    import os
    with TraceStore() as store:
        store.publish(trace)
        (name,) = store.names
        assert name.startswith(f"repro-trace-{os.getpid()}-")


def test_scavenger_unlinks_dead_owner_segments(trace):
    from repro.workloads.substrate import scavenge_orphan_segments
    shm_dir = _shm_dir()
    orphan = shm_dir / f"repro-trace-{_dead_pid()}-1"
    orphan.write_bytes(b"stale segment from a SIGKILLed run")
    try:
        assert scavenge_orphan_segments() >= 1
        assert not orphan.exists()
    finally:
        orphan.unlink(missing_ok=True)


def test_scavenger_spares_live_owner_and_foreign_names(trace):
    import os
    from repro.workloads.substrate import scavenge_orphan_segments
    shm_dir = _shm_dir()
    foreign = shm_dir / f"not-repro-trace-{_dead_pid()}-1"
    foreign.write_bytes(b"someone else's tenant")
    try:
        with TraceStore() as store:
            store.publish(trace)  # live segment, owned by this pid
            (live,) = store.names
            scavenge_orphan_segments()
            assert (shm_dir / live).exists()
            assert foreign.exists()
    finally:
        foreign.unlink(missing_ok=True)
    assert not (shm_dir / live).exists()  # close() still unlinks


def test_first_publish_scavenges_orphans(trace, monkeypatch):
    import repro.workloads.substrate as substrate
    shm_dir = _shm_dir()
    orphan = shm_dir / f"repro-trace-{_dead_pid()}-7"
    orphan.write_bytes(b"stale")
    monkeypatch.setattr(substrate, "_scavenged", False)
    try:
        with TraceStore() as store:
            store.publish(trace)
        assert not orphan.exists()
    finally:
        orphan.unlink(missing_ok=True)
