"""Tests for the content-addressed result store (``repro.store``).

The load-bearing properties:

* digests are pure functions of *what was simulated* — stable across
  processes (no ``hash()``), sensitive to every config knob and to
  trace content;
* a store hit is a pure redundancy elimination: rows are byte-identical
  to a cold run, serial and parallel, and the second run of a grid
  simulates nothing;
* anything corrupt, truncated, or version-skewed is a miss, never an
  error;
* GC evicts in true LRU order (hits refresh recency);
* the jobs front end counts progress against the store, so overlapping
  grids share finished cells, and composes a CSV byte-identical to a
  cold sweep;
* a warm pass derives each cell identity once and reads each digest
  once.
"""

import json
import pickle
import subprocess
import sys
import threading

import pytest

from repro.errors import ConfigError
from repro.sim import BASELINE_L1, SIPT_GEOMETRIES, ooo_system, warmstate
from repro.sim.experiment import TraceCache
from repro.sim.faults import FaultInjector
from repro.sim.resilience import ResilientRunner
from repro.sim.sweep import (SweepSpec, grid_cells, rows_from_store,
                             run_sweep)
from repro.store import (ResultStore, cell_identity, diagnose, job_id_for,
                         job_status, list_jobs, load_job, submit_job,
                         system_payload)
from repro.store import resultstore
from repro.workloads import MemoryCondition, generate_trace


@pytest.fixture
def trace():
    return generate_trace("gamess", 1000, seed=3)


def spec_small():
    return SweepSpec(apps=["gamess"],
                     configs={"base": BASELINE_L1,
                              "sipt": SIPT_GEOMETRIES["32K_2w"]},
                     seeds=[0],
                     baseline="base")


def rows_blob(rows):
    return json.dumps(rows, sort_keys=True, default=str)


def simulate_one(trace):
    from repro.sim import simulate
    return simulate(trace, ooo_system(BASELINE_L1))


# ---------------------------------------------------------------------
# Digest scheme
# ---------------------------------------------------------------------

def test_digest_stable_across_processes(trace):
    """The digest must not involve hash(); PYTHONHASHSEED can't move it."""
    here = cell_identity(trace.recipe, ooo_system(BASELINE_L1))
    script = (
        "from repro.workloads import generate_trace\n"
        "from repro.sim import BASELINE_L1, ooo_system\n"
        "from repro.store import cell_identity\n"
        "t = generate_trace('gamess', 1000, seed=3)\n"
        "print(cell_identity(t.recipe, ooo_system(BASELINE_L1)))\n")
    for seed in ("0", "12345"):
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True,
            text=True, check=True,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": seed})
        assert out.stdout.strip() == here


def test_digest_distinguishes_configs_and_traces(trace):
    base = cell_identity(trace.recipe, ooo_system(BASELINE_L1))
    assert cell_identity(trace.recipe, ooo_system(
        SIPT_GEOMETRIES["32K_2w"])) != base
    other = generate_trace("gamess", 1000, seed=4)
    assert cell_identity(other.recipe, ooo_system(BASELINE_L1)) != base
    newer = trace.recipe._replace(version=trace.recipe.version + 1)
    assert cell_identity(newer, ooo_system(BASELINE_L1)) != base


def test_system_payload_is_full_config_with_enums_by_value():
    payload = system_payload(ooo_system(SIPT_GEOMETRIES["32K_2w"]))
    assert payload["l1"]["scheme"] == "sipt"          # enum -> value
    assert payload["l1"]["capacity"] == 32 * 1024     # every knob present
    json.dumps(payload, sort_keys=True)               # canonical-JSON safe


# ---------------------------------------------------------------------
# Round trip, corruption, version skew
# ---------------------------------------------------------------------

def test_result_round_trip_and_counters(tmp_path, trace):
    store = ResultStore(tmp_path)
    digest = store.digest(trace.recipe, ooo_system(BASELINE_L1))
    assert store.fetch_result(digest) is None
    assert store.misses == 1
    result = simulate_one(trace)
    store.store_result(digest, result, meta={"app": "gamess"})
    assert store.contains(digest)
    assert store.stores == 1
    got = ResultStore(tmp_path).fetch_result(digest)
    assert got is not None and got.ipc == result.ipc
    meta = json.loads(store.meta_path(digest).read_text())
    assert meta["app"] == "gamess"


def test_store_result_is_idempotent(tmp_path, trace):
    store = ResultStore(tmp_path)
    digest = store.digest(trace.recipe, ooo_system(BASELINE_L1))
    result = simulate_one(trace)
    store.store_result(digest, result)
    store.store_result(digest, result)
    assert store.stores == 1  # second call only touched


def test_corrupt_and_truncated_entries_are_misses(tmp_path, trace):
    store = ResultStore(tmp_path)
    digest = store.digest(trace.recipe, ooo_system(BASELINE_L1))
    store.store_result(digest, simulate_one(trace))
    store.result_path(digest).write_bytes(b"\x00 not a pickle")
    fresh = ResultStore(tmp_path)
    assert fresh.fetch_result(digest) is None
    # The damaged file was discarded, so the slot is rewritable.
    assert not fresh.result_path(digest).exists()
    store.store_result(digest, simulate_one(trace))
    data = store.result_path(digest).read_bytes()
    store.result_path(digest).write_bytes(data[:len(data) // 2])
    assert ResultStore(tmp_path).fetch_result(digest) is None


def test_wrong_typed_pickle_is_a_miss(tmp_path, trace):
    store = ResultStore(tmp_path)
    digest = store.digest(trace.recipe, ooo_system(BASELINE_L1))
    path = store.result_path(digest)
    path.parent.mkdir(parents=True)
    path.write_bytes(pickle.dumps({"not": "a SimResult"}))
    assert store.fetch_result(digest) is None


def test_layout_version_skew_degrades_to_miss(tmp_path, trace):
    store = ResultStore(tmp_path)
    digest = store.digest(trace.recipe, ooo_system(BASELINE_L1))
    store.store_result(digest, simulate_one(trace))
    (tmp_path / "v1").rename(tmp_path / "v0")  # an old layout's entries
    assert ResultStore(tmp_path).fetch_result(digest) is None


def test_bad_cap_env_is_a_typed_error(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE_CAP", "lots")
    with pytest.raises(ConfigError):
        ResultStore(tmp_path)


def test_default_root_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "mystore"))
    assert ResultStore().root == tmp_path / "mystore"


# ---------------------------------------------------------------------
# GC
# ---------------------------------------------------------------------

def test_gc_evicts_lru_first(tmp_path):
    store = ResultStore(tmp_path, cap_bytes=0)
    traces = [generate_trace("gamess", 1000, seed=s) for s in range(3)]
    system = ooo_system(BASELINE_L1)
    digests = []
    for t in traces:
        digest = store.digest(t.recipe, system)
        store.store_result(digest, simulate_one(t))
        digests.append(digest)
    import os
    for i, digest in enumerate(digests):
        os.utime(store.result_path(digest), (1000 + i, 1000 + i))
    # A hit refreshes the oldest entry's mtime, demoting the middle one.
    assert store.fetch_result(digests[0]) is not None
    one_entry = store.result_path(digests[0]).stat().st_size
    removed, freed = store.gc(cap_bytes=2 * one_entry + 2)
    assert removed == 1 and freed > 0
    assert not store.contains(digests[1])      # true LRU victim
    assert store.contains(digests[0])          # refreshed by the hit
    assert store.contains(digests[2])
    assert store.evicted == 1


def test_gc_zero_cap_is_unbounded(tmp_path, trace):
    store = ResultStore(tmp_path, cap_bytes=0)
    store.store_result(store.digest(trace.recipe, ooo_system(BASELINE_L1)),
                       simulate_one(trace))
    assert store.gc() == (0, 0)
    assert store.total_bytes() > 0


# ---------------------------------------------------------------------
# Concurrency
# ---------------------------------------------------------------------

def test_concurrent_writers_same_digest_are_benign(tmp_path, trace):
    result = simulate_one(trace)
    system = ooo_system(BASELINE_L1)
    errors = []

    def writer():
        try:
            store = ResultStore(tmp_path)
            for _ in range(20):
                store.store_result(store.digest(trace.recipe, system), result)
        except Exception as exc:  # pragma: no cover - the assertion
            errors.append(exc)

    threads = [threading.Thread(target=writer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    got = ResultStore(tmp_path).fetch_result(
        ResultStore(tmp_path).digest(trace.recipe, system))
    assert got is not None and got.ipc == result.ipc


# ---------------------------------------------------------------------
# Sweep integration: hits must be byte-identical, misses must simulate
# ---------------------------------------------------------------------

def test_store_sweep_round_trip_serial(tmp_path):
    cold = run_sweep(spec_small(), n_accesses=600, traces=TraceCache(),
                     store=ResultStore(tmp_path))
    runner = ResilientRunner()
    warm = run_sweep(spec_small(), n_accesses=600, traces=TraceCache(),
                     runner=runner, store=ResultStore(tmp_path))
    assert rows_blob(warm) == rows_blob(cold)
    assert runner.stats.store_hits == runner.stats.total == len(warm)
    assert "store hits" in runner.stats.summary()


def test_store_sweep_round_trip_parallel(tmp_path):
    cold = run_sweep(spec_small(), n_accesses=600, traces=TraceCache(),
                     runner=ResilientRunner(jobs=2),
                     store=ResultStore(tmp_path / "s"))
    runner = ResilientRunner(jobs=2)
    warm = run_sweep(spec_small(), n_accesses=600, traces=TraceCache(),
                     runner=runner, store=ResultStore(tmp_path / "s"))
    assert rows_blob(warm) == rows_blob(cold)
    assert runner.stats.store_hits == runner.stats.total
    # Cross-mode: a serial run over the parallel run's store also hits.
    serial = ResilientRunner()
    again = run_sweep(spec_small(), n_accesses=600, traces=TraceCache(),
                      runner=serial, store=ResultStore(tmp_path / "s"))
    assert rows_blob(again) == rows_blob(cold)
    assert serial.stats.store_hits == serial.stats.total


def test_store_rows_identical_to_storeless_run(tmp_path):
    plain = run_sweep(spec_small(), n_accesses=600, traces=TraceCache())
    stored = run_sweep(spec_small(), n_accesses=600, traces=TraceCache(),
                       store=ResultStore(tmp_path))
    assert rows_blob(stored) == rows_blob(plain)


def test_resume_journal_takes_precedence_over_store(tmp_path):
    spec = spec_small()
    journal = tmp_path / "journal.jsonl"
    store = ResultStore(tmp_path / "s")
    first = ResilientRunner(journal=journal)
    want = run_sweep(spec, n_accesses=600, traces=TraceCache(),
                     runner=first, store=store)
    # Drop the last record: the resumed run replays the journaled rows
    # for finished cells and satisfies the dropped one from the store.
    lines = journal.read_text().splitlines()
    journal.write_text("\n".join(lines[:-1]) + "\n")
    resumed = ResilientRunner(journal=journal, resume_from=journal)
    got = run_sweep(spec, n_accesses=600, traces=TraceCache(),
                    runner=resumed, store=ResultStore(tmp_path / "s"))
    assert rows_blob(got) == rows_blob(want)
    assert resumed.stats.resumed == len(lines) - 1
    assert resumed.stats.store_hits == 1


def test_store_disabled_under_fault_injection(tmp_path):
    store = ResultStore(tmp_path)
    runner = ResilientRunner(faults=FaultInjector(["transient@1"]))
    run_sweep(spec_small(), n_accesses=600, traces=TraceCache(),
              runner=runner, store=store)
    # Nothing read from or written to the store: faulted campaigns
    # intentionally diverge and must not poison shared state.
    assert list(store.entries()) == []
    assert runner.stats.store_hits == 0


def test_missing_baseline_simulates_only_the_baseline(tmp_path):
    """A stored cell is a hit even when its group's baseline is not
    stored: only the baseline simulates, and the sibling's ratios come
    from the fresh baseline row."""
    spec = spec_small()
    store = ResultStore(tmp_path)
    cold = run_sweep(spec, n_accesses=600, traces=TraceCache(), store=store)
    for key, _recipe, _system in grid_cells(spec, 600):
        if key["config"] == "base":
            store._discard(key["cell"])
    runner = ResilientRunner()
    rows = run_sweep(spec, n_accesses=600, traces=TraceCache(),
                     runner=runner, store=ResultStore(tmp_path))
    assert runner.stats.store_hits == 1
    assert rows_blob(rows) == rows_blob(cold)


def test_rows_from_store_without_baseline_keeps_sibling_missing(tmp_path):
    spec = spec_small()
    store = ResultStore(tmp_path)
    run_sweep(spec, n_accesses=600, traces=TraceCache(), store=store)
    base = [key for key, _r, _s in grid_cells(spec, 600)
            if key["config"] == "base"]
    for key in base:
        store._discard(key["cell"])
    rows, missing = rows_from_store(spec, 600, ResultStore(tmp_path))
    assert len(missing) == len(rows) == 2  # the baseline and its sibling
    assert all(row["status"] == "" for row in rows)


# ---------------------------------------------------------------------
# The sweep leaves the process-wide warm cache unbound
# ---------------------------------------------------------------------

def test_ephemeral_store_tier_detaches_after_sweep(tmp_path):
    run_sweep(spec_small(), n_accesses=600, traces=TraceCache(),
              store=ResultStore(tmp_path))
    assert warmstate._PROCESS_CACHE.result_store is None


# ---------------------------------------------------------------------
# Jobs front end
# ---------------------------------------------------------------------

def grid_and_cells(spec, n_accesses, store):
    grid = {"apps": spec.apps, "geometries": list(spec.configs),
            "baseline": spec.baseline, "cores": spec.cores,
            "conditions": [c.value for c in spec.conditions],
            "seeds": spec.seeds, "accesses": n_accesses}
    cells = [(key, store.digest(recipe, system))
             for key, recipe, system in grid_cells(spec, n_accesses)]
    return grid, cells


def test_job_lifecycle_and_overlap_sharing(tmp_path):
    store = ResultStore(tmp_path)
    spec = spec_small()
    grid, cells = grid_and_cells(spec, 600, store)
    summary = submit_job(store, grid, cells)
    assert summary == {"id": job_id_for(grid), "cells": len(cells),
                       "done": 0}
    # Resubmitting the identical grid is the same job, not a duplicate.
    again = submit_job(store, grid, cells)
    assert again["id"] == summary["id"]
    assert len(list_jobs(store)[0]) == 1
    # An overlapping, wider grid: every cell is pending for both jobs.
    wide = SweepSpec(apps=["gamess", "tonto"],
                     configs=dict(spec.configs), seeds=[0],
                     baseline="base")
    grid2, cells2 = grid_and_cells(wide, 600, store)
    summary2 = submit_job(store, grid2, cells2)
    assert summary2["done"] == 0
    st = job_status(store, load_job(store, summary2["id"]))
    assert st == {"total": len(cells2), "done": 0, "pending": len(cells2)}
    # Submission journals the grids and writes no per-cell state.
    assert not (tmp_path / "pending").exists()
    # Running only the wider grid completes both jobs through the store,
    # and leaves nothing for the doctor to find.
    run_sweep(wide, n_accesses=600, traces=TraceCache(), store=store)
    for job in (summary, summary2):
        total = job["cells"]
        assert job_status(store, load_job(store, job["id"])) == {
            "total": total, "done": total, "pending": 0}
    assert submit_job(store, grid, cells)["done"] == len(cells)
    assert diagnose(store) == []


def test_rows_from_store_matches_cold_run(tmp_path):
    spec = spec_small()
    store = ResultStore(tmp_path)
    cold = run_sweep(spec, n_accesses=600, traces=TraceCache(),
                     store=store)
    rows, missing = rows_from_store(spec, 600, ResultStore(tmp_path))
    assert missing == []
    assert rows_blob(rows) == rows_blob(cold)


def test_rows_from_store_reports_missing_cells(tmp_path):
    spec = spec_small()
    rows, missing = rows_from_store(spec, 600, ResultStore(tmp_path))
    assert len(missing) == len(rows) == 2


# ---------------------------------------------------------------------
# One pass per store-served grid
# ---------------------------------------------------------------------

def warm_grid_spec():
    """36 cells in 12 (app, condition) groups, as perfbench's
    ``sweep-warm`` grid."""
    return SweepSpec(apps=["mcf", "perlbench", "libquantum", "gamess",
                           "omnetpp", "graph500"],
                     configs={"baseline": BASELINE_L1,
                              "32K_2w": SIPT_GEOMETRIES["32K_2w"],
                              "64K_4w": SIPT_GEOMETRIES["64K_4w"]},
                     conditions=[MemoryCondition.NORMAL,
                                 MemoryCondition.FRAGMENTED],
                     baseline="baseline")


@pytest.fixture
def counted(monkeypatch):
    """Every ``cell_identity`` call (wherever it is imported) and every
    digest ``ResultStore.fetch_result`` reads."""
    calls = {"identity": 0, "fetch": []}
    real_identity = resultstore.cell_identity
    real_fetch = ResultStore.fetch_result

    def identity(recipe, system):
        calls["identity"] += 1
        return real_identity(recipe, system)

    def fetch(self, digest):
        calls["fetch"].append(digest)
        return real_fetch(self, digest)

    for module in list(sys.modules.values()):
        if (module.__name__.startswith("repro")
                and getattr(module, "cell_identity", None) is real_identity):
            monkeypatch.setattr(module, "cell_identity", identity)
    monkeypatch.setattr(ResultStore, "fetch_result", fetch)
    return calls


def test_store_served_grid_takes_one_identity_and_one_read_per_cell(
        tmp_path, counted):
    spec = warm_grid_spec()
    cold = run_sweep(spec, n_accesses=600, traces=TraceCache(),
                     engine="kernel", store=ResultStore(tmp_path))
    # A cold sweep reads each cell once, in the pre-pass, and executed
    # cells read nothing back.
    assert len(counted["fetch"]) == len(set(counted["fetch"])) == 36
    for compose in (
            lambda: run_sweep(spec, n_accesses=600, traces=TraceCache(),
                              runner=ResilientRunner(),
                              store=ResultStore(tmp_path)),
            lambda: rows_from_store(spec, 600, ResultStore(tmp_path))[0]):
        counted["identity"] = 0
        counted["fetch"].clear()
        rows = compose()
        assert rows_blob(rows) == rows_blob(cold)
        # One identity and one read per cell; the ratio columns come
        # from the baseline rows already read.
        assert counted["identity"] == 36
        assert len(counted["fetch"]) == len(set(counted["fetch"])) == 36


def test_unknown_job_is_a_typed_error(tmp_path):
    with pytest.raises(ConfigError):
        load_job(ResultStore(tmp_path), "deadbeef0000")


# ---------------------------------------------------------------------
# Tmp litter (PR 9 satellite): gc sweeps, entries skip, doctor sees
# ---------------------------------------------------------------------

def test_gc_sweeps_aged_tmp_litter_only(tmp_path, trace):
    import os
    from repro.store.resultstore import TMP_MAX_AGE_S
    store = ResultStore(tmp_path, cap_bytes=10**9)
    digest = store.digest(trace.recipe, ooo_system(BASELINE_L1))
    store.store_result(digest, simulate_one(trace))
    old = store.result_path(digest).parent / "dead.result.pkl.123.tmp"
    old.write_bytes(b"partial")
    stale = 2 * TMP_MAX_AGE_S
    os.utime(old, (old.stat().st_mtime - stale,
                   old.stat().st_mtime - stale))
    young = store.result_path(digest).parent / "live.result.pkl.9.tmp"
    young.write_bytes(b"inflight")
    store.gc()
    assert store.tmp_swept == 1
    assert not old.exists() and young.exists()
    assert store.contains(digest)


def test_entries_and_size_skip_tmp_files(tmp_path, trace):
    store = ResultStore(tmp_path)
    digest = store.digest(trace.recipe, ooo_system(BASELINE_L1))
    store.store_result(digest, simulate_one(trace))
    (store.result_path(digest).parent / "x.tmp").write_bytes(b"junk")
    digests = [d for d, _ in store.entries()]
    assert digests == [digest]
    for _, files in store.entries():
        assert not [p for p in files if p.name.endswith(".tmp")]
