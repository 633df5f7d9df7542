"""Tests for warm-state reuse (``repro.sim.warmstate``).

The load-bearing property: warm-state reuse is a pure redundancy
elimination. Sweep rows must be byte-identical to rows computed cell by
cell without any warm state, serial or parallel, and composed with
per-cell checkpointing and journal resume. The cache itself must treat
anything unverifiable as a miss, never an error.
"""

import json

import pytest

from repro.sim import (BASELINE_L1, SIPT_GEOMETRIES, inorder_system, simulate,
                       system_for)
from repro.sim.experiment import TraceCache, run_app
from repro.sim.resilience import ResilientRunner
from repro.sim.sweep import (FIELDS, SweepSpec, _result_row, grid_cells,
                             run_sweep)
from repro.sim.warmstate import WarmStateCache, warm_cache_for
from repro.store import ResultStore, cell_identity
from repro.workloads import generate_trace


@pytest.fixture
def trace():
    return generate_trace("gamess", 1200, seed=7)


def spec_small():
    return SweepSpec(apps=["gamess"],
                     configs={"base": BASELINE_L1,
                              "sipt": SIPT_GEOMETRIES["32K_2w"]},
                     seeds=[0],
                     baseline="base")


def rows_blob(rows):
    return json.dumps(rows, sort_keys=True, default=str)


def reference_rows(spec, n_accesses):
    """The grid's rows computed directly: one ``run_app`` per cell and
    per baseline with no warm state, and no runner; the ratios come
    from ``SimResult.speedup_over``/``energy_over``."""
    traces = TraceCache()
    blank = {name: "" for name in FIELDS}
    rows = []
    for key, recipe, system in grid_cells(spec, n_accesses):
        def run(system):
            return run_app(recipe.app, system, condition=recipe.condition,
                           n_accesses=n_accesses, seed=recipe.seed,
                           cache=traces, warm_state=None)
        result = run(system)
        row = {**blank, **_result_row(key, result),
               "status": "ok", "error": ""}
        if spec.baseline is not None:
            base = run(system_for(system.core, spec.configs[spec.baseline]))
            row.update(speedup=result.speedup_over(base),
                       energy_ratio=result.energy_over(base))
        rows.append(row)
    return rows


# ---------------------------------------------------------------------
# Cache mechanics
# ---------------------------------------------------------------------

def test_state_store_fetch_round_trip(trace, tmp_path):
    cache = WarmStateCache(ResultStore(tmp_path))
    system = inorder_system(BASELINE_L1)
    assert cache.fetch(trace, system) is None  # cold
    cold = simulate(trace, system, warm_state=cache)
    assert cache.stores >= 1
    payload = cache.fetch(trace, system)
    assert payload is not None
    assert payload["position"] == len(trace)
    # A warm re-run restores the snapshot and reproduces the result.
    hits = cache.hits
    warm = simulate(trace, inorder_system(BASELINE_L1), warm_state=cache)
    assert cache.hits > hits
    assert warm.ipc == cold.ipc
    # A sibling cache over the same store root sees the published entry.
    twin = WarmStateCache(ResultStore(tmp_path))
    assert twin.fetch(trace, system) is not None


def test_result_store_fetch_round_trip(trace, tmp_path):
    system = inorder_system(BASELINE_L1)
    result = simulate(trace, system)
    cell = cell_identity(trace.recipe, system)
    cache = WarmStateCache(ResultStore(tmp_path))
    assert cache.fetch_result(cell) is None
    cache.store_result(cell, result)
    assert cache.fetch_result(cell) is result
    twin = WarmStateCache(ResultStore(tmp_path))
    got = twin.fetch_result(cell)
    assert got is not None and got.ipc == result.ipc


def test_corrupt_published_files_are_misses(trace, tmp_path):
    system = inorder_system(BASELINE_L1)
    cache = WarmStateCache(ResultStore(tmp_path))
    result = simulate(trace, system, warm_state=cache)
    cache.store_result(cell_identity(trace.recipe, system), result)
    entries = [p for p in tmp_path.rglob("*") if p.is_file()]
    assert entries
    for path in entries:
        path.write_bytes(b"\x00 not a snapshot \x00")
    fresh = WarmStateCache(ResultStore(tmp_path))
    assert fresh.fetch(trace, system) is None
    assert fresh.fetch_result(cell_identity(trace.recipe, system)) is None


def test_clear_drops_memory_not_files(trace, tmp_path):
    system = inorder_system(BASELINE_L1)
    cache = WarmStateCache(ResultStore(tmp_path))
    simulate(trace, system, warm_state=cache)
    cache.clear()
    assert cache.fetch(trace, system) is not None  # re-read from store


def test_snapshot_in_memory_still_reaches_new_store_tier(trace, tmp_path):
    """The LRU tier outlives store bindings, so a snapshot already in
    memory must still be published to a store bound afterwards."""
    system = inorder_system(BASELINE_L1)
    cache = WarmStateCache()
    simulate(trace, system, warm_state=cache)
    state = cache.fetch(trace, system)["state"]
    store = ResultStore(tmp_path)
    cache.result_store = store
    cache.store(trace, system, state)
    assert store.fetch_state(store.digest(trace.recipe, system),
                             trace=trace) is not None


def test_warm_cache_for_binds_store_tier(tmp_path):
    store = ResultStore(tmp_path)
    cache = warm_cache_for(store)
    assert cache.result_store is store
    # One cache per process; only its store tier follows the caller.
    assert warm_cache_for(None) is cache
    assert cache.result_store is None


def test_core_kinds_do_not_share_warm_entries(trace, tmp_path):
    """ooo and ooo-detailed share a generated system name but snapshot
    incompatible core state; the cache key must keep them apart.

    Regression: a `--cores ooo,ooo-detailed` sweep warmed the detailed
    cells from the plain-ooo snapshot and every detailed cell died in
    ``DetailedOooCore.load_state_dict`` (KeyError: 'index')."""
    from dataclasses import replace
    from repro.sim import ooo_system
    ooo = ooo_system(SIPT_GEOMETRIES["32K_2w"])
    detailed = replace(ooo, core="ooo-detailed")
    assert ooo.name == detailed.name  # the collision this test pins
    cache = WarmStateCache(ResultStore(tmp_path))
    plain = simulate(trace, ooo, warm_state=cache)
    assert cache.fetch(trace, detailed) is None
    cold = simulate(trace, detailed)
    warm = simulate(trace, detailed, warm_state=cache)
    assert warm.cycles == cold.cycles
    assert warm.cycles != plain.cycles  # detailed model really ran


def test_same_named_configs_do_not_share_warm_entries(trace):
    """System names omit some L1 fields (way prediction among them), so
    two distinct configs can share a name; the process-wide cache must
    not hand one's result or snapshot to the other."""
    from dataclasses import replace
    from repro.sim import ooo_system
    plain = ooo_system(SIPT_GEOMETRIES["32K_2w"])
    predicted = ooo_system(replace(SIPT_GEOMETRIES["32K_2w"],
                                   way_prediction=True))
    assert plain.name == predicted.name  # the collision this test pins
    cache = WarmStateCache()
    result = simulate(trace, plain, warm_state=cache)
    cache.store_result(cell_identity(trace.recipe, plain), result)
    assert cache.fetch_result(cell_identity(trace.recipe, predicted)) is None
    assert cache.fetch(trace, predicted) is None


# ---------------------------------------------------------------------
# End-to-end identity: warm reuse must not change a single byte
# ---------------------------------------------------------------------

def test_serial_rows_identical_warm_on_off():
    want = reference_rows(spec_small(), 600)
    got = run_sweep(spec_small(), n_accesses=600, traces=TraceCache())
    assert rows_blob(got) == rows_blob(want)


def test_parallel_rows_identical_warm_on_off(tmp_path):
    want = reference_rows(spec_small(), 600)
    got = run_sweep(spec_small(), n_accesses=600, traces=TraceCache(),
                    runner=ResilientRunner(jobs=2,
                                           checkpoint_dir=tmp_path))
    assert rows_blob(got) == rows_blob(want)


def test_warm_rows_identical_under_checkpoint_every(tmp_path):
    want = reference_rows(spec_small(), 600)
    runner = ResilientRunner(jobs=2, checkpoint_dir=tmp_path)
    got = run_sweep(spec_small(), n_accesses=600, traces=TraceCache(),
                    runner=runner, checkpoint_every=200)
    assert rows_blob(got) == rows_blob(want)


def test_warm_rows_identical_under_resume(tmp_path):
    spec = spec_small()
    want = reference_rows(spec, 600)
    journal = tmp_path / "journal.jsonl"
    first = ResilientRunner(jobs=2, journal=journal,
                            checkpoint_dir=tmp_path / "c1")
    run_sweep(spec, n_accesses=600, traces=TraceCache(), runner=first)
    # Drop the last journal record so the resume has real work to do.
    lines = journal.read_text().splitlines()
    journal.write_text("\n".join(lines[:-1]) + "\n")
    resumed = ResilientRunner(jobs=2, journal=journal,
                              resume_from=journal,
                              checkpoint_dir=tmp_path / "c2")
    got = run_sweep(spec, n_accesses=600, traces=TraceCache(),
                    runner=resumed)
    assert rows_blob(got) == rows_blob(want)
