"""Differential tests for the array-compiled replay kernel.

``repro.sim.kernel`` must be *byte-identical* to the pure-python
replay loop — the python path is its differential oracle. These tests
enforce that on a grid of configurations (geometries, variants, cores
including ``ooo-detailed``, way prediction, memory conditions),
through every chunked-replay shape (interval sampling, checkpointing,
crash/resume), on the walk-heavy graph500 (whose page walks take
the kernel's compiled walk: walker stats and PWC order must match
too), and via hypothesis fuzzes that drive randomized short
traces through all three replay implementations
(``_CoreContext.step``, ``_replay_range``, the kernel) at once —
single-core and randomized multicore trace sets over the shared
LLC/DRAM miss path.

Also covers the kernel's observability satellites: per-reason decline
counters, the ``REPRO_KERNEL_DEBUG`` build-error re-raise, the
LRU-bounded stream memo, the O(n) chunked-replay cursor in
``_replay_range``, and the ``ConfigError`` boundary for malformed
integer environment overrides.
"""

import dataclasses
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.set_assoc import SetAssociativeCache
from repro.core.indexing import SiptVariant
from repro.errors import ConfigError, SimulationError
from repro.sim import (
    BASELINE_L1,
    SIPT_GEOMETRIES,
    TraceCache,
    inorder_system,
    ooo_system,
    run_app,
    simulate,
)
from repro.sim import kernel as kernel_mod
from repro.sim.driver import (
    RowCursor,
    _CoreContext,
    _replay_range,
    simulate_multicore,
)
from repro.envutil import env_int
from repro.sim.faults import (
    WorkerCrash,
    arm_data_specs,
    arm_fault,
    clear_armed,
    parse_fault,
)
from repro.sim.kernel import decline_counts, make_engine
from repro.timing.dram import DramModel
from repro.workloads.substrate import KernelMemo
from repro.workloads.trace import MemoryCondition

CACHE = TraceCache()
N = 2500


@pytest.fixture(autouse=True)
def _clean_armed_channel():
    clear_armed()
    yield
    clear_armed()


def fingerprint(result):
    """A byte-stable rendering of an entire SimResult."""
    return json.dumps(dataclasses.asdict(result), sort_keys=True,
                      default=str)


def _grid():
    cfg = SIPT_GEOMETRIES["32K_2w"]
    return [
        ("combined", ooo_system(cfg)),
        ("naive", ooo_system(replace(cfg, variant=SiptVariant.NAIVE))),
        ("bypass", ooo_system(replace(cfg, variant=SiptVariant.BYPASS))),
        ("waypred", ooo_system(replace(cfg, way_prediction=True))),
        ("inorder", inorder_system(cfg)),
        ("ooo-detailed", replace(ooo_system(cfg), core="ooo-detailed")),
        ("vipt-baseline", ooo_system(BASELINE_L1)),
        ("64K_4w", ooo_system(SIPT_GEOMETRIES["64K_4w"])),
    ]


# ---------------------------------------------------------------------
# Oracle equivalence
# ---------------------------------------------------------------------

@pytest.mark.parametrize("name,system", _grid(),
                         ids=[name for name, _ in _grid()])
def test_kernel_is_byte_identical_across_grid(name, system):
    trace = CACHE.get("perlbench", N)
    python = simulate(trace, system)
    kernel = simulate(trace, system, engine="kernel")
    assert fingerprint(kernel) == fingerprint(python)


@pytest.mark.parametrize("condition", list(MemoryCondition),
                         ids=[c.value for c in MemoryCondition])
def test_kernel_identical_across_memory_conditions(condition):
    trace = CACHE.get("mcf", N, condition=condition)
    system = ooo_system(SIPT_GEOMETRIES["32K_2w"])
    python = simulate(trace, system)
    kernel = simulate(trace, system, engine="kernel")
    assert fingerprint(kernel) == fingerprint(python)


def _walker_state(ctx):
    """WalkerStats counters and the PWC's LRU order, for comparison."""
    walker = ctx.l1.tlb.walker
    return dataclasses.asdict(walker.stats), list(walker._pwc)


def _replay_both(system, trace, chunk=None):
    """(oracle ctx, kernel ctx, engine) after a full, optionally chunked,
    replay of ``trace`` by each engine."""
    n = len(trace)
    bounds = list(range(0, n, chunk or n)) + [n]
    python = _CoreContext(system, trace)
    kernel = _CoreContext(system, trace)
    engine = make_engine(kernel, _replay_range)
    assert engine is not None
    for start, end in zip(bounds, bounds[1:]):
        _replay_range(python, start, end)
        engine.replay(kernel, start, end)
    assert engine._fallback is False
    # Structural state too (TLB, predictors, caches, PWC): results
    # never read it, but checkpoints and warm-state snapshots do.
    assert kernel.state_dict() == python.state_dict()
    python.completed_once = kernel.completed_once = True
    return python, kernel, engine


@pytest.mark.parametrize("condition", [MemoryCondition.NORMAL,
                                       MemoryCondition.FRAGMENTED],
                         ids=["normal", "fragmented"])
def test_kernel_identical_on_walk_heavy_app(condition):
    """graph500 walks on ~a third of its accesses: the compiled walk
    must leave results, walker stats, and PWC order exactly as the
    live walker does."""
    trace = CACHE.get("graph500", N, condition=condition)
    system = ooo_system(SIPT_GEOMETRIES["32K_2w"])
    assert fingerprint(simulate(trace, system, engine="kernel")) == \
        fingerprint(simulate(trace, system))
    python, kernel, engine = _replay_both(system, trace)
    # The driver's own walker binding takes the compiled walk.
    assert engine._walk != kernel.l1.tlb.walker.walk
    assert kernel.l1.tlb.walker.stats.walks > N // 10
    assert _walker_state(kernel) == _walker_state(python)
    assert fingerprint(kernel.result()) == fingerprint(python.result())


def test_kernel_foreign_walker_callback_walks_live():
    """A walker whose callback is not the driver's keeps ``walk``."""
    trace = CACHE.get("graph500", 600)
    ctx = _CoreContext(ooo_system(SIPT_GEOMETRIES["32K_2w"]), trace)
    ctx.l1.tlb.walker.memory_access = lambda pa: 40
    engine = make_engine(ctx, _replay_range)
    assert engine._walk == ctx.l1.tlb.walker.walk


def test_kernel_checkpointed_walk_heavy_replay_identical(tmp_path):
    """Compiled-walk miss-path deltas cross chunk flushes intact.

    The chunked replay runs after the checkpointed one, so its flushes
    sync from the stream marks that run left behind.
    """
    trace = CACHE.get("graph500", N, condition=MemoryCondition.FRAGMENTED)
    system = ooo_system(SIPT_GEOMETRIES["32K_2w"])
    python = simulate(trace, system)
    kernel = simulate(trace, system, checkpoint_every=500,
                      checkpoint_path=tmp_path / "cell.json",
                      engine="kernel")
    assert fingerprint(kernel) == fingerprint(python)
    py_ctx, k_ctx, _ = _replay_both(system, trace, chunk=500)
    assert _walker_state(k_ctx) == _walker_state(py_ctx)
    assert fingerprint(k_ctx.result()) == fingerprint(py_ctx.result())


def test_kernel_engages_and_stays_synced():
    """The fast path must actually run (no silent permanent fallback)."""
    trace = CACHE.get("perlbench", N)
    ctx = _CoreContext(ooo_system(SIPT_GEOMETRIES["32K_2w"]), trace)
    engine = make_engine(ctx, _replay_range)
    assert engine is not None
    engine.replay(ctx, 0, ctx._len)
    assert engine._fallback is False
    assert engine._synced == ctx._len


def test_kernel_accepts_ooo_detailed_core():
    """ooo-detailed rides the kernel: core model live, streams hot."""
    system = replace(ooo_system(SIPT_GEOMETRIES["32K_2w"]),
                     core="ooo-detailed")
    trace = CACHE.get("perlbench", N)
    ctx = _CoreContext(system, trace)
    engine = make_engine(ctx, _replay_range)
    assert engine is not None
    engine.replay(ctx, 0, ctx._len)
    assert engine._fallback is False
    assert engine._synced == ctx._len


def test_kernel_declines_are_counted_by_reason():
    """An out-of-envelope config declines observably and still matches."""
    cfg = replace(SIPT_GEOMETRIES["32K_2w"], page_bound_idb=True)
    system = ooo_system(cfg)
    trace = CACHE.get("perlbench", N)
    ctx = _CoreContext(system, trace)
    before = decline_counts().get("idb-page-bound", 0)
    assert make_engine(ctx, _replay_range) is None
    assert decline_counts()["idb-page-bound"] == before + 1
    python = simulate(trace, system)
    kernel = simulate(trace, system, engine="kernel")
    assert fingerprint(kernel) == fingerprint(python)
    assert decline_counts()["idb-page-bound"] == before + 2


def test_kernel_debug_reraises_build_errors(monkeypatch):
    """REPRO_KERNEL_DEBUG=1 surfaces a swallowed build exception."""
    system = ooo_system(SIPT_GEOMETRIES["32K_2w"])
    trace = CACHE.get("perlbench", N)

    def boom(kind, way_pred):
        raise RuntimeError("forced build failure")

    monkeypatch.setattr(kernel_mod, "_compile_loop", boom)
    before = decline_counts().get("build-error:RuntimeError", 0)
    assert make_engine(_CoreContext(system, trace),
                       _replay_range) is None
    assert decline_counts()["build-error:RuntimeError"] == before + 1
    monkeypatch.setenv("REPRO_KERNEL_DEBUG", "1")
    with pytest.raises(RuntimeError, match="forced build failure"):
        make_engine(_CoreContext(system, trace), _replay_range)


def test_kernel_memo_is_lru_bounded(monkeypatch):
    """The stream memo evicts LRU at capacity instead of growing."""
    memo = KernelMemo(max_entries=2)
    memo["a"] = 1
    memo["b"] = 2
    assert memo.get("a") == 1      # refreshes "a": "b" is now LRU
    memo["c"] = 3
    assert len(memo) == 2
    assert memo.get("b") is None
    assert memo.get("a") == 1 and memo.get("c") == 3
    monkeypatch.setenv("REPRO_KERNEL_MEMO", "5")
    assert KernelMemo().max_entries == 5
    monkeypatch.setenv("REPRO_KERNEL_MEMO", "0")
    with pytest.raises(ConfigError, match="memo capacity"):
        KernelMemo()


def test_kernel_interval_series_identical():
    trace = CACHE.get("calculix", N)
    system = ooo_system(SIPT_GEOMETRIES["32K_2w"])
    python = simulate(trace, system, interval=700)
    kernel = simulate(trace, system, interval=700, engine="kernel")
    assert kernel.intervals == python.intervals
    assert fingerprint(kernel) == fingerprint(python)


def test_kernel_checkpointed_replay_identical(tmp_path):
    trace = CACHE.get("mcf", N)
    system = ooo_system(SIPT_GEOMETRIES["32K_2w"])
    python = simulate(trace, system)
    kernel = simulate(trace, system, checkpoint_every=500,
                      checkpoint_path=tmp_path / "cell.json",
                      engine="kernel")
    assert fingerprint(kernel) == fingerprint(python)


def test_kernel_crash_resume_identical(tmp_path):
    """Kill a kernel run mid-trace; a kernel resume matches python.

    graph500 resumes with a restored, non-empty page-walk cache that
    the compiled walk must pick up.
    """
    system = ooo_system(SIPT_GEOMETRIES["32K_2w"])
    for app in ("povray", "graph500"):
        trace = CACHE.get(app, N)
        plain = simulate(trace, system)
        ck = tmp_path / f"{app}.json"
        arm_fault("sim_crash", 1300)
        with pytest.raises(WorkerCrash):
            simulate(trace, system, checkpoint_every=500,
                     checkpoint_path=ck, engine="kernel")
        resumed = simulate(trace, system, checkpoint_every=500,
                           checkpoint_path=ck, resume_checkpoint=ck,
                           engine="kernel")
        assert fingerprint(resumed) == fingerprint(plain)


def test_kernel_poisoned_predictor_fails_like_python():
    """A NaN-poisoned perceptron must not survive the fast path."""
    trace = CACHE.get("perlbench", N)
    system = ooo_system(SIPT_GEOMETRIES["32K_2w"])
    arm_data_specs([parse_fault("poison_predictor@0")])
    with pytest.raises(SimulationError):
        simulate(trace, system)
    arm_data_specs([parse_fault("poison_predictor@0")])
    with pytest.raises(SimulationError):
        simulate(trace, system, engine="kernel")


def test_unknown_engine_is_a_config_error():
    trace = CACHE.get("perlbench", N)
    system = ooo_system(BASELINE_L1)
    with pytest.raises(ConfigError, match="unknown engine"):
        simulate(trace, system, engine="numpy")
    with pytest.raises(ConfigError, match="unknown engine"):
        run_app("perlbench", system, n_accesses=N, cache=CACHE,
                engine="numpy")


# ---------------------------------------------------------------------
# Satellite: O(n) chunked-replay cursor
# ---------------------------------------------------------------------

def test_chunked_replay_cursor_matches_full_replay():
    """Many tiny chunks equal one fused range, and reuse one iterator."""
    trace = CACHE.get("calculix", N)
    system = ooo_system(SIPT_GEOMETRIES["32K_2w"])
    full = _CoreContext(system, trace)
    _replay_range(full, 0, full._len)
    chunked = _CoreContext(system, trace)
    for start in range(0, chunked._len, 97):
        end = min(start + 97, chunked._len)
        _replay_range(chunked, start, end)
        # The parked cursor is what makes the whole pass O(n): every
        # chunk after the first resumes the previous chunk's iterator.
        assert chunked._row_cursor.position == end
    assert fingerprint(chunked.result()) == fingerprint(full.result())


def test_cold_cursor_mid_trace_start_matches():
    """A resume-shaped call (cold start at i>0) islices, not slices."""
    trace = CACHE.get("calculix", N)
    system = ooo_system(SIPT_GEOMETRIES["32K_2w"])
    reference = _CoreContext(system, trace)
    _replay_range(reference, 0, 1000)
    _replay_range(reference, 1000, reference._len)
    split = _CoreContext(system, trace)
    _replay_range(split, 0, 1000)
    assert split._row_cursor.position == 1000
    # A fresh post-restore context: nothing parked, so the next range
    # must skip forward from a new iterator.
    split._row_cursor = RowCursor((split._gap, split._pc, split._va,
                                   split._is_write, split._dep))
    _replay_range(split, 1000, split._len)
    assert fingerprint(split.result()) == fingerprint(reference.result())


def test_kernel_chunked_replay_matches_full_replay():
    """97-access chunks through the kernel equal one full-range replay."""
    trace = CACHE.get("calculix", N)
    system = ooo_system(SIPT_GEOMETRIES["32K_2w"])
    full = _CoreContext(system, trace)
    full_engine = make_engine(full, _replay_range)
    full_engine.replay(full, 0, full._len)
    chunked = _CoreContext(system, trace)
    engine = make_engine(chunked, _replay_range)
    for start in range(0, chunked._len, 97):
        end = min(start + 97, chunked._len)
        engine.replay(chunked, start, end)
        assert engine._row_cursor.position == end
    assert engine._fallback is False and full_engine._fallback is False
    assert chunked.state_dict() == full.state_dict()
    full.completed_once = chunked.completed_once = True
    assert fingerprint(chunked.result()) == fingerprint(full.result())


# ---------------------------------------------------------------------
# Satellite: integer env overrides raise ConfigError, not ValueError
# ---------------------------------------------------------------------

def test_env_int_names_variable_and_value(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", "lots")
    with pytest.raises(ConfigError, match="REPRO_TRACE_CACHE.*'lots'"):
        TraceCache()


def test_env_int_valid_and_default(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", "7")
    assert TraceCache().max_traces == 7
    monkeypatch.delenv("REPRO_TRACE_CACHE")
    assert env_int("REPRO_TRACE_CACHE", 64) == 64
    monkeypatch.setenv("REPRO_ACCESSES", "12_000?!")
    with pytest.raises(ConfigError, match="REPRO_ACCESSES"):
        env_int("REPRO_ACCESSES", 50000)


# ---------------------------------------------------------------------
# Differential fuzz: step() vs _replay_range vs kernel
# ---------------------------------------------------------------------

_FUZZ_SYSTEMS = {
    "combined": ooo_system(SIPT_GEOMETRIES["32K_2w"]),
    "naive": ooo_system(replace(SIPT_GEOMETRIES["32K_2w"],
                                variant=SiptVariant.NAIVE)),
    "bypass-small": ooo_system(replace(SIPT_GEOMETRIES["32K_2w"],
                                       capacity=8 * 1024,
                                       variant=SiptVariant.BYPASS)),
    "waypred": ooo_system(replace(SIPT_GEOMETRIES["32K_4w"],
                                  way_prediction=True)),
    "inorder-small": inorder_system(replace(SIPT_GEOMETRIES["32K_2w"],
                                            capacity=8 * 1024)),
    # Small L1 *and* small L2/LLC: misses cascade write-backs through
    # every level and churn the DRAM row buffers inside the compiled
    # miss path.
    "combined-deep": replace(
        ooo_system(replace(SIPT_GEOMETRIES["32K_2w"],
                           capacity=8 * 1024),
                   llc_capacity=128 * 1024),
        l2_capacity=32 * 1024),
    "detailed-small": replace(
        ooo_system(replace(SIPT_GEOMETRIES["32K_2w"],
                           capacity=8 * 1024),
                   llc_capacity=256 * 1024),
        core="ooo-detailed", l2_capacity=32 * 1024),
}


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(["mcf", "calculix", "libquantum", "povray",
                        "graph500"]),
       st.sampled_from(sorted(_FUZZ_SYSTEMS)),
       st.sampled_from(list(MemoryCondition)),
       st.integers(min_value=0, max_value=3),
       st.integers(min_value=150, max_value=900))
def test_fuzz_three_replay_paths_agree(app, system_name, condition,
                                       seed, n):
    """step(), the fused loop, and the kernel are one implementation.

    The small-capacity systems force misses, dirty writebacks, and
    (with naive/bypass variants) slow accesses inside the
    port-conflict window; the memory conditions cover huge-page and
    fragmented translation paths.
    """
    system = _FUZZ_SYSTEMS[system_name]
    trace = CACHE.get(app, n, condition=condition, seed=seed)
    stepped = _CoreContext(system, trace)
    for _ in range(n):
        stepped.step()
    fused = _CoreContext(system, trace)
    _replay_range(fused, 0, n)
    fused.completed_once = True
    kernel = simulate(trace, system, engine="kernel")
    want = fingerprint(stepped.result())
    assert fingerprint(fused.result()) == want
    assert fingerprint(kernel) == want


# ---------------------------------------------------------------------
# Differential fuzz: multicore over the shared LLC/DRAM miss path
# ---------------------------------------------------------------------

_MC_FUZZ_SYSTEMS = {
    "ooo": replace(
        ooo_system(replace(SIPT_GEOMETRIES["32K_2w"],
                           capacity=8 * 1024),
                   llc_capacity=256 * 1024),
        l2_capacity=32 * 1024),
    "ooo-detailed": replace(
        ooo_system(replace(SIPT_GEOMETRIES["32K_2w"],
                           capacity=8 * 1024),
                   llc_capacity=256 * 1024),
        core="ooo-detailed", l2_capacity=32 * 1024),
    "inorder": inorder_system(replace(SIPT_GEOMETRIES["32K_2w"],
                                      capacity=8 * 1024),
                              llc_capacity=128 * 1024),
}


@pytest.mark.parametrize("kind", sorted(_MC_FUZZ_SYSTEMS))
def test_multicore_kernel_accepted_and_identical(kind):
    """Per-core results byte-identical; the streams path engages.

    Unequal trace lengths force one core to graduate and recycle live
    while the other still streams, covering the fold/demote path.
    """
    system = _MC_FUZZ_SYSTEMS[kind]
    traces = [CACHE.get("mcf", 1500, seed=1),
              CACHE.get("calculix", 900, seed=2)]
    python = [fingerprint(r)
              for r in simulate_multicore(traces, system)]
    before = sum(n for k, n in decline_counts().items()
                 if k.startswith("multicore:"))
    kernel = [fingerprint(r)
              for r in simulate_multicore(traces, system,
                                          engine="kernel")]
    after = sum(n for k, n in decline_counts().items()
                if k.startswith("multicore:"))
    assert kernel == python
    assert after == before, "multicore kernel declined unexpectedly"


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(sorted(_MC_FUZZ_SYSTEMS)),
       st.sampled_from([2, 4]),
       st.integers(min_value=0, max_value=3),
       st.integers(min_value=120, max_value=500))
def test_fuzz_multicore_kernel_matches_python(kind, n_cores, seed, n):
    """Shared-state interleaving is byte-identical across engines.

    The small per-level capacities drive write-back cascades and DRAM
    row-buffer traffic through the shared containers; staggered
    lengths mix streaming and recycled-live cores in one round-robin.
    """
    system = _MC_FUZZ_SYSTEMS[kind]
    apps = ["mcf", "calculix", "povray", "libquantum"]
    traces = [CACHE.get(apps[i], n + 73 * i, seed=seed + i)
              for i in range(n_cores)]
    python = [fingerprint(r)
              for r in simulate_multicore(traces, system)]
    kernel = [fingerprint(r)
              for r in simulate_multicore(traces, system,
                                          engine="kernel")]
    assert kernel == python


def test_multicore_walk_heavy_mix_identical():
    """A mix with graph500: per-core results, walker stats, and PWC
    order match the oracle loop over the shared LLC/DRAM."""
    system = _MC_FUZZ_SYSTEMS["ooo"]
    traces = [CACHE.get("graph500", 1200, seed=1),
              CACHE.get("mcf", 900, seed=2)]

    def contexts():
        llc = SetAssociativeCache(system.llc_capacity * len(traces),
                                  system.l1.line_size, system.llc_ways,
                                  name="LLC")
        dram = DramModel()
        return [_CoreContext(system, t, llc, dram) for t in traces]

    python = contexts()
    while not all(ctx.completed_once for ctx in python):
        for ctx in python:
            ctx.step()
    kernel = contexts()
    assert kernel_mod.run_multicore_kernel(kernel)
    assert kernel[0].l1.tlb.walker.stats.walks > 100
    for py_ctx, k_ctx in zip(python, kernel):
        assert _walker_state(k_ctx) == _walker_state(py_ctx)
        assert fingerprint(k_ctx.result()) == fingerprint(py_ctx.result())
    assert [fingerprint(r) for r in simulate_multicore(
        traces, system, engine="kernel")] == [
        fingerprint(ctx.result()) for ctx in python]
