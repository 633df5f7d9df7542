"""Trace lifetimes planned from the grid.

A command knows its whole grid before it runs. The owner of a
``TraceCache`` plans one use per cell (mix members included), each
cell consumes its use once its row is final, and a trace is dropped
after its last use, derived columns and kernel memo with it. Under
``--jobs N`` publishing consumes the parent's uses, and a worker drops
an attached trace once it starts a cell past the trace's last one.
These tests pin that plan, that traces are then freed by reference
counting alone, and that a cache a caller passes in is the one used.
"""

import gc
import weakref
from collections import Counter

import pytest

from repro.cli import main as cli_main
from repro.figures import FIGURES, Figure, compute
from repro.sim import BASELINE_L1, SIPT_GEOMETRIES, experiment, ooo_system
from repro.sim import sweep
from repro.sim.bench import run_bench
from repro.sim.executors import RetryPolicy
from repro.sim.experiment import (TraceCache, run_app, trace_recipe,
                                  trace_recipes)
from repro.sim.faults import FaultInjector
from repro.sim.resilience import ResilientRunner
from repro.sim.sweep import SweepSpec, grid_cells, run_sweep
from repro.workloads import substrate
from repro.workloads.substrate import TraceStore, columns_for
from repro.workloads.trace import MemoryCondition

N = 600


def spec(apps=("povray", "gamess"), seeds=(0,)):
    return SweepSpec(apps=list(apps),
                     configs={"base": BASELINE_L1,
                              "sipt": SIPT_GEOMETRIES["32K_2w"]},
                     seeds=list(seeds), baseline="base")


def _count_generations(monkeypatch):
    made = Counter()
    real = experiment.generate_trace

    def counted(app, n, condition, seed):
        made[trace_recipe(app, n, condition, seed)] += 1
        return real(app, n, condition, seed)

    monkeypatch.setattr(experiment, "generate_trace", counted)
    return made


# ---------------------------------------------------------------------
# A cache passed in is the cache used, even when it is empty
# ---------------------------------------------------------------------

def test_an_empty_cache_passed_to_run_sweep_is_filled():
    cache = TraceCache()
    run_sweep(spec(), N, traces=cache)
    assert len(cache) == 2


def test_an_empty_cache_passed_to_compute_is_filled():
    tiny = Figure("tiny", (spec(),), lambda get: get("sipt", "gamess").ipc,
                  lambda table: None)
    cache = TraceCache()
    compute(tiny, N, cache)
    assert len(cache) == 2


def test_an_empty_cache_passed_to_run_app_or_the_bench_is_filled():
    cache = TraceCache()
    run_app("povray", ooo_system(BASELINE_L1), n_accesses=N, cache=cache)
    assert len(cache) == 1
    bench_cache = TraceCache()
    run_bench(apps=["povray"], n_accesses=N, repeats=1, traces=bench_cache)
    assert len(bench_cache) == 1


# ---------------------------------------------------------------------
# TraceCache plan / release
# ---------------------------------------------------------------------

def test_release_drops_a_trace_after_its_last_planned_use():
    cache = TraceCache()
    recipe = trace_recipe("povray", 400)
    cache.plan([recipe, recipe])
    trace = cache.of(recipe)
    cache.release(recipe)
    assert cache.of(recipe) is trace
    cache.release(recipe)
    assert len(cache) == 0
    # Outside the plan now: a fresh copy, kept under the LRU cap.
    again = cache.of(recipe)
    assert again is not trace
    cache.release(recipe)
    assert cache.of(recipe) is again


def test_planned_traces_are_never_evicted_by_the_cap():
    cache = TraceCache(max_traces=1)
    planned = trace_recipe("povray", 400, seed=0)
    cache.plan([planned])
    trace = cache.of(planned)
    cache.of(trace_recipe("povray", 400, seed=1))
    cache.of(trace_recipe("povray", 400, seed=2))
    assert cache.of(planned) is trace
    assert len(cache) == 2


def test_shed_columns_keeps_the_trace_and_drops_its_columns():
    cache = TraceCache()
    trace = cache.of(trace_recipe("povray", 400))
    cols = columns_for(trace)
    cols.lists()
    cache.shed_columns()
    assert cache.of(trace_recipe("povray", 400)) is trace
    assert columns_for(trace) is not cols


# ---------------------------------------------------------------------
# Serial sweeps
# ---------------------------------------------------------------------

@pytest.mark.parametrize("engine", ["python", "kernel"])
def test_a_trace_dies_right_after_its_last_cell_without_the_gc(
        monkeypatch, engine):
    """With the cyclic collector off, each trace's weakref is dead when
    the first cell after its recipe's last cell starts, and every one
    is dead when the sweep returns."""
    grid = list(grid_cells(spec(seeds=(0, 1)), N))
    last = {recipe: i for i, (_key, recipe, _system) in enumerate(grid)}
    frozen = {}
    real_freeze = experiment.freeze_trace

    def freeze(trace):
        copy = real_freeze(trace)
        frozen[trace.recipe] = weakref.ref(copy)
        return copy

    real_cell = sweep._parallel_cell
    stale = []

    def cell(*args, position, **kwargs):
        stale.extend(recipe for recipe, ref in frozen.items()
                     if last[recipe] < position and ref() is not None)
        return real_cell(*args, position=position, **kwargs)

    monkeypatch.setattr(experiment, "freeze_trace", freeze)
    monkeypatch.setattr(sweep, "_parallel_cell", cell)
    gc.collect()
    gc.disable()
    try:
        run_sweep(spec(seeds=(0, 1)), N, engine=engine)
        assert len(frozen) == 4
        assert stale == []
        assert [r for r, ref in frozen.items() if ref() is not None] == []
    finally:
        gc.enable()


def test_a_retried_serial_cell_generates_its_trace_once(monkeypatch):
    """Cell 1 is povray's last cell; its failed attempts must not
    consume the use that keeps povray's trace cached."""
    made = _count_generations(monkeypatch)
    flaky = ResilientRunner(faults=FaultInjector(["transient@1x2"]),
                            retry=RetryPolicy(max_retries=2, backoff_s=0.0),
                            sleep=lambda s: None)
    rows = run_sweep(spec(apps=("povray",)), N, runner=flaky)
    assert flaky.stats.retries == 2
    assert [row["status"] for row in rows] == ["ok", "ok"]
    assert made == {trace_recipe("povray", N): 1}


def test_store_hits_and_resumed_cells_generate_nothing(monkeypatch,
                                                       tmp_path):
    run_sweep(spec(), N, store=tmp_path / "store")
    made = _count_generations(monkeypatch)
    run_sweep(spec(), N, store=tmp_path / "store")
    assert made == {}
    journal = tmp_path / "j.jsonl"
    run_sweep(spec(), N, runner=ResilientRunner(journal=journal))
    made.clear()
    resumed = ResilientRunner(resume_from=journal)
    run_sweep(spec(), N, runner=resumed)
    assert resumed.stats.resumed == 4
    assert made == {}


def test_a_cold_figures_run_generates_each_distinct_recipe_once(
        monkeypatch, capsys):
    made = _count_generations(monkeypatch)
    n = 300
    distinct = {member for figure in FIGURES for spec_ in figure.specs
                for _key, recipe, _system in grid_cells(spec_, n)
                for member in trace_recipes(recipe)}
    assert cli_main(["figures", "--accesses", str(n),
                     "--engine", "kernel"]) == 0
    capsys.readouterr()
    assert set(made) == distinct
    assert set(made.values()) == {1}


# ---------------------------------------------------------------------
# --jobs N: publishing and worker-side release
# ---------------------------------------------------------------------

def test_a_worker_holds_at_most_one_seed_block_of_traces():
    """Cells of a two-seed grid run in grid order through the pool task,
    on leases of really published segments: a worker never holds a
    seed-0 trace while it runs a seed-1 cell."""
    apps = ("povray", "gamess", "sjeng")
    grid = list(grid_cells(spec(apps=apps, seeds=(0, 1)), N))
    traces = TraceCache()
    traces.plan(recipe for _key, recipe, _system in grid)
    with TraceStore() as store:
        sources = sweep._publish(
            store, traces,
            {i: recipe for i, (_key, recipe, _s) in enumerate(grid)},
            list(range(len(grid))))
        # Publishing consumed every parent-side use.
        assert len(traces) == 0
        held = []
        for i, (key, recipe, system) in enumerate(grid):
            row = sweep._parallel_cell(key, recipe, system, None, None,
                                       sources[i], None, engine="kernel",
                                       position=i)
            assert row["ipc"] > 0
            seeds = {entry[1].recipe.seed
                     for entry in substrate._ATTACHED.values()}
            assert seeds == {recipe.seed}
            held.append(len(substrate._ATTACHED))
        names = set(store.names)
    assert max(held) == len(apps)
    assert not names & set(substrate._ATTACHED)


def test_parallel_sweep_of_a_planned_cache_frees_the_parent_copies():
    cache = TraceCache()
    sweep.plan_traces(cache, [spec()], N)
    rows = run_sweep(spec(), N, traces=cache,
                     runner=ResilientRunner(jobs=2))
    assert len(cache) == 0
    assert rows == run_sweep(spec(), N)


def test_the_kernel_memo_keeps_one_form_of_the_pa_column():
    trace = TraceCache().of(trace_recipe("mcf", N, MemoryCondition.NORMAL))
    experiment.simulate(trace, ooo_system(SIPT_GEOMETRIES["32K_2w"]),
                        engine="kernel")
    pa = columns_for(trace).kernel_memo().get("pa")
    assert type(pa) is list and len(pa) == N
