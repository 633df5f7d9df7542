"""One cell identity for journals, checkpoints, the warm memo and store.

``cell_identity(recipe, system)`` is the only answer to "which cell is
this". The load-bearing properties:

* every field that can change a simulated ``SimResult`` — each
  ``L1Config`` and ``SystemConfig`` field and each trace-recipe field —
  changes the identity;
* the replay engine and ``PYTHONHASHSEED`` do not;
* a trace carries its recipe through the shared-memory substrate, and a
  trace without one (corrupted, or built in a non-default memory) never
  enters the warm memo or the store;
* only a ``None`` length resolves to the default access count;
* the identity bytes never move: ``tests/data/cell-identities.txt``
  pins them over a grid of every core kind, geometry, memory
  condition, way-prediction setting, two seeds and two access counts.
  A moved byte would turn every existing store cold and make every
  journal and checkpoint unresumable.
"""

import dataclasses
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import GEOMETRIES
from repro.core.indexing import IndexingScheme, SiptVariant
from repro.errors import TraceError
from repro.sim import (BASELINE_L1, SIPT_GEOMETRIES, L1Config, SystemConfig,
                       ooo_system, simulate, system_for)
from repro.sim import driver, experiment
from repro.sim.experiment import TraceCache, trace_recipe
from repro.sim.faults import corrupt_trace
from repro.sim.resilience import ResilientRunner
from repro.sim.sweep import SweepSpec, cell_key, grid_cells, run_sweep
from repro.sim.warmstate import WarmStateCache, warm_cache_for
from repro.stateutil import canonical_json
from repro.store import ResultStore, cell_identity
from repro.store.resultstore import SCHEMA
from repro.workloads.substrate import TraceStore, attach
from repro.workloads.trace import (GENERATOR_VERSION, MemoryCondition,
                                   TraceRecipe, generate_trace)

KiB = 1024
N = 600

#: One perturbation per field; the coverage test below fails when a
#: field is added without one.
L1_CHANGES = {
    "capacity": 64 * KiB, "ways": 4, "scheme": IndexingScheme.IDEAL,
    "variant": SiptVariant.NAIVE, "line_size": 128, "latency": 5,
    "way_prediction": True, "page_bound_idb": True,
}
SYSTEM_CHANGES = {
    "name": "renamed", "core": "ooo-detailed", "l1": BASELINE_L1,
    "l2_capacity": 512 * KiB, "l2_ways": 4, "l2_latency": 14,
    "llc_capacity": 4096 * KiB, "llc_ways": 8, "llc_latency": 30,
}
RECIPE_CHANGES = {
    "app": "povray", "accesses": N + 100,
    "condition": MemoryCondition.FRAGMENTED, "seed": 1,
    "version": GENERATOR_VERSION + 1,
}


def base_cell():
    return (TraceRecipe("gamess", N, MemoryCondition.NORMAL, 0),
            ooo_system(SIPT_GEOMETRIES["32K_2w"]))


def perturbed_cells():
    """``(field, recipe, system)`` with exactly one field changed."""
    recipe, system = base_cell()
    for name, value in L1_CHANGES.items():
        yield (f"l1.{name}", recipe, dataclasses.replace(
            system, l1=dataclasses.replace(system.l1, **{name: value})))
    for name, value in SYSTEM_CHANGES.items():
        yield name, recipe, dataclasses.replace(system, **{name: value})
    for name, value in RECIPE_CHANGES.items():
        yield f"recipe.{name}", recipe._replace(**{name: value}), system


def result_of(recipe, system):
    """The rendered ``SimResult`` of one cell (``None`` for a recipe
    the current generator cannot build)."""
    if recipe.version != GENERATOR_VERSION:
        return None
    trace = TraceCache().of(recipe)
    return json.dumps(dataclasses.asdict(simulate(trace, system)),
                      sort_keys=True, default=str)


def test_perturbations_cover_every_field():
    assert set(L1_CHANGES) == {f.name for f in dataclasses.fields(L1Config)}
    assert set(SYSTEM_CHANGES) == {
        f.name for f in dataclasses.fields(SystemConfig)}
    assert set(RECIPE_CHANGES) == set(TraceRecipe._fields)


def test_identity_changes_whenever_the_result_does():
    recipe, system = base_cell()
    base_id = cell_identity(recipe, system)
    base_result = result_of(recipe, system)
    ids = {}
    for field, p_recipe, p_system in perturbed_cells():
        ident = cell_identity(p_recipe, p_system)
        result = result_of(p_recipe, p_system)
        if result != base_result:
            assert ident != base_id, field
        ids[field] = ident
    # Stronger still: every single-field change is its own cell.
    assert base_id not in ids.values()
    assert len(set(ids.values())) == len(ids)


def test_identity_ignores_engine_and_hash_seed(tmp_path):
    spec = SweepSpec(apps=["gamess"],
                     configs={"sipt": SIPT_GEOMETRIES["32K_2w"]})
    keys = {}
    for engine in ("python", "kernel"):
        journal = tmp_path / f"{engine}.jsonl"
        runner = ResilientRunner(journal=journal)
        run_sweep(spec, n_accesses=N, runner=runner, engine=engine)
        runner.close()
        keys[engine] = [json.loads(line)["key"]
                        for line in journal.read_text().splitlines()]
    assert keys["python"] == keys["kernel"]
    script = (
        "from repro.sim import SIPT_GEOMETRIES, ooo_system\n"
        "from repro.sim.experiment import trace_recipe\n"
        "from repro.sim.sweep import cell_key\n"
        f"print(cell_key('sipt', trace_recipe('gamess', {N}),\n"
        "      ooo_system(SIPT_GEOMETRIES['32K_2w']))['cell'])\n")
    for seed in ("0", "4242"):
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True,
            text=True, check=True,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": seed})
        assert out.stdout.strip() == keys["python"][0]["cell"]


#: The pinned identities, one ``<label> <hex>`` line per cell of
#: :func:`pinned_cells`. Regenerate (only for a deliberate schema
#: change, which also bumps ``SCHEMA``) with
#: ``PYTHONPATH=src python tests/test_cell_identity.py``.
PINNED = Path(__file__).parent / "data" / "cell-identities.txt"


def pinned_cells():
    """``(label, recipe, system)`` over the pinned grid, in file order.

    Each system object serves every recipe of its (core, geometry,
    way prediction) point, as a sweep grid shares them, and each point
    also pins a trace without a recipe.
    """
    for core in SystemConfig.CORE_KINDS:
        for geometry, l1 in GEOMETRIES.items():
            for predicted in (False, True):
                system = system_for(core, dataclasses.replace(
                    l1, way_prediction=predicted))
                point = f"{core} {geometry} wp={int(predicted)}"
                for condition in MemoryCondition:
                    for seed in (0, 3):
                        for accesses in (2000, 10_000):
                            recipe = TraceRecipe("mcf", accesses,
                                                 condition, seed)
                            yield (f"{point} {condition.value} seed={seed}"
                                   f" accesses={accesses}", recipe, system)
                yield f"{point} no-recipe", None, system


def pinned_text() -> str:
    return "".join(f"{label} {cell_identity(recipe, system)}\n"
                   for label, recipe, system in pinned_cells())


def test_identities_match_the_pinned_bytes():
    want = PINNED.read_text(encoding="utf-8").splitlines()
    got = pinned_text().splitlines()
    assert len(got) == len(want) == 3 * len(GEOMETRIES) * 2 * (
        len(MemoryCondition) * 2 * 2 + 1)
    for line, pinned in zip(got, want):
        assert line == pinned


def test_equal_configs_that_serialize_apart_keep_their_identities():
    """``way_prediction=1 == True``, so the two systems compare equal,
    but they serialize differently and so are different cells: the
    identity is the digest of the serialized payload, whatever was
    computed before it."""
    recipe = TraceRecipe("mcf", 2000, MemoryCondition.NORMAL, 0)
    flag = ooo_system(dataclasses.replace(BASELINE_L1, way_prediction=True))
    one = ooo_system(dataclasses.replace(BASELINE_L1, way_prediction=1))
    assert flag == one
    for system in (flag, one, flag, one):
        payload = {"schema": SCHEMA, "recipe": {
            **recipe._asdict(), "condition": recipe.condition.value},
            "system": json.loads(json.dumps(
                dataclasses.asdict(system), default=lambda e: e.value))}
        assert cell_identity(recipe, system) == hashlib.sha256(
            canonical_json(payload).encode("utf-8")).hexdigest()
    assert cell_identity(recipe, flag) != cell_identity(recipe, one)


def test_journal_key_is_row_coordinates_plus_identity():
    recipe, system = base_cell()
    key = cell_key("sipt", recipe, system)
    assert key == {"app": "gamess", "config": "sipt", "core": "ooo",
                   "condition": "normal", "seed": 0,
                   "cell": cell_identity(recipe, system)}


# ---------------------------------------------------------------------
# Recipes on traces
# ---------------------------------------------------------------------

def test_recipe_travels_with_generated_and_attached_traces():
    trace = generate_trace("gamess", N, seed=2)
    assert trace.recipe == TraceRecipe("gamess", N, MemoryCondition.NORMAL,
                                       2, GENERATOR_VERSION)
    with TraceStore() as store:
        assert attach(store.publish(trace, key=trace.recipe)).recipe \
            == trace.recipe
    assert corrupt_trace(trace).recipe is None
    small = generate_trace("gamess", N, seed=2, phys_bytes=256 * 1024 * KiB)
    assert small.recipe is None


def test_trace_without_recipe_never_enters_memo_or_store(tmp_path):
    trace = generate_trace("gamess", N, seed=2)
    bare = dataclasses.replace(trace, recipe=None)
    system = ooo_system(BASELINE_L1)
    store = ResultStore(tmp_path)
    cache = WarmStateCache(store)
    result = simulate(bare, system, warm_state=cache)
    cache.store_result(None, result)
    assert cache.stores == 0 and not list(store.entries())
    # The recipe trace of the same content publishes, and still the
    # bare one never reads it back.
    simulate(trace, system, warm_state=cache)
    cache.store_result(cell_identity(trace.recipe, system), result)
    assert cache.fetch(trace, system) is not None
    assert cache.fetch(bare, system) is None
    assert cache.fetch_result(None) is None


def test_only_none_resolves_to_the_default_length(monkeypatch):
    monkeypatch.setenv("REPRO_ACCESSES", "700")
    assert trace_recipe("gamess").accesses == 700
    assert trace_recipe("gamess", 0).accesses == 0
    spec = SweepSpec(apps=["gamess"], configs={"base": BASELINE_L1})
    assert [r.accesses for _k, r, _s in grid_cells(spec)] == [700]
    assert [r.accesses for _k, r, _s in grid_cells(spec, 0)] == [0]
    with pytest.raises(TraceError):
        TraceCache().get("gamess", 0)


# ---------------------------------------------------------------------
# Baseline runs read the result memo first
# ---------------------------------------------------------------------

def test_serial_suite_shaped_sweep_restores_no_snapshot(monkeypatch):
    """Suite order: geometry cells first, then the baseline config.
    Each cell simulates once, the baselines included, and no state is
    restored."""
    restores, sims = [], []
    real_load = driver._CoreContext.load_state_dict
    real_simulate = experiment.simulate

    def load(self, state):
        restores.append(1)
        return real_load(self, state)

    def counted(*args, **kwargs):
        sims.append(1)
        return real_simulate(*args, **kwargs)

    monkeypatch.setattr(driver._CoreContext, "load_state_dict", load)
    monkeypatch.setattr(experiment, "simulate", counted)
    warm_cache_for().clear()
    spec = SweepSpec(apps=["gamess", "povray"],
                     configs={"32K_2w": SIPT_GEOMETRIES["32K_2w"],
                              "vipt-baseline": BASELINE_L1},
                     baseline="vipt-baseline")
    rows = run_sweep(spec, n_accesses=N)
    assert [r["status"] for r in rows] == ["ok"] * 4
    assert restores == []
    assert len(sims) == 4   # two geometry cells, two baselines


if __name__ == "__main__":
    PINNED.write_text(pinned_text(), encoding="utf-8")
