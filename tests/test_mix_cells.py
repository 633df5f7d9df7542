"""Table III mixes as sweep cells.

A mix name on a sweep's apps axis is one quad-core cell: its member
traces replay together through ``simulate_multicore``, its identity is
``cell_identity`` over its :class:`~repro.sim.experiment.MixRecipe`, and
its stored result is the per-core ``SimResult`` list. ``repro mix`` is a
one-mix, two-config grid on that path.
"""

import csv
import pickle

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.sim import (BASELINE_L1, SIPT_GEOMETRIES, ResilientRunner,
                       simulate_multicore, system_for)
from repro.sim.experiment import (MixRecipe, TraceCache, mix_recipe,
                                  trace_recipe)
from repro.sim.sweep import SweepSpec, grid_cells, run_sweep
from repro.store import ResultStore, cell_identity, diagnose
from repro.workloads import MemoryCondition, TraceStore, get_mix

N = 400
SIPT = SIPT_GEOMETRIES["32K_2w"]


def mix_spec(**kw):
    defaults = dict(apps=["mix0", "gamess"],
                    configs={"base": BASELINE_L1, "sipt": SIPT},
                    baseline="base")
    defaults.update(kw)
    return SweepSpec(**defaults)


def multicore(name, l1, condition=MemoryCondition.NORMAL):
    """Mix ``name`` replayed directly: core ``i`` on seed ``i``."""
    traces = TraceCache()
    return simulate_multicore(
        [traces.of(trace_recipe(app, N, condition, seed=core))
         for core, app in enumerate(get_mix(name))],
        system_for("ooo", l1))


def fingerprint(results):
    return [(r.app, r.instructions, r.cycles, r.l1_stats.hits,
             r.l1_stats.misses, r.energy.total) for r in results]


def test_mix_recipe_seeds_member_i_with_seed_plus_i():
    recipe = mix_recipe("mix0", N, MemoryCondition.FRAGMENTED, seed=3)
    assert (recipe.app, recipe.condition, recipe.seed) == (
        "mix0", MemoryCondition.FRAGMENTED, 3)
    assert recipe.members == tuple(
        trace_recipe(app, N, MemoryCondition.FRAGMENTED, 3 + core)
        for core, app in enumerate(get_mix("mix0")))


def test_mix_cell_identity_is_cell_identity_over_its_recipe():
    spec = mix_spec(apps=["mix0"], seeds=[0, 1])
    for key, recipe, system in grid_cells(spec, N):
        assert isinstance(recipe, MixRecipe)
        assert key["app"] == "mix0" and key["seed"] == recipe.seed
        assert key["cell"] == cell_identity(recipe, system)
    identities = {key["cell"] for key, _r, _s in grid_cells(spec, N)}
    assert len(identities) == 4  # 2 configs x 2 seeds


@pytest.mark.parametrize("jobs", [1, 2])
def test_mix_cell_result_is_the_multicore_run(tmp_path, jobs):
    store = ResultStore(tmp_path)
    spec = mix_spec()
    rows = run_sweep(spec, N, runner=ResilientRunner(jobs=jobs),
                     store=store)
    assert [r["status"] for r in rows] == ["ok"] * 4
    base = multicore("mix0", BASELINE_L1)
    sipt = multicore("mix0", SIPT)
    cells = {(key["config"], key["app"]): key["cell"]
             for key, _r, _s in grid_cells(spec, N)}
    assert fingerprint(store.fetch_result(cells["base", "mix0"])) == \
        fingerprint(base)
    assert fingerprint(store.fetch_result(cells["sipt", "mix0"])) == \
        fingerprint(sipt)
    row = next(r for r in rows if (r["app"], r["config"]) ==
               ("mix0", "sipt"))
    assert row["ipc"] == sum(r.ipc for r in sipt)
    assert row["speedup"] == (sum(r.ipc for r in sipt)
                              / sum(r.ipc for r in base))
    assert row["energy_ratio"] == (sum(r.energy.total for r in sipt)
                                   / sum(r.energy.total for r in base))
    # The doctor's entry check takes a mix entry for a sound one.
    assert diagnose(store) == []


def test_mix_grid_is_identical_serial_parallel_and_warm(tmp_path):
    spec = mix_spec(apps=["mix0", "mix6", "povray"])
    serial = run_sweep(spec, N)
    parallel = run_sweep(spec, N, runner=ResilientRunner(jobs=2),
                         engine="kernel")
    store = ResultStore(tmp_path)
    run_sweep(spec, N, store=store)
    runner = ResilientRunner()
    warm = run_sweep(spec, N, runner=runner, store=store)
    assert serial == parallel == warm
    assert runner.stats.store_hits == len(warm)


def test_mix_recipe_never_reaches_the_trace_cache(monkeypatch):
    seen, published = [], []
    real_of, real_publish = TraceCache.of, TraceStore.publish

    def of(self, recipe):
        seen.append(recipe)
        return real_of(self, recipe)

    def publish(self, trace, key=None):
        published.append(key)
        return real_publish(self, trace, key=key)

    monkeypatch.setattr(TraceCache, "of", of)
    monkeypatch.setattr(TraceStore, "publish", publish)
    # mix0 and mix6 both run povray on core 3 (seed 3), and the
    # single-core povray cell runs it on seed 0.
    spec = mix_spec(apps=["mix0", "mix6", "povray"])
    run_sweep(spec, N)
    run_sweep(spec, N, runner=ResilientRunner(jobs=2))
    assert seen and not any(isinstance(r, MixRecipe) for r in seen)
    members = {m for app in ("mix0", "mix6")
               for m in mix_recipe(app, N).members}
    assert set(published) == members | {trace_recipe("povray", N)}


def test_mix_grid_with_checkpoints_is_a_config_error(tmp_path):
    runner = ResilientRunner(checkpoint_dir=tmp_path)
    with pytest.raises(ConfigError, match="mix0"):
        run_sweep(mix_spec(), N, runner=runner, checkpoint_every=100)
    # A single-core grid on the same runner still checkpoints.
    rows = run_sweep(mix_spec(apps=["gamess"]), N, runner=runner,
                     checkpoint_every=100)
    assert [r["status"] for r in rows] == ["ok", "ok"]


def test_store_type_gate_takes_simresults_or_lists_of_them(tmp_path):
    store = ResultStore(tmp_path)
    results = multicore("mix0", BASELINE_L1)
    for digest, value, readable in (
            ("a" * 64, results, True),
            ("b" * 64, results[0], True),
            ("c" * 64, [], False),
            ("d" * 64, [results[0], {"not": "a SimResult"}], False),
            ("e" * 64, {"core0": results[0]}, False),
            ("f" * 64, tuple(results), False)):
        path = store.result_path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps(value))
        assert (store.fetch_result(digest) is not None) == readable
        assert path.exists() == readable  # a rejected entry is discarded


def read_mix_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_mix_command_honours_condition(tmp_path, capsys):
    """``repro mix --condition`` runs the condition's member traces."""
    out = {}
    for condition in ("normal", "fragmented"):
        path = tmp_path / f"{condition}.csv"
        assert main(["mix", "--name", "mix0", "--accesses", str(N),
                     "--condition", condition, "--out", str(path)]) == 0
        out[condition] = read_mix_csv(path)
    capsys.readouterr()
    expected = {
        label: multicore("mix0", l1, MemoryCondition.FRAGMENTED)
        for label, l1 in (("base", BASELINE_L1), ("sipt", SIPT))}
    assert [(row["l1"], row["app"], row["ipc"])
            for row in out["fragmented"]] == [
        (label, r.app, repr(r.ipc))
        for label, results in expected.items() for r in results]
    assert ([row["ipc"] for row in out["fragmented"]]
            != [row["ipc"] for row in out["normal"]])
