"""The grid-shaped figures as sweeps (:mod:`repro.figures`).

The tables themselves are pinned end to end by CI
(``tests/data/figures-2000.txt``); these tests cover the runner's
contract: the figures' cells, the sharing of cells between figures
through one store, one read per digest, parallel == serial, and the
loud failure on a missing result.
"""

import pickle

import pytest

from repro import figures
from repro.errors import SimulationError
from repro.figures import (FIG9, FIG12, FIG13, FIG14, FIGURES, Figure,
                           ReadOnceStore, compute, private_store)
from repro.sim import BASELINE_L1, SIPT_GEOMETRIES, experiment
from repro.sim.experiment import TraceCache
from repro.sim import sweep
from repro.sim.resilience import ResilientRunner
from repro.sim.sweep import SweepSpec, grid_cells
from repro.store import ResultStore

N = 300


def _count_simulations(monkeypatch):
    calls = []
    real = experiment.simulate

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiment, "simulate", counted)
    return calls


def _cells(*figs):
    return [key["cell"] for figure in figs for spec in figure.specs
            for key, _recipe, _system in grid_cells(spec, N)]


def test_figures_cover_951_distinct_cells():
    cells = _cells(*FIGURES)
    # 786 single-core cells of figs. 2-18 and the cross-model check,
    # 78 of fig. 9, 32 of fig. 12 that no other figure has, and 55 mix
    # cells of fig. 15 (11 mixes x baseline + 4 geometries).
    assert len(set(cells)) == 951
    # Figs. 6/7, 13/14 and 16/17 plot one grid each.
    assert len(cells) == 1463


def test_fig14_after_fig13_on_one_store_simulates_nothing(monkeypatch):
    calls = _count_simulations(monkeypatch)
    with private_store() as store:
        compute(FIG13, N, store=store)
        assert len(calls) == 78
        del calls[:]
        table = compute(FIG14, N, store=store)
    assert calls == []
    assert len(table) == 26


def test_figs_12_and_9_after_the_others_simulate_only_new_cells(
        monkeypatch):
    """Fig. 12's COMBINED cells are the default variant's, so 46 of its
    78 come from figs. 13 and 18; all 78 BYPASS cells of fig. 9 are
    new."""
    calls = _count_simulations(monkeypatch)
    traces = TraceCache()
    with private_store() as store:
        for figure in FIGURES:
            if figure not in (FIG9, FIG12):
                compute(figure, N, traces, engine="kernel", store=store)
        del calls[:]
        compute(FIG12, N, traces, engine="kernel", store=store)
        assert len(calls) == 32
        del calls[:]
        compute(FIG9, N, traces, engine="kernel", store=store)
        assert len(calls) == 78


def test_a_figures_run_reads_each_digest_once(monkeypatch, tmp_path):
    """A warm run of figs. 13 and 14 (one grid, 78 cells) reads each
    digest once: not again after the store pre-pass, and not again for
    the second figure. Each figure walks its grid once, so each cell
    identity is derived once per figure."""
    compute(FIG13, N, store=ResultStore(tmp_path))
    reads = []
    real = ResultStore.fetch_result

    def counted(self, digest):
        reads.append(digest)
        return real(self, digest)

    identities = []
    real_identity = sweep.cell_identity

    def counted_identity(recipe, system):
        identities.append(1)
        return real_identity(recipe, system)

    monkeypatch.setattr(ResultStore, "fetch_result", counted)
    monkeypatch.setattr(sweep, "cell_identity", counted_identity)
    calls = _count_simulations(monkeypatch)
    with private_store(ResultStore(tmp_path)) as store:
        compute(FIG13, N, store=store)
        compute(FIG14, N, store=store)
    assert calls == []
    assert len(identities) == 2 * 78
    assert sorted(reads) == sorted(set(_cells(FIG13)))


def test_read_once_store_pickles_as_a_plain_store(tmp_path):
    with private_store(ResultStore(tmp_path)) as store:
        assert isinstance(store, ReadOnceStore)
        compute(_tiny(), N, store=store)
        copy = pickle.loads(pickle.dumps(store))
    assert type(copy) is ResultStore
    assert (copy.root, copy.cap_bytes) == (store.root, store.cap_bytes)


def test_fig13_under_two_jobs_equals_serial():
    serial = FIG13.render(compute(FIG13, N))
    parallel = FIG13.render(compute(FIG13, N,
                                    runner=ResilientRunner(jobs=2)))
    assert parallel == serial


def _tiny(reduce=lambda get: get("sipt", "gamess").ipc):
    spec = SweepSpec(apps=["gamess", "povray"],
                     configs={"base": BASELINE_L1,
                              "sipt": SIPT_GEOMETRIES["32K_2w"]})
    return Figure("tiny", (spec,), reduce, lambda table: None)


def test_missing_result_raises_naming_the_cell(monkeypatch):
    tiny = _tiny()
    victim, _recipe, _system = list(grid_cells(tiny.specs[0], N))[3]
    real = figures.run_sweep

    def sweep_then_lose_one(spec, n, traces, runner, engine, store):
        rows = real(spec, n, traces, runner, engine=engine, store=store)
        store.result_path(victim["cell"]).unlink()
        return rows

    monkeypatch.setattr(figures, "run_sweep", sweep_then_lose_one)
    with pytest.raises(SimulationError) as info:
        compute(tiny, N)
    message = str(info.value)
    assert "app=povray config=sipt core=ooo" in message
    assert victim["cell"][:12] in message


def test_degraded_row_raises_naming_the_cell(monkeypatch):
    real = figures.run_sweep

    def one_error_row(spec, n, traces, runner, engine, store):
        rows = real(spec, n, traces, runner, engine=engine, store=store)
        rows[1] = {**rows[1], "status": "error", "error": "boom"}
        return rows

    monkeypatch.setattr(figures, "run_sweep", one_error_row)
    with pytest.raises(SimulationError,
                       match="app=povray config=base .* finished error: "
                             "boom"):
        compute(_tiny(), N)


def test_private_store_root_is_removed():
    with private_store() as store:
        compute(_tiny(), N, store=store)
        root = store.root
        assert list(store.entries())
    assert not root.exists()
