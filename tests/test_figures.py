"""The grid-shaped figures as sweeps (:mod:`repro.figures`).

The tables themselves are pinned end to end by CI
(``tests/data/figures-2000.txt``); these tests cover the runner's
contract: the figures' cells, the sharing of cells between figures
through one store, parallel == serial, and the loud failure on a
missing result.
"""

import pytest

from repro import figures
from repro.errors import SimulationError
from repro.figures import (FIG13, FIG14, FIGURES, Figure, compute,
                           private_store)
from repro.sim import BASELINE_L1, SIPT_GEOMETRIES, experiment
from repro.sim.resilience import ResilientRunner
from repro.sim.sweep import SweepSpec, grid_cells

N = 300


def _count_simulations(monkeypatch):
    calls = []
    real = experiment.simulate

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiment, "simulate", counted)
    return calls


def test_figures_cover_786_distinct_cells():
    cells = [key["cell"] for figure in FIGURES for spec in figure.specs
             for key, _recipe, _system in grid_cells(spec, N)]
    assert len(set(cells)) == 786
    # Figs. 6/7, 13/14 and 16/17 plot one grid each.
    assert len(cells) == 1252


def test_fig14_after_fig13_on_one_store_simulates_nothing(monkeypatch):
    calls = _count_simulations(monkeypatch)
    with private_store() as store:
        compute(FIG13, N, store=store)
        assert len(calls) == 78
        del calls[:]
        table = compute(FIG14, N, store=store)
    assert calls == []
    assert len(table) == 26


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
