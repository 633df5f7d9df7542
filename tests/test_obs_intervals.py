"""Tests for interval time-series sampling (``repro.obs.intervals``).

The headline contracts:

* **Non-interference** — ``simulate(..., interval=N)`` must produce the
  same final result (IPC, full metrics snapshot) as a plain run; the
  sampler only *observes* at window boundaries.
* **Accounting** — window deltas must sum to the run totals and tile
  the trace exactly (``[0,N) [N,2N) ... [kN,n)``).
* **Determinism** — the serialized JSONL must be byte-identical for the
  same seed whether the simulation ran in this process or inside a
  ``ResilientRunner(jobs=2)`` worker, which is what lets sweep
  campaigns archive interval series from parallel runs.
"""

from functools import partial

import pytest

from repro.errors import ConfigError
from repro.obs import (
    IntervalSampler,
    MetricsRegistry,
    dumps_jsonl,
    intervals_to_csv,
    read_jsonl,
    write_jsonl,
)
from repro.obs.intervals import CSV_FIELDS, OUTCOME_KEYS, SCHEMA
from repro.sim import ResilientRunner, SIPT_GEOMETRIES, ooo_system, simulate
from repro.sim.experiment import SHARED_TRACES
from repro.sim.warmstate import WarmStateCache

APP, N, INTERVAL = "mcf", 9000, 2500


def _interval_run(app=APP, n=N, interval=INTERVAL, seed=0):
    trace = SHARED_TRACES.get(app, n, seed=seed)
    return simulate(trace, ooo_system(SIPT_GEOMETRIES["32K_2w"]),
                    interval=interval)


def _interval_cell(app, n, interval):
    """Picklable worker cell: returns the serialized interval series."""
    result = _interval_run(app, n, interval)
    return {"jsonl": dumps_jsonl(result.intervals)}


# ---------------------------------------------------------------------
# Sampler validation
# ---------------------------------------------------------------------

def test_interval_must_be_positive():
    with pytest.raises(ConfigError):
        IntervalSampler(MetricsRegistry(), 0)
    with pytest.raises(ConfigError):
        IntervalSampler(MetricsRegistry(), -5)


@pytest.mark.parametrize("interval", [0, -5])
def test_simulate_rejects_non_positive_interval(interval):
    # 0 must not read as "off": the caller asked for a series and would
    # silently get none. A primed warm-state hit must not mask it.
    trace = SHARED_TRACES.get(APP, 2000, seed=0)
    system = ooo_system(SIPT_GEOMETRIES["32K_2w"])
    cache = WarmStateCache()
    simulate(trace, system, warm_state=cache)
    with pytest.raises(ConfigError, match="interval"):
        simulate(trace, system, interval=interval)
    with pytest.raises(ConfigError, match="interval"):
        simulate(trace, system, interval=interval, warm_state=cache)


# ---------------------------------------------------------------------
# Window accounting
# ---------------------------------------------------------------------

def test_windows_tile_the_trace():
    records = _interval_run().intervals
    assert len(records) == 4          # ceil(9000 / 2500)
    assert [r["start"] for r in records] == [0, 2500, 5000, 7500]
    assert [r["end"] for r in records] == [2500, 5000, 7500, 9000]
    assert all(r["schema"] == SCHEMA for r in records)
    assert [r["interval"] for r in records] == [0, 1, 2, 3]


def test_window_deltas_sum_to_run_totals():
    result = _interval_run()
    records = result.intervals
    assert sum(r["instructions"] for r in records) == result.instructions
    assert sum(r["cycles"] for r in records) == pytest.approx(result.cycles)
    assert sum(r["counters"]["l1d.accesses"]
               for r in records) == result.l1_stats.accesses
    assert records[-1]["ipc_cumulative"] == pytest.approx(result.ipc)


def test_outcome_fractions_within_window():
    for record in _interval_run().intervals:
        fractions = record["outcomes"]
        assert set(fractions) == set(OUTCOME_KEYS)
        assert sum(fractions.values()) == pytest.approx(1.0, abs=1e-9)


def test_interval_run_matches_plain_run():
    plain = simulate(SHARED_TRACES.get(APP, N, seed=0),
                     ooo_system(SIPT_GEOMETRIES["32K_2w"]))
    sampled = _interval_run()
    assert sampled.ipc == plain.ipc
    assert sampled.metrics == plain.metrics
    assert plain.intervals is None


def test_energy_per_window_positive():
    records = _interval_run().intervals
    assert all(r["energy_dynamic_j"] > 0 for r in records)


# ---------------------------------------------------------------------
# Determinism: serial vs parallel workers, byte-identical JSONL
# ---------------------------------------------------------------------

def test_jsonl_roundtrip(tmp_path):
    records = _interval_run().intervals
    path = write_jsonl(records, tmp_path / "intervals.jsonl")
    assert read_jsonl(path) == records


def test_same_seed_byte_identical_jsonl():
    first = dumps_jsonl(_interval_run().intervals)
    second = dumps_jsonl(_interval_run().intervals)
    assert first == second


def test_serial_vs_parallel_workers_byte_identical():
    reference = {app: dumps_jsonl(_interval_run(app).intervals)
                 for app in ("povray", "gamess")}
    runner = ResilientRunner(jobs=2)
    cells = [({"app": app}, partial(_interval_cell, app, N, INTERVAL))
             for app in ("povray", "gamess")]
    rows = runner.run_cells(cells)
    runner.close()
    for (app, expected), row in zip(reference.items(), rows):
        assert row["status"] == "ok"
        assert row["jsonl"] == expected


# ---------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------

def test_csv_export(tmp_path):
    records = _interval_run().intervals
    path = intervals_to_csv(records, tmp_path / "intervals.csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_FIELDS)
    assert len(lines) == len(records) + 1
    first = dict(zip(CSV_FIELDS, lines[1].split(",")))
    assert first["start"] == "0"
    assert float(first["ipc"]) == pytest.approx(records[0]["ipc"])
