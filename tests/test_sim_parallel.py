"""Tests for parallel grid execution (``ResilientRunner(jobs=N)``).

The contract under test: a ``jobs > 1`` run must be observationally
identical to a serial run — same rows in the same order (byte-identical
CSV), same journal semantics, same resume behaviour — with retries and
per-cell timeouts enforced inside the workers.

Cell callables cross the process boundary, so every cell here is a
module-level function (optionally via ``functools.partial``), exactly
what ``run_sweep`` — the grid behind ``sweep``, ``suite`` and
``validate`` — ships to the pool.
"""

import json
from functools import partial

import pytest

from repro.errors import ConfigError, SimulationError, TransientError
from repro.sim import BASELINE_L1, SIPT_GEOMETRIES, ResilientRunner
from repro.sim.faults import FaultInjector
from repro.sim.executors import RetryPolicy
from repro.sim.resilience import load_journal
from repro.sim.sweep import SweepSpec, run_sweep, to_csv


def spec2x2():
    return SweepSpec(apps=["povray", "gamess"],
                     configs={"base": BASELINE_L1,
                              "sipt": SIPT_GEOMETRIES["32K_2w"]},
                     seeds=[0, 1],
                     baseline="base")


# ---------------------------------------------------------------------
# Picklable toy cells (must be module-level to cross the pool boundary)
# ---------------------------------------------------------------------

def _ok_cell(x):
    return {"x": x, "square": x * x}


def _boom_cell():
    raise SimulationError("model exploded", app="a")


def _sleepy_cell(seconds):
    import time
    time.sleep(seconds)
    return {"x": 1}


def _flaky_cell(counter_path, failures):
    """Fails with TransientError ``failures`` times, then succeeds.

    State lives in a file because retries re-invoke the cell inside one
    worker process but the test asserts from the parent.
    """
    from pathlib import Path
    path = Path(counter_path)
    count = int(path.read_text()) if path.exists() else 0
    path.write_text(str(count + 1))
    if count < failures:
        raise TransientError(f"hiccup {count}")
    return {"x": 42}


def _must_not_run():
    raise AssertionError("resumed cell must not re-execute")


# ---------------------------------------------------------------------
# Constructor / mode validation
# ---------------------------------------------------------------------

def test_jobs_must_be_positive():
    with pytest.raises(ConfigError):
        ResilientRunner(jobs=0)


def test_faults_require_serial_execution():
    faults = FaultInjector(["transient@0"])
    with pytest.raises(ConfigError):
        ResilientRunner(faults=faults, jobs=2)


# ---------------------------------------------------------------------
# Row semantics
# ---------------------------------------------------------------------

def test_parallel_rows_match_serial_in_submission_order():
    cells = [({"x": x}, partial(_ok_cell, x)) for x in range(8)]
    serial = ResilientRunner().run_cells(cells)
    parallel = ResilientRunner(jobs=2).run_cells(cells)
    assert parallel == serial
    assert [row["x"] for row in parallel] == list(range(8))


def test_serial_and_parallel_agree_on_rows_journal_and_stats(tmp_path):
    """Both modes run one lifecycle: an erroring cell included, they
    return the same rows, journal the same records (in completion
    order under the pool) and tally the same stats."""
    cells = [({"x": x}, partial(_ok_cell, x)) for x in range(5)]
    cells.insert(2, ({"app": "a"}, _boom_cell))
    results = []
    for jobs in (1, 2):
        journal = tmp_path / f"grid-j{jobs}.jsonl"
        with ResilientRunner(journal=journal, jobs=jobs) as runner:
            rows = runner.run_cells(cells)
        stats = runner.stats
        results.append((rows, sorted(journal.read_text().splitlines()),
                        (stats.total, stats.ok, stats.errors)))
    assert results[1] == results[0]
    assert results[0][2] == (6, 5, 1)
    assert results[0][0][2]["status"] == "error"


def test_parallel_failing_cell_degrades_not_raises():
    cells = [({"app": "ok"}, partial(_ok_cell, 1)),
             ({"app": "a"}, _boom_cell),
             ({"app": "ok2"}, partial(_ok_cell, 2))]
    runner = ResilientRunner(jobs=2)
    rows = runner.run_cells(cells)
    assert rows[0]["status"] == "ok" and rows[2]["status"] == "ok"
    assert rows[1]["status"] == "error"
    assert "SimulationError" in rows[1]["error"]
    assert rows[1]["app"] == "a"  # degraded row carries the key
    assert runner.stats.errors == 1 and runner.stats.ok == 2


def test_parallel_timeout_degrades_to_timeout_row():
    runner = ResilientRunner(timeout_s=0.2, jobs=2)
    rows = runner.run_cells([({"app": "slow"},
                              partial(_sleepy_cell, 10.0))])
    assert rows[0]["status"] == "timeout"
    assert runner.stats.timeouts == 1


def test_parallel_retries_run_inside_worker(tmp_path):
    counter = tmp_path / "count"
    runner = ResilientRunner(
        retry=RetryPolicy(max_retries=2, backoff_s=0.01), jobs=2)
    rows = runner.run_cells([({"app": "flaky"},
                              partial(_flaky_cell, str(counter), 2))])
    assert rows[0]["status"] == "ok" and rows[0]["x"] == 42
    assert runner.stats.retries == 2
    assert int(counter.read_text()) == 3  # two failures + one success


# ---------------------------------------------------------------------
# Journal + resume
# ---------------------------------------------------------------------

def test_parallel_journal_records_every_cell(tmp_path):
    journal = tmp_path / "grid.jsonl"
    cells = [({"x": x}, partial(_ok_cell, x)) for x in range(5)]
    with ResilientRunner(journal=journal, jobs=2) as runner:
        runner.run_cells(cells)
    records = load_journal(journal)
    assert len(records) == 5
    assert all(rec["status"] == "ok" for rec in records.values())


def test_parallel_resume_skips_recorded_cells(tmp_path):
    journal = tmp_path / "grid.jsonl"
    cells = [({"x": x}, partial(_ok_cell, x)) for x in range(4)]
    with ResilientRunner(journal=journal, jobs=2) as runner:
        first = runner.run_cells(cells)
    # Resumed cells must return journaled rows without re-executing.
    poisoned = [(key, _must_not_run) for key, _ in cells]
    with ResilientRunner(journal=journal, resume_from=journal,
                         jobs=2) as runner:
        second = runner.run_cells(poisoned)
        assert runner.stats.resumed == 4
    assert second == first


def test_serial_journal_resumes_under_parallel_and_vice_versa(tmp_path):
    """A journal is mode-agnostic: serial and parallel runs interoperate."""
    journal = tmp_path / "grid.jsonl"
    cells = [({"x": x}, partial(_ok_cell, x)) for x in range(4)]
    with ResilientRunner(journal=journal) as runner:
        runner.run_cells(cells[:2])  # serial half
    with ResilientRunner(journal=journal, resume_from=journal,
                         jobs=2) as runner:
        rows = runner.run_cells(cells)  # parallel completes the rest
        assert runner.stats.resumed == 2 and runner.stats.ok == 4
    assert [row["x"] for row in rows] == list(range(4))


# ---------------------------------------------------------------------
# End-to-end over a real sweep
# ---------------------------------------------------------------------

def test_parallel_sweep_csv_byte_identical_to_serial(tmp_path):
    spec = spec2x2()
    serial = run_sweep(spec, n_accesses=1200, runner=ResilientRunner())
    parallel = run_sweep(spec, n_accesses=1200,
                         runner=ResilientRunner(jobs=2))
    a = to_csv(serial, tmp_path / "serial.csv").read_bytes()
    b = to_csv(parallel, tmp_path / "parallel.csv").read_bytes()
    assert a == b


def test_parallel_sweep_resume_after_partial_journal(tmp_path):
    """Kill-and-resume: a truncated journal + --jobs completes the grid
    to the exact CSV a serial uninterrupted run produces."""
    spec = spec2x2()
    journal = tmp_path / "sweep.jsonl"
    with ResilientRunner(journal=journal, jobs=2) as runner:
        full = run_sweep(spec, n_accesses=1200, runner=runner)
    # Simulate a mid-run kill: keep only the first 3 journal records.
    lines = journal.read_text().splitlines()
    assert len(lines) == len(full)
    truncated = tmp_path / "truncated.jsonl"
    truncated.write_text("\n".join(lines[:3]) + "\n")

    with ResilientRunner(journal=truncated, resume_from=truncated,
                         jobs=2) as runner:
        resumed = run_sweep(spec, n_accesses=1200, runner=runner)
        assert runner.stats.resumed == 3
    a = to_csv(full, tmp_path / "full.csv").read_bytes()
    b = to_csv(resumed, tmp_path / "resumed.csv").read_bytes()
    assert a == b
    # The journal now covers the whole grid again.
    assert len(load_journal(truncated)) == len(full)


def test_parallel_scorecard_suite_matches_serial():
    from repro.validate import run_scorecard
    serial = run_scorecard(n_accesses=800, runner=ResilientRunner())
    parallel = run_scorecard(n_accesses=800,
                             runner=ResilientRunner(jobs=2))
    assert parallel == serial
