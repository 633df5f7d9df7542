"""Tests for the supervised executor subsystem (``repro.sim.executors``).

The contract: worker death costs at most the executing cell. The
supervisor must rebuild the pool, reschedule innocent in-flight
bystanders without consuming retry budget, quarantine a cell that keeps
killing workers with a ``crashed`` outcome, and — past the restart
budget — finish the grid serially in-process rather than aborting.

Worker kills are driven through the deterministic ``kill_plan`` (the
same channel ``kill_worker@N[xK]`` fault specs populate), so every
chaos scenario here replays exactly.
"""

import os
from functools import partial

import pytest

from repro.errors import ConfigError, SimulationError
from repro.sim.executors import (
    STATUS_CRASHED,
    CellTask,
    RetryPolicy,
    SerialExecutor,
    SupervisedPoolExecutor,
)


def _ok_cell(x):
    return {"x": x, "square": x * x}


def _boom_cell():
    raise SimulationError("model exploded", app="a")


def _tasks(n):
    return [CellTask(index=i, key={"x": i}, fn=partial(_ok_cell, i),
                     ordinal=i) for i in range(n)]


def _rows(executor, tasks):
    """Outcomes reordered to submission order, as the runner does."""
    outcomes = sorted(executor.run(tasks), key=lambda o: o.index)
    assert [o.index for o in outcomes] == [t.index for t in tasks]
    return outcomes


# ---------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------

def test_supervised_pool_needs_two_workers():
    with pytest.raises(ConfigError):
        SupervisedPoolExecutor(1)
    with pytest.raises(ConfigError):
        SupervisedPoolExecutor(2, max_cell_crashes=0)
    with pytest.raises(ConfigError):
        SupervisedPoolExecutor(2, max_worker_restarts=-1)


def test_restart_budget_defaults_to_three_per_worker():
    assert SupervisedPoolExecutor(2).max_worker_restarts == 6
    assert SupervisedPoolExecutor(2,
                                  max_worker_restarts=0
                                  ).max_worker_restarts == 0


# ---------------------------------------------------------------------
# Parity: serial vs supervised pool
# ---------------------------------------------------------------------

def test_serial_executor_yields_in_order():
    outcomes = list(SerialExecutor().run(_tasks(5)))
    assert [o.index for o in outcomes] == list(range(5))
    assert all(o.status == "ok" for o in outcomes)
    assert [o.payload["square"] for o in outcomes] == [0, 1, 4, 9, 16]


def test_pool_outcomes_match_serial():
    tasks = _tasks(6)
    serial = [(o.status, o.payload) for o in _rows(SerialExecutor(), tasks)]
    pool = [(o.status, o.payload)
            for o in _rows(SupervisedPoolExecutor(2), tasks)]
    assert pool == serial


def test_pool_contains_cell_errors():
    tasks = [CellTask(index=0, key={"app": "a"}, fn=_boom_cell),
             CellTask(index=1, key={"x": 1}, fn=partial(_ok_cell, 1))]
    outcomes = _rows(SupervisedPoolExecutor(2), tasks)
    assert outcomes[0].status == "error"
    assert "SimulationError" in outcomes[0].payload
    assert outcomes[1].status == "ok"


# ---------------------------------------------------------------------
# Chaos: worker death
# ---------------------------------------------------------------------

def test_single_kill_reschedules_and_completes():
    """One worker death: the victim cell and its bystanders all finish."""
    executor = SupervisedPoolExecutor(2, kill_plan={1: 1})
    outcomes = _rows(executor, _tasks(6))
    assert all(o.status == "ok" for o in outcomes)
    assert executor.stats.worker_restarts >= 1
    assert executor.stats.rescheduled >= 1
    assert executor.stats.crashed == 0


def test_lethal_cell_is_quarantined_bystanders_survive():
    """A cell that kills every worker it meets ends crashed; only it."""
    executor = SupervisedPoolExecutor(2, kill_plan={2: 0})
    outcomes = _rows(executor, _tasks(6))
    statuses = [o.status for o in outcomes]
    assert statuses[2] == STATUS_CRASHED
    assert statuses[:2] + statuses[3:] == ["ok"] * 5
    assert "quarantined" in outcomes[2].payload
    assert executor.stats.crashed == 1


def test_quarantine_honours_max_cell_crashes():
    executor = SupervisedPoolExecutor(2, kill_plan={0: 0},
                                      max_cell_crashes=3)
    outcomes = _rows(executor, _tasks(2))
    assert outcomes[0].status == STATUS_CRASHED
    assert "3 time(s)" in outcomes[0].payload


def test_sublethal_kill_count_recovers_to_ok():
    """Kills below the quarantine threshold: the cell still succeeds."""
    executor = SupervisedPoolExecutor(2, kill_plan={0: 1},
                                      max_cell_crashes=2)
    outcomes = _rows(executor, _tasks(3))
    assert all(o.status == "ok" for o in outcomes)


def test_exhausted_restart_budget_degrades_to_serial():
    """Budget 0: first death flips the remainder to in-process serial
    execution (where kill plans are ignored) and the grid completes."""
    executor = SupervisedPoolExecutor(2, kill_plan={1: 0},
                                      max_worker_restarts=0)
    outcomes = _rows(executor, _tasks(5))
    assert all(o.status == "ok" for o in outcomes)
    assert executor.stats.fell_back_serial
    assert executor.stats.worker_restarts == 0


def test_retry_budget_not_consumed_by_rescheduling():
    executor = SupervisedPoolExecutor(
        2, retry=RetryPolicy(max_retries=0), kill_plan={0: 1})
    outcomes = _rows(executor, _tasks(4))
    assert all(o.status == "ok" for o in outcomes)
    assert all(o.retries == 0 for o in outcomes)


def test_marker_tmpdir_cleaned_up(tmp_path, monkeypatch):
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    import tempfile
    tempfile.tempdir = None  # re-read TMPDIR
    try:
        executor = SupervisedPoolExecutor(2, kill_plan={0: 1})
        list(executor.run(_tasks(3)))
    finally:
        tempfile.tempdir = None
    assert [p for p in tmp_path.iterdir()
            if p.name.startswith("repro-exec-")] == []


def test_close_is_idempotent_and_kills_workers():
    executor = SupervisedPoolExecutor(2)
    pool = executor._ensure_pool()
    # Force worker spawn so close() has processes to terminate.
    pool.submit(os.getpid).result()
    procs = list(pool._processes.values())
    assert procs
    executor.close()
    executor.close()
    for proc in procs:
        proc.join(5)
        assert not proc.is_alive()
