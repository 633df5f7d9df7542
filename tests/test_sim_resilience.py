"""Tests for the resilient grid runner: degradation, retries, timeouts,
journaling, and crash/resume over real sweeps."""

import json
import time

import pytest

from repro.errors import SimulationError, TransientError
from repro.sim import BASELINE_L1, SIPT_GEOMETRIES, TraceCache
from repro.sim.faults import FaultInjector, WorkerCrash
from repro.sim.executors import RetryPolicy
from repro.sim.resilience import ResilientRunner, cell_id, load_journal
from repro.sim.sweep import FIELDS, SweepSpec, run_sweep, to_csv

CACHE = TraceCache()


def spec3x2():
    return SweepSpec(apps=["povray", "gamess", "sjeng"],
                     configs={"base": BASELINE_L1,
                              "sipt": SIPT_GEOMETRIES["32K_2w"]},
                     baseline="base")


# ---------------------------------------------------------------------
# Unit behaviour on toy cells
# ---------------------------------------------------------------------

def test_ok_cell_gains_status_columns():
    runner = ResilientRunner()
    row = runner.run_cell({"app": "a"}, lambda: {"app": "a", "x": 1})
    assert row == {"app": "a", "x": 1, "status": "ok", "error": ""}
    assert runner.stats.ok == 1 and not runner.stats.degraded


def test_failing_cell_degrades_not_raises():
    runner = ResilientRunner()
    def boom():
        raise SimulationError("model exploded", app="a")
    row = runner.run_cell({"app": "a"}, boom)
    assert row["status"] == "error"
    assert "SimulationError" in row["error"]
    assert row["app"] == "a"
    assert runner.stats.errors == 1 and runner.stats.degraded


def test_degrade_false_propagates():
    runner = ResilientRunner()
    def boom():
        raise SimulationError("model exploded")
    with pytest.raises(SimulationError):
        runner.run_cell({"app": "a"}, boom, degrade=False)


def test_retry_consumes_transient_budget():
    sleeps = []
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] <= 2:
            raise TransientError("hiccup")
        return {"x": 42}

    runner = ResilientRunner(retry=RetryPolicy(max_retries=2,
                                               backoff_s=0.01),
                             sleep=sleeps.append)
    row = runner.run_cell({"app": "a"}, flaky)
    assert row["status"] == "ok" and row["x"] == 42
    assert runner.stats.retries == 2
    assert sleeps == [0.01, 0.02]  # exponential backoff


def test_retry_budget_exhausted_degrades():
    def always():
        raise TransientError("still down")
    runner = ResilientRunner(retry=RetryPolicy(max_retries=1,
                                               backoff_s=0.0),
                             sleep=lambda s: None)
    row = runner.run_cell({"app": "a"}, always)
    assert row["status"] == "error"
    assert "TransientError" in row["error"]
    assert runner.stats.retries == 1


def test_timeout_produces_timeout_row_not_hang():
    runner = ResilientRunner(timeout_s=0.05)
    start = time.monotonic()
    row = runner.run_cell({"app": "a"},
                          lambda: time.sleep(5) or {"x": 1})
    elapsed = time.monotonic() - start
    assert row["status"] == "timeout"
    assert "CellTimeout" in row["error"]
    assert elapsed < 2.0
    assert runner.stats.timeouts == 1


def test_journal_roundtrip(tmp_path):
    journal = tmp_path / "j.jsonl"
    with ResilientRunner(journal=journal) as runner:
        runner.run_cell({"app": "a"}, lambda: {"app": "a", "v": 1.25})
        runner.run_cell({"app": "b"}, lambda: 1 / 0)
    records = load_journal(journal)
    assert records[cell_id({"app": "a"})]["status"] == "ok"
    assert records[cell_id({"app": "a"})]["row"]["v"] == 1.25
    assert records[cell_id({"app": "b"})]["status"] == "error"


def test_resume_reuses_only_ok_rows(tmp_path):
    journal = tmp_path / "j.jsonl"
    with ResilientRunner(journal=journal) as first:
        first.run_cell({"app": "a"}, lambda: {"app": "a", "v": 1})
        first.run_cell({"app": "b"}, lambda: 1 / 0)
    calls = []
    with ResilientRunner(journal=journal, resume_from=journal) as second:
        row_a = second.run_cell({"app": "a"},
                                lambda: calls.append("a") or {"v": 9})
        row_b = second.run_cell({"app": "b"},
                                lambda: calls.append("b") or {"app": "b",
                                                              "v": 2})
    assert row_a["v"] == 1          # journaled, not recomputed
    assert calls == ["b"]           # error cell re-executed
    assert row_b["status"] == "ok" and row_b["v"] == 2
    assert second.stats.resumed == 1


def test_truncated_journal_line_skipped(tmp_path):
    journal = tmp_path / "j.jsonl"
    with ResilientRunner(journal=journal) as runner:
        runner.run_cell({"app": "a"}, lambda: {"app": "a"})
    with journal.open("a") as handle:
        handle.write('{"key": {"app": "b"}, "status": "ok", "row')  # torn
    records = load_journal(journal)
    assert len(records) == 1


# ---------------------------------------------------------------------
# Integration: real sweeps (the ISSUE acceptance scenario)
# ---------------------------------------------------------------------

def test_crash_resume_byte_identical_csv(tmp_path):
    """Crash at cell 3 of a 3x2 grid, resume, compare to fault-free."""
    journal = tmp_path / "sweep.jsonl"
    n = 900

    crashing = ResilientRunner(journal=journal,
                               faults=FaultInjector(["crash@3"]))
    with pytest.raises(WorkerCrash):
        run_sweep(spec3x2(), n_accesses=n, traces=CACHE, runner=crashing)
    crashing.close()
    completed = load_journal(journal)
    assert len(completed) == 3          # no completed row lost

    resumed_runner = ResilientRunner(journal=journal, resume_from=journal)
    resumed = run_sweep(spec3x2(), n_accesses=n, traces=CACHE,
                        runner=resumed_runner)
    assert resumed_runner.stats.resumed == 3
    assert resumed_runner.stats.total == 6

    clean = run_sweep(spec3x2(), n_accesses=n, traces=TraceCache())
    assert resumed == clean

    a = to_csv(resumed, tmp_path / "resumed.csv")
    b = to_csv(clean, tmp_path / "clean.csv")
    assert a.read_bytes() == b.read_bytes()


def test_transient_cell_succeeds_after_retry_identically():
    n = 900
    flaky = ResilientRunner(faults=FaultInjector(["transient@2x2"]),
                            retry=RetryPolicy(max_retries=2,
                                              backoff_s=0.0),
                            sleep=lambda s: None)
    rows = run_sweep(spec3x2(), n_accesses=n, traces=CACHE, runner=flaky)
    assert flaky.stats.retries == 2
    assert all(r["status"] == "ok" for r in rows)
    clean = run_sweep(spec3x2(), n_accesses=n, traces=TraceCache())
    assert rows == clean


def test_persistent_failure_degrades_grid_still_completes():
    stubborn = ResilientRunner(faults=FaultInjector(["transient@1x99"]),
                               retry=RetryPolicy(max_retries=2,
                                                 backoff_s=0.0),
                               sleep=lambda s: None)
    rows = run_sweep(spec3x2(), n_accesses=900, traces=CACHE,
                     runner=stubborn)
    assert len(rows) == 6               # grid completed
    bad = [r for r in rows if r["status"] != "ok"]
    assert len(bad) == 1
    assert bad[0]["status"] == "error"
    assert "TransientError" in bad[0]["error"]
    assert set(rows[0]) == set(FIELDS)
    # Metric columns of the degraded row are blank, not stale.
    assert bad[0]["ipc"] == ""


def test_error_app_degrades_with_context():
    spec = SweepSpec(apps=["povray", "no_such_app"],
                     configs={"base": BASELINE_L1})
    rows = run_sweep(spec, n_accesses=900, traces=CACHE)
    by_app = {r["app"]: r for r in rows}
    assert by_app["povray"]["status"] == "ok"
    bad = by_app["no_such_app"]
    assert bad["status"] == "error"
    assert "TraceError" in bad["error"]
    assert "config=base" in bad["error"]


def test_scorecard_resumes_from_journal(tmp_path):
    from repro.validate import run_scorecard
    journal = tmp_path / "val.jsonl"
    traces = TraceCache()
    with ResilientRunner(journal=journal) as first:
        checks = run_scorecard(n_accesses=1500, traces=traces,
                               runner=first)
    assert first.stats.ok == 90 and first.stats.resumed == 0
    with ResilientRunner(journal=journal, resume_from=journal) as second:
        resumed = run_scorecard(n_accesses=1500, traces=TraceCache(),
                                runner=second)
    assert second.stats.resumed == 90
    assert [(c.claim, c.measured, c.passed) for c in checks] == \
        [(c.claim, c.measured, c.passed) for c in resumed]


def test_scorecard_degrades_per_app():
    """A failing scorecard cell drops its app, adds a failing check."""
    from repro.validate import run_scorecard
    runner = ResilientRunner(faults=FaultInjector(["transient@0x99"]),
                             retry=RetryPolicy(max_retries=0,
                                               backoff_s=0.0),
                             sleep=lambda s: None)
    checks = run_scorecard(n_accesses=1500, traces=TraceCache(),
                           runner=runner)
    assert len(checks) == 9             # 8 claims + degradation report
    assert checks[-1].claim.startswith("scorecard grid completed")
    assert not checks[-1].passed


def test_corrupt_mid_journal_refuses_resume(tmp_path):
    """A garbled line *followed by valid records* is real corruption,
    not a torn final append — resuming must refuse, not silently drop
    completed cells."""
    from repro.errors import ConfigError
    journal = tmp_path / "j.jsonl"
    with ResilientRunner(journal=journal) as runner:
        runner.run_cell({"app": "a"}, lambda: {"app": "a"})
        runner.run_cell({"app": "b"}, lambda: {"app": "b"})
    lines = journal.read_text().splitlines()
    lines[0] = lines[0][:-5]                   # damage a non-final record
    journal.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="corrupt at line 1"):
        load_journal(journal)
    with pytest.raises(ConfigError):
        ResilientRunner(resume_from=journal)


def test_data_fault_parallel_then_resume_identical(tmp_path):
    """corrupt_trace under --jobs 2: the fault fires inside one worker,
    the grid completes degraded, and a resume converges on the same CSV
    bytes as a fault-free serial run."""
    n = 900
    journal = tmp_path / "j.jsonl"
    faulty = ResilientRunner(journal=journal, jobs=2,
                             faults=FaultInjector(["corrupt_trace@0"]))
    rows = run_sweep(spec3x2(), n_accesses=n, traces=CACHE,
                     runner=faulty)
    faulty.close()
    bad = [r for r in rows if r["status"] != "ok"]
    assert len(bad) == 1
    assert "TraceError" in bad[0]["error"]

    resumed_runner = ResilientRunner(journal=journal,
                                     resume_from=journal, jobs=2)
    resumed = run_sweep(spec3x2(), n_accesses=n, traces=CACHE,
                        runner=resumed_runner)
    assert resumed_runner.stats.resumed == 5   # only the bad cell reran
    clean = run_sweep(spec3x2(), n_accesses=n, traces=TraceCache())
    assert resumed == clean
    a = to_csv(resumed, tmp_path / "resumed.csv")
    b = to_csv(clean, tmp_path / "clean.csv")
    assert a.read_bytes() == b.read_bytes()


def test_data_fault_ordinal_same_serial_and_parallel(tmp_path):
    """A data-level fault spec hits the same cell serially and under
    --jobs 2. With two seeds the baseline-first dispatch reorders the
    grid; ordinals must still follow grid order, so the CSVs are
    byte-identical."""
    spec = SweepSpec(apps=["perlbench", "mcf"],
                     configs={"baseline": BASELINE_L1,
                              "32K_2w": SIPT_GEOMETRIES["32K_2w"]},
                     seeds=[0, 1], baseline="baseline")
    paths = []
    for jobs in (1, 2):
        runner = ResilientRunner(jobs=jobs,
                                 faults=FaultInjector(["corrupt_trace@2"]))
        rows = run_sweep(spec, n_accesses=1500, traces=TraceCache(),
                         runner=runner)
        bad = [r for r in rows if r["status"] != "ok"]
        assert [(r["app"], r["config"], r["seed"]) for r in bad] == \
            [("perlbench", "32K_2w", 0)]
        paths.append(to_csv(rows, tmp_path / f"jobs{jobs}.csv"))
    assert paths[0].read_bytes() == paths[1].read_bytes()
