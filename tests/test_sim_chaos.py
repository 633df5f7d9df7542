"""Chaos tests: worker death and Ctrl-C against a real parallel sweep.

Satellite coverage for ISSUE 6: (a) ``BrokenProcessPool`` containment —
a SIGKILLed worker costs at most the cell that was executing, bystander
rows stay byte-identical to serial, and ``--resume`` completes the
grid; (b) ``KeyboardInterrupt`` mid-parallel-sweep — exit code 130, a
well-formed journal, and no leaked ``/dev/shm`` segments.

Worker kills come from the deterministic ``kill_worker@N[xK]`` fault
spec, so every scenario replays exactly.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.sim import BASELINE_L1, SIPT_GEOMETRIES, ResilientRunner
from repro.sim.faults import FaultInjector
from repro.sim.resilience import load_journal
from repro.sim.sweep import SweepSpec, run_sweep, to_csv


def spec2x2():
    return SweepSpec(apps=["povray", "gamess"],
                     configs={"base": BASELINE_L1,
                              "sipt": SIPT_GEOMETRIES["32K_2w"]},
                     seeds=[0, 1],
                     baseline="base")


def _serial_reference(tmp_path):
    rows = run_sweep(spec2x2(), n_accesses=1200, runner=ResilientRunner())
    return rows, to_csv(rows, tmp_path / "serial.csv").read_bytes()


# ---------------------------------------------------------------------
# Worker-death containment over a real sweep
# ---------------------------------------------------------------------

def test_transient_worker_kill_keeps_sweep_byte_identical(tmp_path):
    """One worker death (below the quarantine threshold): every row ok
    and the CSV byte-identical to serial, no resume required."""
    _, reference = _serial_reference(tmp_path)
    runner = ResilientRunner(
        jobs=2, faults=FaultInjector(["kill_worker@1x1"]))
    rows = run_sweep(spec2x2(), n_accesses=1200, runner=runner)
    assert to_csv(rows, tmp_path / "chaos.csv").read_bytes() == reference
    assert runner.stats.worker_restarts >= 1
    assert runner.stats.rescheduled >= 1


def test_lethal_cell_contained_and_resume_completes(tmp_path):
    """A cell that kills every worker: exactly one crashed row,
    bystanders byte-identical to serial except for the crashed
    baseline's sibling, whose ratio columns are blank, and a faultless
    --resume run converges to the uninterrupted serial CSV."""
    serial_rows, reference = _serial_reference(tmp_path)
    journal = tmp_path / "chaos.jsonl"
    with ResilientRunner(jobs=2, journal=journal,
                         faults=FaultInjector(["kill_worker@1"])) as runner:
        rows = run_sweep(spec2x2(), n_accesses=1200, runner=runner)
        bad = [row for row in rows if row["status"] != "ok"]
        assert len(bad) == 1
        assert bad[0]["status"] == "crashed"
        assert "quarantined" in bad[0]["error"]
        assert runner.stats.crashed == 1
        assert runner.stats.rescheduled >= 1
    # Cell 1 is gamess' baseline for seed 0; its sipt sibling has no
    # baseline row to normalize against. Every other bystander row is
    # byte-for-byte the serial row.
    assert (bad[0]["app"], bad[0]["config"], bad[0]["seed"]) \
        == ("gamess", "base", 0)
    for row, ref in zip(rows, serial_rows):
        if (row["app"], row["config"], row["seed"]) == ("gamess", "sipt", 0):
            assert row == {**ref, "speedup": "", "energy_ratio": ""}
        elif row["status"] == "ok":
            assert row == ref
    # Resume without faults: the quarantined cell re-executes, the ok
    # cells replay from the journal, and the CSV matches serial exactly.
    with ResilientRunner(jobs=2, journal=journal,
                         resume_from=journal) as runner:
        resumed = run_sweep(spec2x2(), n_accesses=1200, runner=runner)
        assert runner.stats.resumed == len(serial_rows) - 1
    assert to_csv(resumed,
                  tmp_path / "resumed.csv").read_bytes() == reference
    assert len(load_journal(journal)) == len(serial_rows)


def test_crashed_row_lands_in_journal(tmp_path):
    journal = tmp_path / "chaos.jsonl"
    with ResilientRunner(jobs=2, journal=journal,
                         faults=FaultInjector(["kill_worker@0"])) as runner:
        run_sweep(spec2x2(), n_accesses=1200, runner=runner)
    records = load_journal(journal)
    crashed = [r for r in records.values() if r["status"] == "crashed"]
    assert len(crashed) == 1
    assert "WorkerCrash" in crashed[0]["row"]["error"]


# ---------------------------------------------------------------------
# Ctrl-C mid-parallel-sweep (subprocess: signals need a real process)
# ---------------------------------------------------------------------

def _repro_env():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _shm_segments(pid):
    shm = Path("/dev/shm")
    if not shm.is_dir():
        return []
    return [p.name for p in shm.iterdir()
            if p.name.startswith(f"repro-trace-{pid}-")]


def test_keyboard_interrupt_mid_sweep(tmp_path):
    """SIGINT a parallel sweep mid-grid: exit 130, loadable journal,
    no leaked shared-memory segments."""
    journal = tmp_path / "interrupted.jsonl"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "sweep",
         "--apps", "povray,gamess", "--geometries", "baseline,32K_2w",
         "--seeds", "0,1,2,3", "--accesses", "30000",
         "--jobs", "2", "--journal", str(journal),
         "--out", str(tmp_path / "out.csv")],
        env=_repro_env(), cwd=str(tmp_path),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        # Wait for evidence the grid is genuinely mid-flight: at least
        # one journal record written, with a 16-cell grid remaining.
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if journal.exists() and journal.read_text().count("\n") >= 1:
                break
            if proc.poll() is not None:
                pytest.fail("sweep finished before it could be "
                            f"interrupted: {proc.stderr.read()!r}")
            time.sleep(0.05)
        else:
            pytest.fail("journal never appeared")
        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 130
    # The journal survived mid-append: every line parses (modulo an
    # allowed torn final line, which load_journal tolerates).
    records = load_journal(journal)
    assert 0 < len(records) < 16
    for record in records.values():
        assert json.loads(json.dumps(record)) == record
    assert _shm_segments(proc.pid) == []
