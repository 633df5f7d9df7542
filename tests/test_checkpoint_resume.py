"""Tests for mid-simulation checkpoint/restore and the watchdog.

Covers the snapshot file format ("repro-ckpt-2": two JSON lines,
header + digest-protected body), every fail-closed verification path,
the driver's crash-at-access / resume behaviour (byte-identical
results), the runner's ``resumable`` status classification, the
progress watchdog, and the full sweep-level acceptance scenario: kill
a grid mid-cell, resume it, and diff the CSV byte-for-byte against an
uninterrupted run.
"""

import dataclasses
import json
import os
import threading
import time

import pytest

from repro.errors import CellTimeout, CheckpointError, ConfigError
from repro.sim import (
    BASELINE_L1,
    SIPT_GEOMETRIES,
    TraceCache,
    ooo_system,
    simulate,
)
from repro.sim.checkpoint import (
    SCHEMA,
    checkpoint_path_for,
    compute_digest,
    load_checkpoint,
    trace_identity,
    write_checkpoint,
)
from repro.sim.faults import (
    FaultInjector,
    WorkerCrash,
    arm_fault,
    clear_armed,
)
from repro.sim.executors import call_with_timeout
from repro.sim.resilience import ResilientRunner, load_journal
from repro.sim.sweep import SweepSpec, grid_cells, run_sweep, to_csv
from repro.store import cell_identity

CACHE = TraceCache()
N = 3000


@pytest.fixture(autouse=True)
def _clean_armed_channel():
    """No armed fault may leak into (or out of) any test here."""
    clear_armed()
    yield
    clear_armed()


def fingerprint(result):
    """A byte-stable rendering of an entire SimResult."""
    return json.dumps(dataclasses.asdict(result), sort_keys=True,
                      default=str)


# ---------------------------------------------------------------------
# Snapshot file format and verification
# ---------------------------------------------------------------------

def test_checkpoint_is_two_json_lines_with_digest(tmp_path):
    trace = CACHE.get("povray", N)
    path = tmp_path / "c.json"
    write_checkpoint(path, state={"x": 1}, position=10, trace=trace,
                     cell="sys")
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    header = json.loads(lines[0])
    assert header["schema"] == SCHEMA
    assert header["digest"] == compute_digest(lines[1])
    payload = load_checkpoint(path, trace=trace, cell="sys")
    assert payload["position"] == 10
    assert payload["state"] == {"x": 1}
    assert payload["trace"] == trace_identity(trace)


def test_missing_checkpoint_is_not_an_error(tmp_path):
    assert load_checkpoint(tmp_path / "absent.json") is None


def test_truncated_checkpoint_fails_closed(tmp_path):
    trace = CACHE.get("povray", N)
    path = tmp_path / "c.json"
    write_checkpoint(path, state={}, position=0, trace=trace,
                     cell="sys")
    header_only = path.read_text().partition("\n")[0]
    path.write_text(header_only + "\n")
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_tampered_body_fails_digest_verification(tmp_path):
    trace = CACHE.get("povray", N)
    path = tmp_path / "c.json"
    write_checkpoint(path, state={}, position=100, trace=trace,
                     cell="sys")
    tampered = path.read_text().replace('"position":100',
                                        '"position":999')
    path.write_text(tampered)
    with pytest.raises(CheckpointError, match="digest"):
        load_checkpoint(path)


def test_unknown_schema_rejected(tmp_path):
    path = tmp_path / "c.json"
    body = json.dumps({"position": 0}, separators=(",", ":"))
    header = json.dumps({"schema": "repro-ckpt-0",
                         "digest": compute_digest(body)})
    path.write_text(header + "\n" + body + "\n")
    with pytest.raises(CheckpointError, match="schema"):
        load_checkpoint(path)


def test_non_json_checkpoint_rejected(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("not json\nstill not json\n")
    with pytest.raises(CheckpointError, match="unreadable or corrupt"):
        load_checkpoint(path)


def test_checkpoint_bound_to_one_trace(tmp_path):
    """Same app label, different content — must not cross-resume."""
    trace = CACHE.get("povray", N)
    other = CACHE.get("povray", N + 500)
    path = tmp_path / "c.json"
    write_checkpoint(path, state={}, position=0, trace=trace,
                     cell="sys")
    with pytest.raises(CheckpointError, match="belongs to trace"):
        load_checkpoint(path, trace=other)


def test_checkpoint_bound_to_one_system(tmp_path):
    trace = CACHE.get("povray", N)
    path = tmp_path / "c.json"
    write_checkpoint(path, state={}, position=0, trace=trace,
                     cell="sipt-a")
    with pytest.raises(CheckpointError, match="taken on cell"):
        load_checkpoint(path, cell="sipt-b")


def test_invalid_position_rejected(tmp_path):
    trace = CACHE.get("povray", N)
    path = tmp_path / "c.json"
    write_checkpoint(path, state={}, position=-1, trace=trace,
                     cell="sys")
    with pytest.raises(CheckpointError, match="position"):
        load_checkpoint(path)


def test_checkpoint_paths_distinct_and_safe(tmp_path):
    a = checkpoint_path_for(tmp_path, {"app": "povray", "config": "base"})
    b = checkpoint_path_for(tmp_path, {"app": "povray", "config": "sipt"})
    assert a != b
    assert a.parent == tmp_path and a.name.startswith("ckpt-")
    # Hostile key values sanitize but still produce distinct names.
    weird = checkpoint_path_for(tmp_path, {"app": "a/.. b"})
    assert weird.parent == tmp_path
    assert checkpoint_path_for(tmp_path, {"app": "a/.. b"}) == weird


# ---------------------------------------------------------------------
# Progress watchdog: a rewritten checkpoint file is progress
# ---------------------------------------------------------------------

def _overwrite(path, position):
    path.write_text(f"snapshot {position}\n")


def _replace(path, position):
    """The driver's way: a temp file renamed over the snapshot."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(f"snapshot {position}\n")
    os.replace(tmp, path)


def test_watchdog_extends_deadline_while_progressing(tmp_path):
    """A slow-but-advancing cell outlives its nominal timeout, whether
    its snapshot is overwritten in place or replaced by a rename."""
    for rewrite in (_overwrite, _replace):
        ck = tmp_path / f"{rewrite.__name__}.json"

        def slow_but_alive():
            for position in range(8):
                time.sleep(0.05)
                rewrite(ck, position)
            return {"x": 1}

        row = call_with_timeout(slow_but_alive, {"app": "a"}, 0.2,
                                checkpoint=ck)
        assert row == {"x": 1}


def test_watchdog_fires_when_position_freezes(tmp_path):
    for rewrite in (_overwrite, _replace):
        ck = tmp_path / f"{rewrite.__name__}.json"
        rewrite(ck, 7)                         # never rewritten again
        with pytest.raises(CellTimeout, match="watchdog"):
            call_with_timeout(lambda: time.sleep(5) or {}, {"app": "a"},
                              0.15, checkpoint=ck)


def test_watchdog_reads_an_absent_checkpoint_as_no_progress(tmp_path):
    with pytest.raises(CellTimeout, match="watchdog"):
        call_with_timeout(lambda: time.sleep(5) or {}, {"app": "a"},
                          0.15, checkpoint=tmp_path / "never.json")


# ---------------------------------------------------------------------
# Driver: checkpointed replay and resume
# ---------------------------------------------------------------------

def test_simulate_rejects_inconsistent_checkpoint_args():
    trace = CACHE.get("povray", N)
    system = ooo_system(BASELINE_L1)
    with pytest.raises(ConfigError, match="together"):
        simulate(trace, system, checkpoint_every=100)
    with pytest.raises(ConfigError, match="positive"):
        simulate(trace, system, checkpoint_every=0,
                 checkpoint_path="x.json")


def test_midsim_crash_then_resume_is_byte_identical(tmp_path):
    """The tentpole guarantee, at the single-simulation level."""
    trace = CACHE.get("povray", N)
    system = ooo_system(SIPT_GEOMETRIES["32K_2w"])
    plain = simulate(trace, system)

    ck = tmp_path / "cell.json"
    arm_fault("sim_crash", 2200)
    with pytest.raises(WorkerCrash):
        simulate(trace, system, checkpoint_every=1000,
                 checkpoint_path=ck)
    payload = load_checkpoint(ck, trace=trace,
                              cell=cell_identity(trace.recipe, system))
    assert payload["position"] == 2000         # last boundary below 2200

    resumed = simulate(trace, system, checkpoint_every=1000,
                       checkpoint_path=ck, resume_checkpoint=ck)
    assert fingerprint(resumed) == fingerprint(plain)
    assert list(tmp_path.iterdir()) == []      # consumed and cleaned up


def test_resume_with_intervals_matches_uninterrupted(tmp_path):
    """Interval samples recorded before the kill survive the resume."""
    trace = CACHE.get("gamess", N)
    system = ooo_system(SIPT_GEOMETRIES["32K_2w"])
    plain = simulate(trace, system, interval=500)

    ck = tmp_path / "cell.json"
    arm_fault("sim_crash", 1700)
    with pytest.raises(WorkerCrash):
        simulate(trace, system, interval=500, checkpoint_every=1000,
                 checkpoint_path=ck)
    resumed = simulate(trace, system, interval=500,
                       checkpoint_every=1000, checkpoint_path=ck,
                       resume_checkpoint=ck)
    assert fingerprint(resumed) == fingerprint(plain)
    assert [r["end"] for r in resumed.intervals] == \
        [r["end"] for r in plain.intervals]


def test_sampler_presence_must_match_on_resume(tmp_path):
    trace = CACHE.get("povray", N)
    system = ooo_system(BASELINE_L1)
    ck = tmp_path / "cell.json"
    arm_fault("sim_crash", 1500)
    with pytest.raises(WorkerCrash):
        simulate(trace, system, interval=500, checkpoint_every=1000,
                 checkpoint_path=ck)
    with pytest.raises(CheckpointError, match="interval"):
        simulate(trace, system, checkpoint_every=1000,
                 checkpoint_path=ck, resume_checkpoint=ck)


def test_completed_run_leaves_no_checkpoint(tmp_path):
    """checkpoint_every on an undisturbed run is invisible afterwards."""
    trace = CACHE.get("povray", N)
    system = ooo_system(BASELINE_L1)
    ck = tmp_path / "cell.json"
    plain = simulate(trace, system)
    checked = simulate(trace, system, checkpoint_every=1000,
                       checkpoint_path=ck)
    assert fingerprint(checked) == fingerprint(plain)
    assert list(tmp_path.iterdir()) == []


def test_stale_checkpoint_beyond_trace_rejected(tmp_path):
    trace = CACHE.get("povray", N)
    system = ooo_system(BASELINE_L1)
    ck = tmp_path / "cell.json"
    write_checkpoint(ck, state={}, position=N + 1, trace=trace,
                     cell=cell_identity(trace.recipe, system))
    with pytest.raises(CheckpointError, match="exceeds the trace"):
        simulate(trace, system, resume_checkpoint=ck)


# ---------------------------------------------------------------------
# Runner classification and the sweep-level acceptance scenario
# ---------------------------------------------------------------------

def test_failed_cell_with_checkpoint_is_resumable(tmp_path):
    runner = ResilientRunner(checkpoint_dir=tmp_path)
    key = {"app": "a", "config": "base"}
    checkpoint_path_for(tmp_path, key).write_text("snapshot exists\n")

    def boom():
        raise RuntimeError("killed mid-flight")

    row = runner.run_cell(key, boom)
    assert row["status"] == "resumable"
    assert runner.stats.resumable == 1
    assert "resumable" in str(runner.stats)


def test_failed_cell_without_checkpoint_stays_error(tmp_path):
    runner = ResilientRunner(checkpoint_dir=tmp_path)
    row = runner.run_cell({"app": "a"},
                          lambda: (_ for _ in ()).throw(RuntimeError()))
    assert row["status"] == "error"
    assert runner.stats.resumable == 0


def test_sweep_midsim_crash_resumes_to_identical_csv(tmp_path):
    """Kill a sweep *inside* a cell; resume loses no checkpointed work
    and the final CSV is byte-identical to a fault-free run."""
    n = 900
    spec = SweepSpec(apps=["povray", "gamess"],
                     configs={"base": BASELINE_L1,
                              "sipt": SIPT_GEOMETRIES["32K_2w"]},
                     baseline="base")
    journal = tmp_path / "sweep.jsonl"
    ckdir = tmp_path / "ck"
    ckdir.mkdir()

    crashing = ResilientRunner(
        journal=journal, checkpoint_dir=ckdir,
        faults=FaultInjector(["crash@1@600"]))
    with pytest.raises(WorkerCrash):
        run_sweep(spec, n_accesses=n, traces=CACHE, runner=crashing,
                  checkpoint_every=300)
    crashing.close()
    snapshots = list(ckdir.glob("ckpt-*.json"))
    assert len(snapshots) == 1                 # the killed cell's state
    assert load_journal(journal)               # finished cells survived

    resumed_runner = ResilientRunner(journal=journal,
                                     resume_from=journal,
                                     checkpoint_dir=ckdir)
    resumed = run_sweep(spec, n_accesses=n, traces=CACHE,
                        runner=resumed_runner, checkpoint_every=300)
    clean = run_sweep(spec, n_accesses=n, traces=TraceCache())
    assert resumed == clean
    a = to_csv(resumed, tmp_path / "resumed.csv")
    b = to_csv(clean, tmp_path / "clean.csv")
    assert a.read_bytes() == b.read_bytes()
    assert not list(ckdir.glob("ckpt-*.json"))  # all consumed


def test_sweep_midsim_crash_leaves_only_the_snapshot(tmp_path):
    """A grid killed inside a cell, without the runner ever closing,
    leaves exactly one file behind: the snapshot the rerun resumes
    from (CI fault-smoke's grid and crash spec)."""
    spec = SweepSpec(apps=["perlbench", "mcf"],
                     configs={"baseline": BASELINE_L1,
                              "32K_2w": SIPT_GEOMETRIES["32K_2w"]},
                     baseline="baseline")
    ckdir = tmp_path / "ckpts"
    ckdir.mkdir()
    runner = ResilientRunner(journal=tmp_path / "sweep.jsonl",
                             checkpoint_dir=ckdir,
                             faults=FaultInjector(["crash@1@4500"]))
    with pytest.raises(WorkerCrash):
        run_sweep(spec, n_accesses=6000, traces=CACHE, runner=runner,
                  checkpoint_every=2000)
    dying_key = list(grid_cells(spec, 6000))[1][0]
    assert list(ckdir.iterdir()) == [checkpoint_path_for(ckdir, dying_key)]
    runner.close()
