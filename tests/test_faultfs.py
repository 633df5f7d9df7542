"""Tests for deterministic filesystem fault injection (repro.faultfs).

The contract under test is the uniform degradation policy ISSUE 9
states (and docs/robustness.md documents):

* transient I/O errors retry with bounded backoff and recover silently;
* persistent artifact-write failure degrades that surface (storeless /
  journalless / checkpointless) with one stderr warning and never fails
  the run unless --strict;
* reads always treat damage as a miss, never an error;

plus the mechanics that make campaigns replayable: ordinals count
logical guarded operations (retries share their op's ordinal), and the
``xK`` count addresses attempts exactly like ``transient@NxK``.
"""

import errno
import pickle

import pytest

from repro import faultfs, ioutil
from repro.cli import main
from repro.errors import ConfigError
from repro.sim import BASELINE_L1, ooo_system
from repro.sim.checkpoint import load_checkpoint
from repro.sim.resilience import ResilientRunner
from repro.sim.warmstate import WarmStateCache
from repro.store import ResultStore, cell_identity
from repro.workloads import generate_trace


@pytest.fixture(autouse=True)
def disarm():
    """Every test starts and ends with no fault plan armed."""
    faultfs.clear_plan()
    yield
    faultfs.clear_plan()


def arm(*specs):
    plan = faultfs.FaultPlan(specs, sleep=lambda s: None)
    faultfs.install_plan(plan)
    return plan


def no_sleep(_s):
    pass


# ---------------------------------------------------------------------
# Spec grammar
# ---------------------------------------------------------------------

def test_parse_io_fault_grammar():
    spec = faultfs.parse_io_fault("io_error@2x3")
    assert (spec.kind, spec.at_op, spec.count) == ("io_error", 2, 3)
    assert faultfs.parse_io_fault("enospc@0").count == 1
    assert faultfs.parse_io_fault("slow_io@1:0.5").seconds == 0.5
    assert faultfs.parse_io_fault("torn_write@4").kind == "torn_write"
    assert faultfs.parse_io_fault("io_error@0x0").applies(99)


@pytest.mark.parametrize("bad", ["io_error", "io_error@", "bogus@1",
                                 "slow_io@1", "io_error@-1",
                                 "slow_io@1:0"])
def test_bad_specs_are_typed_errors(bad):
    with pytest.raises(ConfigError):
        faultfs.parse_io_fault(bad)


def test_split_specs_partitions_by_kind():
    io_specs, sim_specs = faultfs.split_specs(
        ["io_error@1", "crash@0", "torn_write@2", "transient@0x2"])
    assert io_specs == ["io_error@1", "torn_write@2"]
    assert sim_specs == ["crash@0", "transient@0x2"]


# ---------------------------------------------------------------------
# Choke-point semantics: ordinals, attempts, retries
# ---------------------------------------------------------------------

def test_ordinals_count_logical_ops_not_attempts(tmp_path):
    """A retried op keeps its ordinal; the next op gets the next one."""
    path = tmp_path / "f.txt"
    path.write_text("hello")
    plan = arm("io_error@0x2")
    sleeps = []
    assert ioutil.read_text(path, sleep=sleeps.append) == "hello"
    assert ioutil.read_text(path, sleep=sleeps.append) == "hello"
    assert plan.ops == 2
    # Op 0 failed on attempts 0 and 1, succeeded on attempt 2; op 1
    # (the second read) saw no faults at all.
    assert [(k, o, a) for k, o, a, _ in plan.fired] == [
        ("io_error", 0, 0), ("io_error", 0, 1)]
    assert sleeps == [ioutil.IO_BACKOFF_S, ioutil.IO_BACKOFF_S * 2]


def test_transient_budget_mirrors_retry_policy(tmp_path):
    """K <= retry budget recovers; K = budget + 1 is persistent."""
    path = tmp_path / "f.txt"
    path.write_text("x")
    arm("io_error@0x2")
    assert ioutil.read_text(path, sleep=no_sleep) == "x"
    arm("io_error@0x3")
    with pytest.raises(OSError) as exc:
        ioutil.read_text(path, sleep=no_sleep)
    assert exc.value.errno == errno.EIO


def test_enospc_is_not_retried(tmp_path):
    plan = arm("enospc@0")
    with pytest.raises(OSError) as exc:
        ioutil.atomic_write_text(tmp_path / "f.txt", "x",
                                 sleep=no_sleep)
    assert exc.value.errno == errno.ENOSPC
    assert len(plan.fired) == 1            # one attempt, no retries
    assert not (tmp_path / "f.txt").exists()


def test_estale_retries_like_io_error(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("x")
    arm("estale@0x1")
    assert ioutil.read_text(path, sleep=no_sleep) == "x"


def test_slow_io_sleeps_then_succeeds(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("x")
    naps = []
    plan = faultfs.FaultPlan(["slow_io@0:0.25"], sleep=naps.append)
    faultfs.install_plan(plan)
    assert ioutil.read_text(path) == "x"
    assert naps == [0.25]


def test_torn_write_leaves_half_the_payload(tmp_path):
    arm("torn_write@0")
    path = tmp_path / "f.txt"
    ioutil.atomic_write_text(path, "0123456789")
    assert path.read_text() == "01234"
    assert not list(tmp_path.glob("*.tmp"))


def test_disarmed_plan_costs_nothing(tmp_path):
    path = tmp_path / "f.txt"
    ioutil.atomic_write_text(path, "x")
    assert ioutil.read_text(path) == "x"
    assert faultfs.active_plan() is None


# ---------------------------------------------------------------------
# Degradation paths that used to hide behind `pragma: no cover`
# ---------------------------------------------------------------------

@pytest.fixture
def trace():
    return generate_trace("gamess", 800, seed=5)


def result_for(trace):
    from repro.sim import simulate
    return simulate(trace, ooo_system(BASELINE_L1))


def test_store_result_degrades_on_persistent_write_failure(
        tmp_path, trace, capsys):
    store = ResultStore(tmp_path)
    digest = store.digest(trace.recipe, ooo_system(BASELINE_L1))
    arm("io_error@0x0")                    # every attempt fails
    store.store_result(digest, result_for(trace))
    err = capsys.readouterr().err
    assert store.write_failures == 1 and store.writes_disabled
    assert not store.contains(digest)
    assert err.count("degraded") == 1
    # Later writes are no-ops with no second warning.
    faultfs.clear_plan()
    store.store_state(digest, "irrelevant")
    assert capsys.readouterr().err == ""
    assert store.stores == 0


def test_store_result_degrades_on_unwritable_root(tmp_path, trace,
                                                  capsys):
    """The real-OSError path (no injection): the layout root is a
    plain file, so the shard mkdir fails with NotADirectoryError.
    (chmod-based read-only roots don't bind when tests run as root.)"""
    root = tmp_path / "ro"
    root.mkdir()
    store = ResultStore(root)
    digest = store.digest(trace.recipe, ooo_system(BASELINE_L1))
    (root / "v1").write_text("not a directory")
    store.store_result(digest, result_for(trace))
    assert store.write_failures == 1
    assert "degraded" in capsys.readouterr().err


def test_fetch_result_read_failure_is_a_counted_miss(tmp_path, trace,
                                                     capsys):
    store = ResultStore(tmp_path)
    digest = store.digest(trace.recipe, ooo_system(BASELINE_L1))
    store.store_result(digest, result_for(trace))
    arm("io_error@0x0")
    assert store.fetch_result(digest) is None
    assert store.read_failures == 1 and store.misses == 1
    assert "degraded" in capsys.readouterr().err
    faultfs.clear_plan()
    # The discard makes the next (clean) fetch a plain miss.
    assert store.fetch_result(digest) is None
    assert store.read_failures == 1


def test_fetch_result_corrupt_entry_discards_without_failure_count(
        tmp_path, trace):
    store = ResultStore(tmp_path)
    digest = store.digest(trace.recipe, ooo_system(BASELINE_L1))
    store.store_result(digest, result_for(trace))
    store.result_path(digest).write_bytes(b"not a pickle")
    assert store.fetch_result(digest) is None
    assert store.read_failures == 0        # damage != I/O failure
    assert not store.result_path(digest).exists()


def test_touch_failure_is_silent(tmp_path, trace):
    store = ResultStore(tmp_path)
    digest = store.digest(trace.recipe, ooo_system(BASELINE_L1))
    store.store_result(digest, result_for(trace))
    # Ops: 0 = fetch read, 1 = the hit's _touch guard.
    plan = arm("io_error@1x0")
    assert store.fetch_result(digest) is not None
    assert store.hits == 1
    assert [k for k, _, _, op in plan.fired if op == "touch"]


def test_warmstate_publish_failure_is_counted(tmp_path, trace,
                                              monkeypatch):
    store = ResultStore(tmp_path / "store")
    cache = WarmStateCache(store)
    arm("io_error@0x0")
    cell = cell_identity(trace.recipe, ooo_system(BASELINE_L1))
    cache.store_result(cell, result_for(trace))
    assert store.write_failures == 1
    # The in-memory tier still serves the result.
    assert cache.fetch_result(cell) is not None


def test_warmstate_result_tmp_files_carry_tmp_suffix(tmp_path, trace):
    """The store-tier publish goes through atomic_write_bytes, so an
    orphaned temp file is visible to the store litter sweep."""
    cache = WarmStateCache(ResultStore(tmp_path))
    cache.store_result(cell_identity(trace.recipe, ooo_system(BASELINE_L1)),
                       result_for(trace))
    names = [p.name for p in tmp_path.rglob("*") if p.is_file()]
    assert any(n.endswith(".result.pkl") for n in names)
    assert not [n for n in names if ".result.pkl." in n
                and not n.endswith(".tmp")]


def test_load_checkpoint_unreadable_degrades_to_fresh(tmp_path,
                                                      capsys):
    path = tmp_path / "ckpt.json"
    path.write_text("whatever")
    arm("io_error@0x0")
    assert load_checkpoint(path) is None
    assert "degraded" in capsys.readouterr().err


def test_journal_append_failure_degrades_to_journalless(tmp_path,
                                                        capsys):
    journal = tmp_path / "run.jsonl"
    runner = ResilientRunner(journal=journal)
    arm("io_error@0x0")
    rows = runner.run_cells([({"cell": i}, lambda i=i: {"v": i})
                             for i in range(3)])
    runner.close()
    err = capsys.readouterr().err
    assert [r["v"] for r in rows] == [0, 1, 2]   # results unaffected
    assert err.count("journalless") == 1          # one warning
    assert runner.stats.artifact_failures == 1
    assert runner.stats.degraded
    assert not journal.exists()


def test_journal_transient_fault_recovers_silently(tmp_path, capsys):
    journal = tmp_path / "run.jsonl"
    runner = ResilientRunner(journal=journal, sleep=no_sleep)
    arm("io_error@0x2")
    runner.run_cells([({"cell": 0}, lambda: {"v": 0})])
    runner.close()
    assert runner.stats.artifact_failures == 0
    assert journal.exists()
    assert "journalless" not in capsys.readouterr().err


# ---------------------------------------------------------------------
# End to end through the CLI
# ---------------------------------------------------------------------

GRID = ["--apps", "gamess", "--geometries", "baseline,32K_2w",
        "--baseline", "baseline", "--accesses", "1000"]


def test_sweep_with_io_faults_keeps_store_armed_and_csv_exact(
        tmp_path, capsys):
    """The io-fault-smoke contract: `--inject io_error@2x3` exits 0
    with a degradation warning and a CSV byte-identical to a storeless
    run — and the store stays attached (I/O faults must not trip the
    simulation-fault store gate)."""
    ref = tmp_path / "ref.csv"
    assert main(["sweep", *GRID, "--out", str(ref)]) == 0
    capsys.readouterr()
    faulted = tmp_path / "faulted.csv"
    store = str(tmp_path / "store")
    assert main(["sweep", *GRID, "--out", str(faulted),
                 "--store", store, "--inject", "io_error@2x3"]) == 0
    err = capsys.readouterr().err
    assert "degraded" in err
    assert "[store]" in err                # store participated
    assert faulted.read_bytes() == ref.read_bytes()


def test_sweep_with_io_faults_strict_exits_2(tmp_path, capsys):
    assert main(["sweep", *GRID, "--out", str(tmp_path / "s.csv"),
                 "--store", str(tmp_path / "store"), "--strict",
                 "--inject", "io_error@2x3"]) == 2


def test_main_disarms_plan_between_invocations(tmp_path):
    assert main(["sweep", *GRID, "--out", str(tmp_path / "s.csv"),
                 "--store", str(tmp_path / "store"),
                 "--inject", "io_error@2x3"]) == 0
    assert faultfs.active_plan() is None
