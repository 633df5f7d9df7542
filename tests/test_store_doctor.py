"""Tests for `repro store doctor` (repro.store.doctor).

Each damage category the doctor knows about is staged on a real store
root, diagnosed, and repaired; the CLI exit-code contract (0 clean,
1 findings remain) is what the io-fault-smoke CI job leans on.
"""

import json
import pickle

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.sim import BASELINE_L1, ooo_system, simulate
from repro.sim.checkpoint import render_checkpoint
from repro.store import (Finding, ResultStore, diagnose, repair,
                         submit_job, summarize)
from repro.store.jobs import _marker_path, jobs_dir, pending_dir
from repro.workloads import generate_trace

DIGEST_A = "aa" + "0" * 62
DIGEST_B = "bb" + "1" * 62


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


def entry_for(store, seed=7):
    """Publish one real (result, state, meta) entry; returns digest."""
    trace = generate_trace("gamess", 600, seed=seed)
    system = ooo_system(BASELINE_L1)
    result = simulate(trace, system)
    digest = store.digest(trace.recipe, system)
    store.store_result(digest, result, meta={"app": "gamess"})
    store.store_state(digest, render_checkpoint(
        state={}, position=len(trace), trace=trace,
        cell=digest))
    return digest


def claim(store, digest, job="job0", ttl=600.0):
    """Stamp a pending marker plus a loadable job record for it.

    ``job`` only disambiguates the grid (the real id is its hash);
    returns the computed job id.
    """
    return submit_job(store, {"job": job}, [({"cell": 0}, digest)],
                      ttl=ttl)["id"]


def test_clean_store_has_no_findings(store):
    entry_for(store)
    assert diagnose(store) == []


def test_finding_validates_category_and_defaults_remove(tmp_path):
    f = Finding("orphan-tmp", tmp_path / "x.tmp", "litter")
    assert f.remove == [tmp_path / "x.tmp"]
    with pytest.raises(ConfigError):
        Finding("not-a-category", tmp_path / "x", "nope")


def test_orphan_tmp_diagnosed_regardless_of_age(store):
    digest = entry_for(store)
    litter = store.result_path(digest).with_suffix(".tmp")
    litter.write_bytes(b"partial")
    (findings,) = diagnose(store)
    assert findings.category == "orphan-tmp"
    assert findings.path == litter


def test_corrupt_result_discards_whole_entry(store):
    digest = entry_for(store)
    store.result_path(digest).write_bytes(b"garbage")
    (finding,) = diagnose(store)
    assert finding.category == "corrupt-result"
    # Repair removes the siblings too — a result-less entry is useless.
    assert set(finding.remove) >= {store.result_path(digest),
                                   store.state_path(digest)}
    repair(store, [finding])
    assert not store.contains(digest)
    assert not store.state_path(digest).exists()
    assert diagnose(store) == []


def test_corrupt_result_wrong_type_is_caught(store):
    """A pickle that loads fine but isn't a SimResult is still damage."""
    digest = entry_for(store)
    store.result_path(digest).write_bytes(pickle.dumps({"not": "it"}))
    assert [f.category for f in diagnose(store)] == ["corrupt-result"]


def test_corrupt_state_and_meta_are_scoped_removals(store):
    digest = entry_for(store)
    store.state_path(digest).write_text("no digest line\n")
    store.meta_path(digest).write_text("{broken")
    cats = [f.category for f in diagnose(store)]
    assert cats == ["corrupt-state", "corrupt-meta"]
    repair(store, diagnose(store))
    # The result itself survives; only the damaged siblings are gone.
    assert store.contains(digest)
    assert diagnose(store) == []


def test_marker_triage_order(store):
    """corrupt > stuck > dangling > expired, each diagnosed once."""
    done = entry_for(store)
    claim(store, DIGEST_A, job="live")          # healthy claim
    claim(store, done, job="live")              # will become stuck:
    _marker_path(store, done).write_text(
        _marker_path(store, DIGEST_A).read_text().replace(
            DIGEST_A, done))
    gone_id = claim(store, DIGEST_B, job="gone")  # dangling after:
    (jobs_dir(store) / f"{gone_id}.json").unlink()
    expired = "cc" + "2" * 62
    claim(store, expired, job="old", ttl=-1.0)  # lease already lapsed
    corrupt = _marker_path(store, "dd" + "3" * 62)
    corrupt.write_text("not json")
    by_cat = {f.category: f for f in diagnose(store)}
    assert set(by_cat) == {"corrupt-marker", "stuck-marker",
                           "dangling-marker", "expired-lease"}
    assert "pid" in by_cat["expired-lease"].detail
    fixed, failed = repair(store, diagnose(store))
    assert (fixed, failed) == (4, 0)
    # The healthy live claim survives repair.
    assert _marker_path(store, DIGEST_A).exists()
    assert diagnose(store) == []


def test_corrupt_job_record_diagnosed(store):
    claim(store, DIGEST_A, job="ok")
    bad = jobs_dir(store) / "mangled.json"
    bad.write_text("{]")
    cats = [f.category for f in diagnose(store)]
    # The marker for DIGEST_A still resolves to job "ok", so only the
    # mangled record is reported.
    assert cats == ["corrupt-job"]
    repair(store, diagnose(store))
    assert not bad.exists()


def test_summarize_tallies_by_category(store):
    entry_for(store)
    (store.root / "a.tmp").write_bytes(b"")
    (store.root / "b.tmp").write_bytes(b"")
    claim(store, DIGEST_A, job="old", ttl=-1.0)
    assert summarize(diagnose(store)) == {"orphan-tmp": 2,
                                          "expired-lease": 1}


def test_repair_counts_already_gone_as_fixed(store):
    f = Finding("orphan-tmp", store.root / "ghost.tmp", "gone already")
    assert repair(store, [f]) == (1, 0)


# ---------------------------------------------------------------------
# CLI: `repro store doctor [--repair]`
# ---------------------------------------------------------------------

def littered_root(tmp_path):
    store = ResultStore(tmp_path / "store")
    entry_for(store)
    (store.root / "orphan.tmp").write_bytes(b"partial")
    claim(store, DIGEST_A, job="dead", ttl=-1.0)
    return store


def test_doctor_cli_reports_then_repairs(tmp_path, capsys):
    store = littered_root(tmp_path)
    flag = ["--store", str(store.root)]
    assert main(["store", "doctor", *flag]) == 1
    out = capsys.readouterr().out
    assert "[orphan-tmp]" in out and "[expired-lease]" in out
    assert "--repair" in out
    assert main(["store", "doctor", "--repair", *flag]) == 0
    assert "repaired" in capsys.readouterr().out
    assert main(["store", "doctor", *flag]) == 0
    assert "clean" in capsys.readouterr().out


def test_doctor_cli_clean_store_exits_zero(tmp_path, capsys):
    store = ResultStore(tmp_path / "store")
    entry_for(store)
    assert main(["store", "doctor", "--store", str(store.root)]) == 0
    assert "clean" in capsys.readouterr().out


def test_doctor_then_rerun_is_warm(tmp_path, capsys):
    """After --repair on a littered root, a sweep that already ran
    against it stays warm (nothing healthy was removed)."""
    grid = ["--apps", "gamess", "--geometries", "baseline,32K_2w",
            "--baseline", "baseline", "--accesses", "1000"]
    root = tmp_path / "store"
    assert main(["sweep", *grid, "--out", str(tmp_path / "a.csv"),
                 "--store", str(root)]) == 0
    (root / "orphan.tmp").write_bytes(b"x")
    assert main(["store", "doctor", "--repair", "--store",
                 str(root)]) == 0
    capsys.readouterr()
    assert main(["sweep", *grid, "--out", str(tmp_path / "b.csv"),
                 "--store", str(root)]) == 0
    assert ", 0 simulated" in capsys.readouterr().err
    assert (tmp_path / "a.csv").read_bytes() == \
        (tmp_path / "b.csv").read_bytes()
