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
from repro.store import (Finding, ResultStore, diagnose, list_jobs, repair,
                         submit_job, summarize)
from repro.store.jobs import jobs_dir
from repro.workloads import generate_trace

DIGEST_A = "aa" + "0" * 62


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


def mangle_job(store):
    """Plant a job record that no longer parses; returns its path."""
    jobs_dir(store).mkdir(parents=True, exist_ok=True)
    bad = jobs_dir(store) / "mangled.json"
    bad.write_text("{]")
    return bad


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


def test_corrupt_job_record_diagnosed(store):
    good = submit_job(store, {"job": "ok"}, [({"cell": 0}, DIGEST_A)])
    bad = mangle_job(store)
    cats = [f.category for f in diagnose(store)]
    # The loadable record is healthy; only the mangled one is reported.
    assert cats == ["corrupt-job"]
    # `jobs status` lists the loadable record and names the mangled one.
    records, unreadable = list_jobs(store)
    assert [r["id"] for r in records] == [good["id"]]
    assert [path for path, _reason in unreadable] == [bad]
    repair(store, diagnose(store))
    assert not bad.exists()
    records, unreadable = list_jobs(store)
    assert [r["id"] for r in records] == [good["id"]]
    assert unreadable == []
    assert (jobs_dir(store) / f"{good['id']}.json").exists()


def test_summarize_tallies_by_category(store):
    entry_for(store)
    (store.root / "a.tmp").write_bytes(b"")
    (store.root / "b.tmp").write_bytes(b"")
    mangle_job(store)
    assert summarize(diagnose(store)) == {"orphan-tmp": 2,
                                          "corrupt-job": 1}


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
    mangle_job(store)
    return store


def test_doctor_cli_reports_then_repairs(tmp_path, capsys):
    store = littered_root(tmp_path)
    flag = ["--store", str(store.root)]
    assert main(["store", "doctor", *flag]) == 1
    out = capsys.readouterr().out
    assert "[orphan-tmp]" in out and "[corrupt-job]" in out
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
