"""Tests for the parameter-sweep utility."""

import csv

import pytest

from repro.sim import BASELINE_L1, SIPT_GEOMETRIES, ResilientRunner, TraceCache
from repro.sim.sweep import FIELDS, SweepSpec, run_sweep, to_csv
from repro.workloads import MemoryCondition

CACHE = TraceCache()


def small_spec(**kw):
    defaults = dict(apps=["povray", "gamess"],
                    configs={"base": BASELINE_L1,
                             "sipt": SIPT_GEOMETRIES["32K_2w"]},
                    baseline="base")
    defaults.update(kw)
    return SweepSpec(**defaults)


def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(apps=[], configs={"a": BASELINE_L1})
    with pytest.raises(ValueError):
        SweepSpec(apps=["povray"], configs={})
    with pytest.raises(ValueError):
        SweepSpec(apps=["povray"], configs={"a": BASELINE_L1},
                  baseline="missing")


def test_spec_rejects_duplicates_and_unknown_cores():
    from repro.errors import ConfigError
    with pytest.raises(ConfigError, match="duplicate apps.*povray"):
        SweepSpec(apps=["povray", "gamess", "povray"],
                  configs={"a": BASELINE_L1})
    with pytest.raises(ConfigError, match="duplicate seeds"):
        SweepSpec(apps=["povray"], configs={"a": BASELINE_L1},
                  seeds=[0, 1, 0])
    with pytest.raises(ConfigError, match="unknown cores.*'vliw'"):
        SweepSpec(apps=["povray"], configs={"a": BASELINE_L1},
                  cores=["ooo", "vliw"])


def test_grid_size_and_fields():
    rows = run_sweep(small_spec(), n_accesses=1200, traces=CACHE)
    assert len(rows) == 2 * 2  # apps x configs
    for row in rows:
        assert set(row) == set(FIELDS)
        assert row["ipc"] > 0
        assert row["status"] == "ok"
        assert row["error"] == ""


def test_baseline_ratios():
    rows = run_sweep(small_spec(), n_accesses=1200, traces=CACHE)
    base_rows = [r for r in rows if r["config"] == "base"]
    sipt_rows = [r for r in rows if r["config"] == "sipt"]
    for row in base_rows:
        assert row["speedup"] == pytest.approx(1.0)
        assert row["energy_ratio"] == pytest.approx(1.0)
    assert all(r["energy_ratio"] < 1.0 for r in sipt_rows)


def test_multi_dimension_grid():
    spec = small_spec(apps=["povray"],
                      cores=["ooo", "inorder"],
                      conditions=[MemoryCondition.NORMAL,
                                  MemoryCondition.THP_OFF],
                      seeds=[0, 1], baseline=None)
    rows = run_sweep(spec, n_accesses=1000, traces=CACHE)
    assert len(rows) == 2 * 2 * 2 * 2  # cores x conditions x seeds x cfgs
    assert {r["core"] for r in rows} == {"ooo", "inorder"}
    # Without a baseline, ratio columns are blank.
    assert all(r["speedup"] == "" for r in rows)


def test_csv_roundtrip(tmp_path):
    rows = run_sweep(small_spec(), n_accesses=1000, traces=CACHE)
    path = to_csv(rows, tmp_path / "sweep.csv")
    with path.open() as handle:
        loaded = list(csv.DictReader(handle))
    assert len(loaded) == len(rows)
    assert set(loaded[0]) == set(FIELDS)
    assert float(loaded[0]["ipc"]) > 0


def test_journal_does_not_resume_a_different_access_count(tmp_path):
    """A cell journaled at one trace length is a different cell at
    another: resuming must simulate it, not replay the short row."""
    spec = SweepSpec(apps=["mcf"], configs={"base": BASELINE_L1})
    journal = tmp_path / "sweep.jsonl"
    with ResilientRunner(journal=journal) as runner:
        run_sweep(spec, n_accesses=1000, traces=CACHE, runner=runner)
    with ResilientRunner(journal=journal, resume_from=journal) as runner:
        resumed = run_sweep(spec, n_accesses=3000, traces=CACHE,
                            runner=runner)
        assert runner.stats.resumed == 0
    fresh = run_sweep(spec, n_accesses=3000, traces=CACHE)
    assert resumed == fresh
