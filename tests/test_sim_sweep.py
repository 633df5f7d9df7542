"""Tests for the parameter-sweep utility."""

import csv
import sys

import pytest

from repro.sim import (BASELINE_L1, SIPT_GEOMETRIES, FaultInjector,
                       ResilientRunner, RetryPolicy, TraceCache)
from repro.sim.resilience import load_journal
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


# ---------------------------------------------------------------------
# Ratio columns come from the group's baseline row
# ---------------------------------------------------------------------

def test_failed_baseline_blanks_sibling_ratios_until_resume(tmp_path):
    """Grid order: base povray (0), base gamess (1), sipt povray (2),
    sipt gamess (3). With cell 1 failed, gamess' sipt row is ok with
    blank ratios; the journal holds every ok row with blank ratios, and
    a resume that completes the baseline fills them."""
    journal = tmp_path / "sweep.jsonl"
    with ResilientRunner(journal=journal,
                         retry=RetryPolicy(max_retries=0),
                         faults=FaultInjector(["transient@1x9"])) as runner:
        rows = run_sweep(small_spec(), n_accesses=1200, traces=CACHE,
                         runner=runner)
    assert [r["status"] for r in rows] == ["ok", "error", "ok", "ok"]
    assert rows[3]["speedup"] == rows[3]["energy_ratio"] == ""
    assert rows[2]["speedup"] != "" and rows[2]["energy_ratio"] != ""
    ok = [r["row"] for r in load_journal(journal).values()
          if r["status"] == "ok"]
    assert len(ok) == 3
    assert {(row["speedup"], row["energy_ratio"]) for row in ok} \
        == {("", "")}
    with ResilientRunner(journal=journal, resume_from=journal) as runner:
        resumed = run_sweep(small_spec(), n_accesses=1200, traces=CACHE,
                            runner=runner)
        assert runner.stats.resumed == 3
    assert resumed == run_sweep(small_spec(), n_accesses=1200,
                                traces=CACHE)


def test_faulted_baseline_row_normalizes_itself_and_its_siblings():
    """A data fault armed on a baseline-config cell: the row stays ok
    (one poisoned perceptron entry is never read at this length), its
    ratios are exactly 1.0, and its sibling is normalized to it."""
    injector = FaultInjector(["poison_predictor@1x1"])
    rows = run_sweep(small_spec(apps=["gamess"], baseline="sipt"),
                     n_accesses=1500, traces=CACHE,
                     runner=ResilientRunner(faults=injector))
    assert ("poison_predictor", 1, 0) in injector.fired
    sibling, base = rows
    assert base["config"] == "sipt"
    assert base["status"] == sibling["status"] == "ok"
    assert base["speedup"] == base["energy_ratio"] == 1.0
    assert sibling["speedup"] == sibling["ipc"] / base["ipc"]
    assert sibling["energy_ratio"] == sibling["energy_j"] / base["energy_j"]


def test_sweep_renders_no_snapshot_and_builds_one_engine_per_cell(
        tmp_path, monkeypatch):
    """No normalization run: without ``checkpoint_every`` a storeless
    ``--jobs 2`` sweep renders no state snapshot in any process, and a
    serial kernel sweep builds one engine per grid cell. The access
    count is unique to this test, so no memo from another test can
    serve a cell."""
    from repro.sim import checkpoint, kernel
    log = tmp_path / "renders.log"
    real_render = checkpoint.render_checkpoint

    def render(*args, **kwargs):
        with open(log, "a") as fh:  # pool workers are forked
            fh.write("render\n")
        return real_render(*args, **kwargs)

    for module in list(sys.modules.values()):
        if (module.__name__.startswith("repro")
                and getattr(module, "render_checkpoint", None)
                is real_render):
            monkeypatch.setattr(module, "render_checkpoint", render)
    spec = small_spec(seeds=[0, 1])
    rows = run_sweep(spec, n_accesses=1234, traces=TraceCache(),
                     runner=ResilientRunner(jobs=2), engine="kernel")
    assert [r["status"] for r in rows] == ["ok"] * 8
    assert not log.exists()
    built = []
    real_make = kernel.make_engine

    def make_engine(ctx, oracle):
        built.append(ctx)
        return real_make(ctx, oracle)

    monkeypatch.setattr(kernel, "make_engine", make_engine)
    assert run_sweep(spec, n_accesses=1234, traces=TraceCache(),
                     engine="kernel") == rows
    assert len(built) == len(rows)
