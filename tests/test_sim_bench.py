"""Tests for the perf harness (``repro bench`` / repro.sim.bench)."""

import json

import pytest

from repro.errors import ConfigError
from repro.sim import TraceCache
from repro.sim.bench import (
    SCHEMA,
    check_regression,
    run_bench,
    run_sweep_bench,
    write_report,
)

CACHE = TraceCache()


def small_report(**kw):
    return run_bench(apps=["povray"], n_accesses=400, repeats=1,
                     traces=CACHE, **kw)


def test_report_shape_and_throughput():
    report = small_report()
    assert report["schema"] == SCHEMA
    assert report["n_accesses"] == 400 and report["repeats"] == 1
    assert report["aggregate_accesses_per_s"] > 0
    point = report["apps"]["povray"]
    assert point["best_s"] > 0
    assert point["accesses_per_s"] == pytest.approx(
        400 / point["best_s"], rel=0.01)


def test_input_validation():
    with pytest.raises(ConfigError):
        run_bench(n_accesses=0)
    with pytest.raises(ConfigError):
        run_bench(repeats=0)
    with pytest.raises(ConfigError):
        run_bench(geometry="no-such-geometry")


def test_profile_table_included_on_request():
    report = small_report(profile=True)
    rows = report["profile_top"]
    assert rows and all(
        {"function", "calls", "tottime_s", "cumtime_s"} <= set(row)
        for row in rows)
    # The replay loop itself must show up among the hot functions.
    assert any("simulate" in row["function"] for row in rows)


def test_write_report_names_file_from_label(tmp_path):
    report = small_report(label="unit/test point")
    path = write_report(report, tmp_path)
    assert path.parent == tmp_path
    assert path.name.startswith("BENCH_") and path.suffix == ".json"
    assert "/" not in path.name[6:] and " " not in path.name
    assert json.loads(path.read_text()) == report


def test_write_report_explicit_path(tmp_path):
    report = small_report()
    path = write_report(report, tmp_path / "point.json")
    assert path == tmp_path / "point.json"
    assert json.loads(path.read_text()) == report


def test_check_regression_pass_and_fail(tmp_path):
    report = small_report()
    base = dict(report)

    # Same speed and speedups pass.
    ok, message = check_regression(report, base)
    assert ok and "1.00x" in message
    base_slow = {**base, "aggregate_accesses_per_s":
                 report["aggregate_accesses_per_s"] / 2}
    ok, _ = check_regression(report, base_slow)
    assert ok

    # A >tolerance slowdown fails.
    base_fast = {**base, "aggregate_accesses_per_s":
                 report["aggregate_accesses_per_s"] * 2}
    ok, message = check_regression(report, base_fast, tolerance=0.30)
    assert not ok and "0.50x" in message
    # ... but a loose tolerance tolerates it.
    ok, _ = check_regression(report, base_fast, tolerance=0.60)
    assert ok


def test_check_regression_reads_baseline_file(tmp_path):
    report = small_report()
    path = write_report(report, tmp_path)
    ok, _ = check_regression(report, path)
    assert ok
    bad = {**report, "aggregate_accesses_per_s": 0.0}
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    with pytest.raises(ConfigError):
        check_regression(report, bad_path)


# ---------------------------------------------------------------------
# Sweep mode
# ---------------------------------------------------------------------

def tiny_sweep_report():
    return run_sweep_bench(apps=["povray"], n_accesses=300,
                           configs=["32K_2w"], seeds=(0,), jobs=2,
                           repeats=1)


def test_sweep_report_shape():
    report = tiny_sweep_report()
    assert report["schema"] == SCHEMA and report["mode"] == "sweep"
    assert report["rows_identical"] is True
    assert set(report["modes"]) == {"serial", "parallel"}
    for point in report["modes"].values():
        assert point["best_s"] > 0 and point["cells_per_s"] > 0
    assert report["aggregate_cells_per_s"] == \
        report["modes"]["parallel"]["cells_per_s"]
    assert report["speedup_vs_serial"] > 0
    assert report["cells"] == 4  # 1 app x 2 configs x 2 conds x 1 seed


def test_sweep_bench_honours_engine(monkeypatch):
    """--engine reaches every simulated cell and is recorded."""
    from repro.sim import kernel as kernel_mod
    from repro.sim.bench import _sweep_bench_spec, _time_sweep_once
    report = run_sweep_bench(apps=["povray"], n_accesses=300,
                             configs=["32K_2w"], seeds=(0,), jobs=2,
                             repeats=1, engine="kernel")
    assert report["engine"] == "kernel"
    assert report["rows_identical"] is True
    assert tiny_sweep_report()["engine"] == "python"
    built = []
    real = kernel_mod.make_engine

    def counting(ctx, oracle):
        built.append(ctx)
        return real(ctx, oracle)

    monkeypatch.setattr(kernel_mod, "make_engine", counting)
    spec = _sweep_bench_spec(["povray"], ["32K_2w"], [0])
    _, python_rows = _time_sweep_once(spec, 300, 1, "python")
    assert built == []
    _, kernel_rows = _time_sweep_once(spec, 300, 1, "kernel")
    assert built
    assert kernel_rows == python_rows


def test_sweep_input_validation():
    with pytest.raises(ConfigError):
        run_sweep_bench(jobs=1)
    with pytest.raises(ConfigError):
        run_sweep_bench(n_accesses=0)
    with pytest.raises(ConfigError):
        run_sweep_bench(repeats=0)
    with pytest.raises(ConfigError):
        run_sweep_bench(configs=["no-such-geometry"])


def test_check_regression_spans_bench_modes():
    sweep = tiny_sweep_report()
    ok, message = check_regression(sweep, dict(sweep))
    assert ok and "cells/s" in message
    hotpath_base = {"aggregate_accesses_per_s": 1.0}
    with pytest.raises(ConfigError):
        check_regression(sweep, hotpath_base)
