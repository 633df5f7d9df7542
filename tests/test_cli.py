"""Tests for the command-line interface."""

import pytest

from repro.cli import GEOMETRIES, build_parser, main
from repro.sim import harmonic_mean
from repro.workloads import EVALUATED_APPS


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "32K_2w" in out
    assert "perlbench" in out
    assert "mix10" in out


def test_run_command(capsys):
    rc = main(["run", "--app", "povray", "--accesses", "2000"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "IPC" in out
    assert "fast fraction" in out


def test_run_with_baseline_comparison(capsys):
    rc = main(["run", "--app", "gamess", "--accesses", "2000",
               "--compare-baseline"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "speedup vs VIPT" in out


def test_run_variant_and_core_flags(capsys):
    rc = main(["run", "--app", "povray", "--accesses", "2000",
               "--core", "inorder", "--variant", "naive",
               "--geometry", "64K_4w"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "inorder" in out


def test_run_ideal_scheme(capsys):
    rc = main(["run", "--app", "povray", "--accesses", "2000",
               "--scheme", "ideal"])
    assert rc == 0
    assert "ideal" in capsys.readouterr().out


def test_designspace_command(capsys):
    assert main(["designspace"]) == 0
    out = capsys.readouterr().out
    assert "128K/4" in out


def test_mix_command(capsys):
    rc = main(["mix", "--name", "mix0", "--accesses", "1500"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sum-of-IPC speedup" in out
    assert "h264ref" in out


def test_parser_rejects_unknown_geometry():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--app", "x",
                                   "--geometry", "1M_2w"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_geometry_table_complete():
    assert set(GEOMETRIES) == {"baseline", "16K_4w", "32K_2w", "32K_4w",
                               "64K_4w", "128K_4w"}


# ---------------------------------------------------------------------
# Resilience surface
# ---------------------------------------------------------------------

def test_run_unknown_app_exits_1_with_typed_error(capsys):
    rc = main(["run", "--app", "nosuchapp", "--accesses", "1000"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "TraceError" in captured.err
    assert "nosuchapp" in captured.err
    assert "Traceback" not in captured.err


def test_sweep_command_writes_csv_with_status(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--apps", "povray", "--geometries",
               "baseline,32K_2w", "--baseline", "baseline",
               "--accesses", "1200", "--out", str(out)])
    assert rc == 0
    import csv as csv_mod
    with out.open() as handle:
        rows = list(csv_mod.DictReader(handle))
    assert len(rows) == 2
    assert all(r["status"] == "ok" for r in rows)


def test_sweep_strict_degraded_exits_2(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--apps", "povray,nosuchapp", "--geometries",
               "baseline", "--accesses", "1200", "--out", str(out),
               "--strict"])
    assert rc == 2
    content = out.read_text()
    assert "error" in content and "povray" in content


def test_sweep_unknown_geometry_exits_1(capsys):
    rc = main(["sweep", "--apps", "povray", "--geometries", "1M_2w"])
    assert rc == 1
    assert "unknown geometries" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_sweep_rejects_a_non_positive_or_non_finite_timeout(
        value, tmp_path, capsys):
    """A deadline that cannot fire sensibly is a usage error, not a
    grid of timeout or error rows (nor a deadline silently off)."""
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--apps", "povray", "--geometries",
              "baseline,32K_2w", "--baseline", "baseline",
              "--accesses", "1200", f"--timeout={value}",
              "--out", str(out)])
    assert exc.value.code == 2
    assert "positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_crash_and_resume(tmp_path, capsys):
    journal = tmp_path / "j.jsonl"
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--apps", "povray,gamess", "--geometries",
            "baseline", "--accesses", "1200", "--out", str(out),
            "--journal", str(journal)]
    rc = main(args + ["--inject", "crash@1"])
    assert rc == 3                         # simulated worker crash
    assert not out.exists()                # grid aborted before CSV
    rc = main(["sweep", "--apps", "povray,gamess", "--geometries",
               "baseline", "--accesses", "1200", "--out", str(out),
               "--resume", str(journal)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "1 resumed" in captured.err
    assert len(out.read_text().strip().splitlines()) == 3  # header + 2


def test_suite_reports_error_rows(tmp_path, capsys):
    # A transient that never clears degrades one app; suite continues.
    rc = main(["suite", "--accesses", "800", "--inject",
               "transient@0x99", "--retries", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ERROR" in out
    assert "hmean speedup" in out


def test_suite_prints_no_baseline_for_a_failed_baseline_cell(capsys):
    # The geometry's 26 cells come first, so ordinal 26 is the first
    # app's baseline cell: its geometry row has no ratios to print and
    # stays out of the harmonic mean.
    rc = main(["suite", "--accesses", "800", "--inject",
               "transient@26x99", "--retries", "0"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == [EVALUATED_APPS[0], "no", "baseline",
                                "(error)"]
    speedups = [float(line.split()[2]) for line in lines[2:-1]]
    assert len(speedups) == len(EVALUATED_APPS) - 1
    assert lines[-1].split()[:2] == ["hmean", "speedup"]
    assert float(lines[-1].split()[2]) == pytest.approx(
        harmonic_mean(speedups), abs=2e-3)


def test_suite_parallel_stdout_matches_serial(capsys):
    argv = ["suite", "--accesses", "800"]
    assert main(argv) == 0
    serial = capsys.readouterr().out
    assert main([*argv, "--jobs", "2"]) == 0
    assert capsys.readouterr().out == serial


def test_designspace_through_runner(capsys):
    assert main(["designspace"]) == 0
    out = capsys.readouterr().out
    assert "128K/4" in out


def test_stats_run_prints_and_saves_snapshot(tmp_path, capsys):
    snap = tmp_path / "snap.json"
    rc = main(["stats", "--app", "povray", "--accesses", "2000",
               "--out", str(snap)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "l1d.accesses" in out
    assert "predictor.queries" in out
    assert snap.exists()


def test_stats_filter(capsys):
    rc = main(["stats", "--app", "povray", "--accesses", "2000",
               "--filter", "sipt."])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sipt.fast_fraction" in out
    assert "l1d.accesses" not in out


def test_stats_diff(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["stats", "--app", "povray", "--accesses", "1500",
                 "--out", str(a)]) == 0
    assert main(["stats", "--app", "povray", "--accesses", "3000",
                 "--out", str(b)]) == 0
    capsys.readouterr()
    assert main(["stats", "--diff", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "l1d.accesses" in out          # grew between the two runs


def test_stats_intervals_and_csv(tmp_path, capsys):
    jsonl = tmp_path / "intervals.jsonl"
    csv_path = tmp_path / "intervals.csv"
    rc = main(["stats", "--app", "povray", "--accesses", "4000",
               "--interval", "1000", "--intervals-out", str(jsonl),
               "--export-csv", str(csv_path)])
    assert rc == 0
    assert "4 interval records" in capsys.readouterr().out
    assert len(jsonl.read_text().strip().splitlines()) == 4
    assert csv_path.read_text().startswith("interval,start,end")


def test_stats_without_app_or_diff_exits_1(capsys):
    assert main(["stats"]) == 1
    assert "needs --app" in capsys.readouterr().err


def test_stats_csv_without_interval_exits_1(tmp_path, capsys):
    rc = main(["stats", "--app", "povray", "--accesses", "1000",
               "--export-csv", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "--interval" in capsys.readouterr().err


@pytest.mark.parametrize("interval", ["0", "-5"])
def test_stats_non_positive_interval_exits_1(tmp_path, capsys, interval):
    jsonl = tmp_path / "intervals.jsonl"
    rc = main(["stats", "--app", "povray", "--accesses", "1000",
               "--interval", interval, "--intervals-out", str(jsonl)])
    assert rc == 1
    assert "interval" in capsys.readouterr().err
    assert not jsonl.exists()


def test_trace_command(tmp_path, capsys):
    out_path = tmp_path / "trace.jsonl"
    rc = main(["trace", "--app", "povray", "--accesses", "2000",
               "--sample", "16", "--capacity", "64", "--tail", "3",
               "--out", str(out_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "recorded  : 125 decisions" in out
    assert "outcomes" in out
    assert len(out_path.read_text().strip().splitlines()) == 1 + 64


def test_bench_interval_point(tmp_path, capsys):
    out = tmp_path / "bench.json"
    rc = main(["bench", "--apps", "povray", "--accesses", "2000",
               "--repeats", "1", "--interval", "500",
               "--label", "t", "--out", str(out)])
    assert rc == 0
    import json
    assert json.loads(out.read_text())["interval"] == 500


SWEEP_GRID = ["--apps", "gamess", "--geometries", "baseline,32K_2w",
              "--baseline", "baseline", "--accesses", "1000"]


def test_sweep_store_second_run_simulates_nothing(tmp_path, capsys):
    store = str(tmp_path / "store")
    cold = tmp_path / "cold.csv"
    warm = tmp_path / "warm.csv"
    assert main(["sweep", *SWEEP_GRID, "--out", str(cold),
                 "--store", store]) == 0
    err = capsys.readouterr().err
    assert "2 simulated" in err
    assert main(["sweep", *SWEEP_GRID, "--out", str(warm),
                 "--store", store]) == 0
    err = capsys.readouterr().err
    assert "2 of 2 cells from store, 0 simulated" in err
    assert "2 store hits" in err
    assert warm.read_bytes() == cold.read_bytes()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_store_gc_runs_only_after_a_run_that_simulated(tmp_path, monkeypatch,
                                                       capsys, jobs):
    """GC stats every file under the root, so a fully warm rerun skips
    it. Under --jobs 2 the workers publish, and the cold run still
    collects."""
    from repro.store import ResultStore
    calls = []
    real_gc = ResultStore.gc

    def gc(self, *args, **kwargs):
        calls.append(1)
        return real_gc(self, *args, **kwargs)

    monkeypatch.setattr(ResultStore, "gc", gc)
    store = str(tmp_path / "store")
    for run, simulated, gcs in (("cold", "2 simulated", 1),
                                ("warm", "0 simulated", 0)):
        calls.clear()
        assert main(["sweep", *SWEEP_GRID, "--jobs", jobs, "--out",
                     str(tmp_path / f"{run}.csv"), "--store", store]) == 0
        assert simulated in capsys.readouterr().err
        assert len(calls) == gcs, run


def test_sweep_store_names_detailed_core_results_apart(tmp_path, capsys):
    from repro.store import ResultStore
    store = ResultStore(tmp_path / "store")
    assert main(["sweep", "--apps", "gamess", "--geometries", "32K_2w",
                 "--cores", "ooo,ooo-detailed", "--accesses", "800",
                 "--out", str(tmp_path / "s.csv"),
                 "--store", str(store.root)]) == 0
    systems = {store.fetch_result(digest).system
               for digest, _files in store.entries()}
    assert systems == {"ooo/32K/2w/2c/sipt-combined",
                       "ooo-detailed/32K/2w/2c/sipt-combined"}


def test_sweep_store_default_root_honors_env(tmp_path, monkeypatch,
                                             capsys):
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "root"))
    assert main(["sweep", *SWEEP_GRID, "--out",
                 str(tmp_path / "s.csv"), "--store"]) == 0
    assert (tmp_path / "root" / "v1").is_dir()


def test_jobs_submit_run_result_round_trip(tmp_path, capsys):
    store = str(tmp_path / "store")
    sweep_csv = tmp_path / "sweep.csv"
    assert main(["sweep", *SWEEP_GRID, "--out", str(sweep_csv),
                 "--store", store]) == 0
    capsys.readouterr()
    assert main(["jobs", "submit", *SWEEP_GRID, "--store", store]) == 0
    out = capsys.readouterr().out
    job_id = out.split()[1].rstrip(":")
    assert "2 already in store" in out
    assert main(["jobs", "status", "--store", store]) == 0
    assert "2/2 done" in capsys.readouterr().out
    job_csv = tmp_path / "job.csv"
    assert main(["jobs", "result", job_id, "--out", str(job_csv),
                 "--store", store]) == 0
    assert job_csv.read_bytes() == sweep_csv.read_bytes()


def test_jobs_run_executes_missing_cells(tmp_path, capsys):
    store = str(tmp_path / "store")
    assert main(["jobs", "submit", *SWEEP_GRID, "--store", store]) == 0
    job_id = capsys.readouterr().out.split()[1].rstrip(":")
    job_csv = tmp_path / "job.csv"
    # result before run: the cells are not in the store yet.
    assert main(["jobs", "result", job_id, "--out", str(job_csv),
                 "--store", store]) == 1
    assert "not in the store yet" in capsys.readouterr().err
    assert main(["jobs", "run", job_id, "--store", store]) == 0
    assert "2 simulated" in capsys.readouterr().err
    assert main(["jobs", "result", job_id, "--out", str(job_csv),
                 "--store", store]) == 0
    assert job_csv.exists()


def test_jobs_unknown_id_exits_1(tmp_path, capsys):
    assert main(["jobs", "status", "feedfacecafe",
                 "--store", str(tmp_path)]) == 1
    assert "unknown job" in capsys.readouterr().err


def test_jobs_status_names_unreadable_records_and_exits_1(tmp_path,
                                                          capsys):
    """A job record that does not load is named, with a pointer to the
    doctor, beside the records that do; it never reads as "no jobs"."""
    store = tmp_path / "store"
    (store / "jobs").mkdir(parents=True)
    (store / "jobs" / "mangled.json").write_text("{]")
    assert main(["jobs", "status", "--store", str(store)]) == 1
    out, err = capsys.readouterr()
    assert "no jobs" not in out
    assert "mangled.json" in err
    assert "repro store doctor" in err
    assert main(["jobs", "submit", *SWEEP_GRID, "--store", str(store)]) == 0
    job_id = capsys.readouterr().out.split()[1].rstrip(":")
    assert main(["jobs", "status", "--store", str(store)]) == 1
    out, err = capsys.readouterr()
    assert f"job {job_id}: 0/2 done, 2 pending" in out
    assert "mangled.json" in err
    assert main(["store", "doctor", "--repair", "--store", str(store)]) == 0
    capsys.readouterr()
    assert main(["jobs", "status", "--store", str(store)]) == 0
    assert capsys.readouterr().err == ""


def test_jobs_result_partial_streams_completed_cells(tmp_path, capsys):
    """PR 9: `jobs result --partial` streams the done rows of a grid
    whose remaining cells are still pending, exit 0."""
    store = str(tmp_path / "store")
    wide = ["--apps", "gamess,tonto", "--geometries",
            "baseline,32K_2w", "--baseline", "baseline",
            "--accesses", "1000"]
    assert main(["jobs", "submit", *wide, "--store", store]) == 0
    job_id = capsys.readouterr().out.split()[1].rstrip(":")
    # Fill half the grid: a sweep over just the gamess cells.
    assert main(["sweep", *SWEEP_GRID, "--out",
                 str(tmp_path / "half.csv"), "--store", store]) == 0
    capsys.readouterr()
    out_csv = tmp_path / "partial.csv"
    # Without --partial the pending cells are a hard error...
    assert main(["jobs", "result", job_id, "--out", str(out_csv),
                 "--store", store]) == 1
    assert "--partial" in capsys.readouterr().err
    # ...with it, the finished rows stream out now.
    assert main(["jobs", "result", job_id, "--out", str(out_csv),
                 "--partial", "--store", store]) == 0
    out = capsys.readouterr().out
    assert "wrote 2 of 4 rows" in out and "partial" in out
    text = out_csv.read_text()
    assert "gamess" in text and "tonto" not in text


def test_jobs_overlapping_grids_finish_together_and_leave_a_clean_root(
        tmp_path, capsys):
    """Submit a grid and a wider one over it, run only the wider one:
    both jobs read fully done and the root is clean."""
    store = str(tmp_path / "store")
    wide = ["--apps", "gamess,tonto", "--geometries",
            "baseline,32K_2w", "--baseline", "baseline",
            "--accesses", "1000"]
    assert main(["jobs", "submit", *SWEEP_GRID, "--store", store]) == 0
    narrow_id = capsys.readouterr().out.split()[1].rstrip(":")
    assert main(["jobs", "submit", *wide, "--store", store]) == 0
    out = capsys.readouterr().out
    wide_id = out.split()[1].rstrip(":")
    assert out == f"job {wide_id}: 4 cells, 0 already in store\n"
    assert not (tmp_path / "store" / "pending").exists()
    assert main(["jobs", "run", wide_id, "--store", store]) == 0
    assert "4 simulated" in capsys.readouterr().err
    assert main(["jobs", "status", "--store", store]) == 0
    lines = sorted(capsys.readouterr().out.splitlines())
    assert lines == sorted([f"job {narrow_id}: 2/2 done, 0 pending",
                            f"job {wide_id}: 4/4 done, 0 pending"])
    assert main(["store", "doctor", "--store", store]) == 0
    assert capsys.readouterr().out.rstrip().endswith(": clean")
    assert not (tmp_path / "store" / "pending").exists()


# ---------------------------------------------------------------------
# Cell identity: journals, checkpoints and the store key one function
# ---------------------------------------------------------------------

def test_suite_journal_does_not_resume_across_way_prediction(tmp_path,
                                                             capsys):
    """The geometry name is the same with and without way prediction,
    the L1 is not: a resume must rerun, not replay, every cell."""
    journal = str(tmp_path / "j.jsonl")
    argv = ["suite", "--geometry", "32K_4w", "--accesses", "600"]
    assert main([*argv, "--way-prediction", "--journal", journal]) == 0
    predicted = capsys.readouterr().out
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert plain != predicted
    assert main([*argv, "--resume", journal]) == 0
    captured = capsys.readouterr()
    assert captured.out == plain
    # Only the VIPT baseline half, the same cells either way, resumes.
    assert "(26 resumed)" in captured.err
    # The same flags do resume.
    assert main([*argv, "--way-prediction", "--resume", journal]) == 0
    captured = capsys.readouterr()
    assert captured.out == predicted
    assert "52 resumed" in captured.err


RUN_CELL = ["run", "--app", "mcf", "--geometry", "32K_4w",
            "--way-prediction", "--accesses", "3000"]


def _checkpointed(argv, ckpts):
    return [*argv, "--checkpoint-every", "500", "--checkpoint-dir",
            str(ckpts)]


def _crashed_run(tmp_path, capsys):
    """A way-predicted run killed at access 2000; returns its ckpt dir."""
    ckpts = tmp_path / "ckpts"
    assert main([*_checkpointed(RUN_CELL, ckpts),
                 "--inject", "crash@0@2000"]) == 3
    assert len(list(ckpts.glob("ckpt-*.json"))) == 1
    capsys.readouterr()
    return ckpts


@pytest.mark.parametrize("change", [
    ["--way-prediction"], ["--accesses", "4000"], ["--variant", "naive"]],
    ids=["way-prediction", "accesses", "variant"])
def test_run_checkpoint_resumes_only_its_own_cell(tmp_path, capsys,
                                                  change):
    """After a crash, a run of a different cell starts fresh (its output
    equals a clean run, the snapshot stays), and the same cell resumes
    (the snapshot is consumed)."""
    ckpts = _crashed_run(tmp_path, capsys)
    if change == ["--way-prediction"]:
        other = [a for a in RUN_CELL if a != "--way-prediction"]
    else:
        other = [*RUN_CELL, *change]
    assert main(other) == 0
    clean = capsys.readouterr().out
    assert main(_checkpointed(other, ckpts)) == 0
    assert capsys.readouterr().out == clean
    assert len(list(ckpts.glob("ckpt-*.json"))) == 1
    assert main(RUN_CELL) == 0
    same_clean = capsys.readouterr().out
    assert main(_checkpointed(RUN_CELL, ckpts)) == 0
    assert capsys.readouterr().out == same_clean
    assert not list(ckpts.glob("ckpt-*.json"))


def test_explicit_resume_of_another_cell_fails_closed(tmp_path, capsys):
    ckpts = _crashed_run(tmp_path, capsys)
    (snapshot,) = ckpts.glob("ckpt-*.json")
    plain = [a for a in RUN_CELL if a != "--way-prediction"]
    assert main([*plain, "--resume-checkpoint", str(snapshot)]) == 1
    err = capsys.readouterr().err
    assert "CheckpointError" in err and "taken on cell" in err


@pytest.mark.parametrize("argv", [
    ["run", "--app", "gamess"], ["suite"], ["stats", "--app", "gamess"],
    ["trace", "--app", "gamess"], ["mix"], ["validate"], ["bench"],
    ["sweep", "--apps", "gamess", "--geometries", "baseline"],
    ["jobs", "submit", "--apps", "gamess"]],
    ids=lambda argv: argv[0] + ("-" + argv[1] if argv[0] == "jobs" else ""))
def test_non_positive_accesses_rejected_at_parse_time(argv, capsys):
    """``--accesses 0`` used to run the 50,000-access default."""
    for bad in ("0", "-5"):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*argv, "--accesses", bad])
        assert exc.value.code == 2
        assert "must be positive" in capsys.readouterr().err


def _count_generations(monkeypatch):
    import repro.sim.experiment as experiment
    calls = []
    real = experiment.generate_trace

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(experiment, "generate_trace", counted)
    return calls


def test_warm_store_rerun_and_jobs_submit_generate_no_trace(
        tmp_path, monkeypatch, capsys):
    calls = _count_generations(monkeypatch)
    store = str(tmp_path / "store")
    grid = [*SWEEP_GRID, "--conditions", "normal,fragmented"]
    assert main(["sweep", *grid, "--out", str(tmp_path / "cold.csv"),
                 "--store", store]) == 0
    assert calls                    # the cold run did generate
    calls.clear()
    assert main(["sweep", *grid, "--out", str(tmp_path / "warm.csv"),
                 "--store", store]) == 0
    assert "0 simulated" in capsys.readouterr().err
    assert main(["jobs", "submit", *grid, "--store", store]) == 0
    assert "4 already in store" in capsys.readouterr().out
    assert calls == []


def test_python_engine_store_serves_kernel_rerun(tmp_path, capsys):
    """Engine is not part of the cell identity: a store populated by
    the python oracle serves a kernel sweep of the same grid in full."""
    store = str(tmp_path / "store")
    grid = ["--apps", "mcf,gamess", "--geometries", "baseline,32K_2w",
            "--baseline", "baseline", "--accesses", "1000"]
    python_csv = tmp_path / "python.csv"
    kernel_csv = tmp_path / "kernel.csv"
    assert main(["sweep", *grid, "--engine", "python", "--store", store,
                 "--out", str(python_csv)]) == 0
    capsys.readouterr()
    assert main(["sweep", *grid, "--engine", "kernel", "--store", store,
                 "--out", str(kernel_csv)]) == 0
    assert "4 of 4 cells from store, 0 simulated" in capsys.readouterr().err
    assert kernel_csv.read_bytes() == python_csv.read_bytes()
