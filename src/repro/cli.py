"""Command-line interface: run SIPT experiments without writing code.

Examples::

    python -m repro list
    python -m repro run --app perlbench --geometry 32K_2w
    python -m repro run --app calculix --variant naive --core inorder
    python -m repro suite --geometry 64K_4w --accesses 10000
    python -m repro sweep --apps perlbench,mcf --journal sweep.jsonl
    python -m repro sweep --resume sweep.jsonl   # continue after a crash
    python -m repro sweep --journal sweep.jsonl \
        --checkpoint-every 10000 --checkpoint-dir ckpts  # mid-cell resume
    python -m repro run --app mcf --checkpoint-every 10000 \
        --checkpoint-dir ckpts                   # rerun resumes mid-trace
    python -m repro sweep --apps perlbench,mcf --store   # reuse results
    python -m repro jobs submit --apps perlbench,mcf --baseline baseline
    python -m repro jobs run <id> --jobs 4   # execute the missing cells
    python -m repro jobs result <id> --out grid.csv
    python -m repro figures --jobs 2 --engine kernel   # paper grids
    python -m repro mix --name mix0
    python -m repro designspace
    python -m repro validate --min-pass 6
    python -m repro stats --app mcf --out snap.json --interval 10000
    python -m repro stats --diff base.json sipt.json
    python -m repro trace --app mcf --sample 64 --tail 5
    python -m repro sweep --jobs 2 --inject kill_worker@1 \
        --journal chaos.jsonl                    # chaos-test the pool

Exit codes: ``0`` success, ``1`` a typed error (printed to stderr) or
failed validation, ``2`` the grid completed but degraded (error,
timeout, or crashed rows) under ``--strict``, ``3`` a simulated worker
crash (fault injection), ``130`` interrupted (Ctrl-C; the journal stays
resumable).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional

from . import faultfs
from .core.indexing import IndexingScheme, SiptVariant
from .errors import ConfigError, ReproError
from .sim import (
    BASELINE_L1,
    L1_16K_4W_VIPT,
    SIPT_GEOMETRIES,
    FaultInjector,
    ResilientRunner,
    RetryPolicy,
    TraceCache,
    WorkerCrash,
    checkpoint_path_for,
    harmonic_mean,
    run_app,
    run_sweep,
    system_for,
    to_csv,
)
from .sim.experiment import trace_recipe
from .sim.sweep import SweepSpec, cell_key
from .timing.cacti import CactiModel
from .workloads import EVALUATED_APPS, MIX_NAMES, MemoryCondition

GEOMETRIES = {"baseline": BASELINE_L1, "16K_4w": L1_16K_4W_VIPT,
              **SIPT_GEOMETRIES}

CONDITIONS = {c.value: c for c in MemoryCondition}

#: Exit code for a grid that completed but carries error rows (--strict).
EXIT_DEGRADED = 2
#: Exit code for a simulated worker crash (fault injection).
EXIT_CRASHED = 3

#: The config name of ``suite``'s VIPT reference. It is not a
#: :data:`GEOMETRIES` name, so no ``--geometry`` can collide with it.
SUITE_BASELINE = "vipt-baseline"


def _positive_int(text: str) -> int:
    """argparse type of every ``--accesses``: a positive integer."""
    if int(text) <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return int(text)


def _positive_float(text: str) -> float:
    """argparse type of ``--timeout``: a positive, finite float."""
    if not 0 < float(text) < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, "
                                         f"got {text}")
    return float(text)


def _l1(args, geometry: Optional[str] = None):
    l1 = GEOMETRIES[geometry or args.geometry]
    if args.scheme:
        l1 = l1.with_scheme(IndexingScheme(args.scheme))
    if args.variant:
        l1 = replace(l1, variant=SiptVariant(args.variant))
    if args.way_prediction:
        l1 = replace(l1, way_prediction=True)
    return l1


def _runner(args) -> ResilientRunner:
    """Build the resilience runner from the common CLI flags.

    One ``--inject`` flag serves two fault families: I/O kinds
    (``io_error``/``estale``/``enospc``/``slow_io``/``torn_write``)
    arm a process-local :class:`~repro.faultfs.FaultPlan` at the
    :mod:`repro.ioutil` choke point, the rest build the simulation
    :class:`FaultInjector`. The partition matters — ``run_sweep``
    disables the result store whenever *simulation* faults are armed
    (injected divergence must not be published), but I/O-fault
    campaigns exist precisely to exercise the store paths.
    """
    journal = getattr(args, "journal", None)
    resume = getattr(args, "resume", None)
    faults = None
    if getattr(args, "inject", None):
        io_specs, sim_specs = faultfs.split_specs(args.inject)
        if io_specs:
            faultfs.install_plan(faultfs.FaultPlan(io_specs))
        if sim_specs:
            faults = FaultInjector(sim_specs)
    checkpoint_dir = getattr(args, "checkpoint_dir", None)
    if checkpoint_dir:
        Path(checkpoint_dir).mkdir(parents=True, exist_ok=True)
    return ResilientRunner(
        journal=journal or resume,
        resume_from=resume,
        timeout_s=getattr(args, "timeout", None),
        retry=RetryPolicy(max_retries=getattr(args, "retries", 2)),
        faults=faults,
        jobs=getattr(args, "jobs", 1),
        checkpoint_dir=checkpoint_dir,
        max_cell_crashes=getattr(args, "max_cell_crashes", 2),
        max_worker_restarts=getattr(args, "max_worker_restarts", None))


def _finish(args, runner: ResilientRunner) -> int:
    """Common epilogue: report runner stats, apply --strict."""
    runner.close()
    stats = runner.stats
    if stats.total:
        print(f"[resilience] {stats.summary()}", file=sys.stderr)
    if stats.degraded and getattr(args, "strict", False):
        return EXIT_DEGRADED
    return 0


def _print_result(result, baseline=None) -> None:
    print(f"app               : {result.app}")
    print(f"system            : {result.system}")
    print(f"IPC               : {result.ipc:.4f}")
    print(f"L1 miss rate      : {result.l1_stats.miss_rate:.4f}")
    print(f"fast fraction     : {result.fast_fraction:.4f}")
    print(f"extra L1 accesses : {result.extra_access_fraction:.4f}")
    print(f"cache energy (mJ) : {result.energy.total * 1e3:.4f}")
    if result.way_prediction_accuracy is not None:
        print(f"way pred accuracy : {result.way_prediction_accuracy:.4f}")
    if result.outcomes.total:
        print("outcomes          :", {
            k: round(v, 3)
            for k, v in result.outcomes.as_fractions().items() if v})
    if baseline is not None:
        print(f"speedup vs VIPT   : {result.speedup_over(baseline):.4f}")
        print(f"energy vs VIPT    : {result.energy_over(baseline):.4f}")


def cmd_list(args) -> int:
    """`repro list`: print every valid name for the choice flags."""
    print("geometries :", ", ".join(GEOMETRIES))
    print("apps       :", ", ".join(EVALUATED_APPS))
    print("mixes      :", ", ".join(MIX_NAMES))
    print("conditions :", ", ".join(CONDITIONS))
    print("schemes    :", ", ".join(s.value for s in IndexingScheme))
    print("variants   :", ", ".join(v.value for v in SiptVariant))
    return 0


def cmd_run(args) -> int:
    """`repro run`: simulate one app, print the result block."""
    traces = TraceCache()
    runner = _runner(args)
    condition = CONDITIONS[args.condition]
    system = system_for(args.core, _l1(args))
    holder: Dict[str, object] = {}
    key = cell_key(args.geometry,
                   trace_recipe(args.app, args.accesses, condition), system)
    if args.checkpoint_every and not (args.checkpoint_dir
                                      or args.resume_checkpoint):
        raise ConfigError("--checkpoint-every needs --checkpoint-dir "
                          "(or an explicit --resume-checkpoint file)")
    ckpt = None
    if args.resume_checkpoint:
        ckpt = Path(args.resume_checkpoint)
    elif args.checkpoint_dir:
        ckpt = checkpoint_path_for(args.checkpoint_dir, key)

    def cell():
        holder["result"] = run_app(
            args.app, system, condition=condition,
            n_accesses=args.accesses, cache=traces,
            checkpoint_every=args.checkpoint_every,
            checkpoint_path=ckpt if args.checkpoint_every else None,
            resume_checkpoint=ckpt, engine=args.engine)
        if args.compare_baseline:
            holder["baseline"] = run_app(
                args.app, system_for(args.core, BASELINE_L1),
                condition=condition, n_accesses=args.accesses, cache=traces,
                engine=args.engine)
        result = holder["result"]
        return {"app": args.app, "ipc": result.ipc}

    # degrade=False: a single-cell command wants the typed error (exit 1
    # via main's handler), not an error row — but retries/timeouts and
    # injected faults still apply.
    runner.run_cell(key, cell, degrade=False)
    runner.close()
    _print_result(holder["result"], holder.get("baseline"))
    return 0


def cmd_suite(args) -> int:
    """`repro suite`: per-app speedup/energy table over the suite.

    A two-config sweep over :data:`EVALUATED_APPS`: the ``--geometry``
    L1, normalized against the VIPT baseline. The geometry comes first,
    so fault ordinals count its rows; only its rows are printed. An app
    whose baseline cell failed has no ratios: it prints as ``no
    baseline`` and stays out of the harmonic mean.
    """
    spec = SweepSpec(apps=list(EVALUATED_APPS),
                     configs={args.geometry: _l1(args),
                              SUITE_BASELINE: BASELINE_L1},
                     cores=[args.core],
                     conditions=[CONDITIONS[args.condition]],
                     baseline=SUITE_BASELINE)
    runner = _runner(args)
    rows = run_sweep(spec, n_accesses=args.accesses, runner=runner,
                     checkpoint_every=args.checkpoint_every,
                     engine=args.engine)
    speedups = []
    print(f"{'app':>14s} {'IPC':>7s} {'speedup':>8s} {'fast':>6s} "
          f"{'energy':>7s}")
    n = len(EVALUATED_APPS)
    for row, base in zip(rows[:n], rows[n:]):
        app = row["app"]
        if row["status"] != "ok":
            print(f"{app:>14s} {'ERROR':>7s}  {row['error']}")
            continue
        if base["status"] != "ok":
            print(f"{app:>14s} no baseline ({base['status']})")
            continue
        speedups.append(row["speedup"])
        print(f"{app:>14s} {row['ipc']:>7.3f} {row['speedup']:>8.3f} "
              f"{row['fast_fraction']:>6.2f} {row['energy_ratio']:>7.3f}")
    if speedups:
        print(f"{'hmean speedup':>14s} {'':>7s} "
              f"{harmonic_mean(speedups):>8.3f}")
    return _finish(args, runner)


def _sweep_spec(args) -> SweepSpec:
    """Build (and validate) the sweep grid from the shared grid flags."""
    apps = [a.strip() for a in args.apps.split(",") if a.strip()]
    names = [g.strip() for g in args.geometries.split(",") if g.strip()]
    unknown = [g for g in names if g not in GEOMETRIES]
    if unknown:
        raise ConfigError(f"unknown geometries {unknown}; "
                          f"choose from {sorted(GEOMETRIES)}")
    return SweepSpec(
        apps=apps,
        configs={name: GEOMETRIES[name] for name in names},
        cores=[c.strip() for c in args.cores.split(",") if c.strip()],
        conditions=[CONDITIONS[c.strip()]
                    for c in args.conditions.split(",") if c.strip()],
        seeds=[int(s) for s in args.seeds.split(",") if s.strip()],
        baseline=args.baseline)


def _store_from(args):
    """The :class:`~repro.store.ResultStore` the flags ask for, if any.

    ``--store`` with no value means the default root
    (``REPRO_STORE_DIR`` or ``~/.cache/repro-store``); with a value,
    that directory. Absent (``None``) means no store participation.
    """
    value = getattr(args, "store", None)
    if value is None:
        return None
    from .store import ResultStore
    return ResultStore(value or None)


def _store_report(store, runner) -> None:
    """Print the store dedupe summary + run GC (the ``[store]`` line).

    The line is stable and grep-able — CI's store-smoke job asserts
    ``, 0 simulated`` on a fully warm rerun, and io-fault-smoke greps
    ``degraded`` from the failure line printed here. Write failures
    (the store surfaces the caller explicitly asked for and did not
    get) fold into ``RunnerStats.artifact_failures`` so ``--strict``
    sees them; read failures stay informational — a failed read is a
    miss that already re-simulated exactly.

    GC (which stats every file under the root) runs only after a run
    that simulated a cell: a fully warm run published nothing, so the
    store cannot have outgrown its cap. The gate is the simulated
    count, not ``store.stores``: under ``--jobs N`` the pool workers
    publish, so the parent's tally stays 0.
    """
    hits = runner.stats.store_hits
    simulated = runner.stats.total - hits
    print(f"[store] {hits} of {runner.stats.total} cells from store, "
          f"{simulated} simulated (root {store.root})", file=sys.stderr)
    if store.degraded:
        print(f"[store] degraded: {store.read_failures} read failures "
              f"(served as misses), {store.write_failures} write "
              "failures (entries unpublished); results are unaffected",
              file=sys.stderr)
        runner.stats.artifact_failures += store.write_failures
    if not simulated:
        return
    removed, freed = store.gc()
    if removed:
        print(f"[store] gc evicted {removed} entries "
              f"({freed / 1024:.0f} KiB) to honor the size cap",
              file=sys.stderr)
    if store.tmp_swept:
        print(f"[store] gc swept {store.tmp_swept} orphaned tmp "
              "file(s)", file=sys.stderr)


def cmd_sweep(args) -> int:
    """`repro sweep`: run an (apps x geometries x ...) grid to CSV."""
    spec = _sweep_spec(args)
    runner = _runner(args)
    store = _store_from(args)
    rows = run_sweep(spec, n_accesses=args.accesses, runner=runner,
                     checkpoint_every=args.checkpoint_every,
                     engine=args.engine,
                     store=store)
    path = to_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {path}")
    if store is not None:
        _store_report(store, runner)
    return _finish(args, runner)


def cmd_jobs(args) -> int:
    """`repro jobs`: submit/track/run/collect store-backed sweep jobs.

    The daemon-free async front end over the content-addressed store
    (``docs/sweep-service.md``): ``submit`` journals a grid and counts
    its cells already stored, ``status`` recomputes progress live, ``run``
    executes the missing cells through :func:`run_sweep` with the
    store attached, and ``result`` composes the CSV purely from store
    entries — byte-identical to a cold ``sweep`` of the same grid.
    """
    from .sim.sweep import grid_cells, rows_from_store
    from .store import job_status, list_jobs, load_job, submit_job
    store = _store_from(args)
    if args.action == "submit":
        spec = _sweep_spec(args)
        grid = {"apps": spec.apps, "geometries": list(spec.configs),
                "baseline": spec.baseline, "cores": spec.cores,
                "conditions": [c.value for c in spec.conditions],
                "seeds": spec.seeds, "accesses": args.accesses}
        cells = [(key, key["cell"])
                 for key, _recipe, _system in grid_cells(spec,
                                                        args.accesses)]
        summary = submit_job(store, grid, cells)
        print(f"job {summary['id']}: {summary['cells']} cells, "
              f"{summary['done']} already in store")
        return 0
    if args.action == "status":
        records, unreadable = (([load_job(store, args.id)], []) if args.id
                               else list_jobs(store))
        if not records and not unreadable:
            print("no jobs submitted to this store")
            return 0
        for record in records:
            st = job_status(store, record)
            print(f"job {record['id']}: {st['done']}/{st['total']} "
                  f"done, {st['pending']} pending")
        for _path, reason in unreadable:
            print(reason, file=sys.stderr)
        if unreadable:
            print(f"{len(unreadable)} job record(s) unreadable; "
                  "`repro store doctor` reports them and --repair "
                  "removes them", file=sys.stderr)
            return 1
        return 0
    record = load_job(store, args.id)
    spec, accesses = _spec_from_grid(record["grid"])
    if args.action == "run":
        runner = _runner(args)
        run_sweep(spec, n_accesses=accesses, runner=runner,
                  engine=args.engine, store=store)
        _store_report(store, runner)
        return _finish(args, runner)
    # action == "result"
    rows, missing = rows_from_store(spec, accesses, store)
    if missing and not args.partial:
        print(f"job {record['id']}: {len(missing)} of {len(rows)} cells "
              "not in the store yet — `repro jobs run` it, or stream "
              "what exists with --partial", file=sys.stderr)
        return 1
    if missing:
        done_rows = [row for row in rows if row.get("status")]
        path = to_csv(done_rows, args.out)
        print(f"wrote {len(done_rows)} of {len(rows)} rows to {path} "
              f"(partial: {len(missing)} cells still pending)")
        return 0
    path = to_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def cmd_store(args) -> int:
    """`repro store`: maintenance over the content-addressed store.

    ``doctor`` scans the root for damage a long shared life
    accumulates — ``*.tmp`` litter, corrupt/truncated entries,
    unloadable job records — and prints one line per finding. With
    ``--repair`` it also applies each finding's fix (all removals;
    safe because the store is idempotent and content-addressed). Exits
    0 when the root ends the command clean, 1 when findings remain
    (reported but unrepaired, or a repair failed) so cron/CI can alert
    on a dirty root.
    """
    from .store import diagnose, repair, summarize
    store = _store_from(args)
    findings = diagnose(store)
    if not findings:
        print(f"store {store.root}: clean")
        return 0
    for finding in findings:
        print(f"[{finding.category}] {finding.path}: {finding.detail}")
    tally = ", ".join(f"{count} {category}" for category, count
                      in sorted(summarize(findings).items()))
    if not args.repair:
        print(f"store {store.root}: {len(findings)} finding(s) "
              f"({tally}); rerun with --repair to fix")
        return 1
    fixed, failed = repair(store, findings)
    print(f"store {store.root}: repaired {fixed} of {len(findings)} "
          f"finding(s) ({tally})")
    if failed:
        print(f"store {store.root}: {failed} repair(s) failed — is "
              "the root writable?", file=sys.stderr)
        return 1
    return 0


def cmd_figures(args) -> int:
    """`repro figures`: print every grid-shaped figure's table.

    One runner, one trace cache and one read-once result store serve
    every figure (:mod:`repro.figures`), so a cell shared by two
    figures is simulated, or read from ``--store``, once; with
    ``--store`` a rerun simulates nothing. The cache is planned over
    every figure's grids before the first, so each trace is generated
    once and freed after the last cell that replays it.
    """
    from .figures import FIGURES, compute, private_store
    from .report import print_table
    from .sim.sweep import plan_traces
    runner = _runner(args)
    store = _store_from(args)
    traces = plan_traces(TraceCache(), [
        spec for figure in FIGURES for spec in figure.specs],
        args.accesses)
    with private_store(store) as bound:
        for figure in FIGURES:
            print_table(*figure.render(compute(
                figure, args.accesses, traces, runner, args.engine,
                bound)))
        if store is not None:
            _store_report(bound, runner)
    return _finish(args, runner)


def _spec_from_grid(grid: dict):
    """Rebuild ``(SweepSpec, accesses)`` from a job record's grid.

    The inverse of ``jobs submit``'s grid payload; names resolve
    through the same tables as the live flags, so a job submitted on
    one machine runs identically on another sharing the store root.
    """
    try:
        spec = SweepSpec(
            apps=list(grid["apps"]),
            configs={name: GEOMETRIES[name]
                     for name in grid["geometries"]},
            cores=list(grid["cores"]),
            conditions=[CONDITIONS[c] for c in grid["conditions"]],
            seeds=[int(s) for s in grid["seeds"]],
            baseline=grid["baseline"])
        return spec, grid["accesses"]
    except KeyError as exc:
        raise ConfigError(
            f"job grid is missing {exc} — submitted by an incompatible "
            "version? resubmit with this CLI") from None


def cmd_mix(args) -> int:
    """`repro mix`: simulate one Table III quad-core mix.

    A one-mix grid of the baseline L1 and the flags' L1, computed like
    a figure (:func:`repro.figures.compute`) on a private store.
    """
    from .figures import Figure, compute
    condition = CONDITIONS[args.condition]
    spec = SweepSpec(apps=[args.name], cores=[args.core],
                     conditions=[condition],
                     configs={"base": BASELINE_L1, "sipt": _l1(args)})
    figure = Figure(args.name, (spec,), lambda get: [
        get(name, args.name, args.core, condition)
        for name in spec.configs], render=None)
    base, sipt = compute(figure, args.accesses, engine=args.engine)
    for core, (b, s) in enumerate(zip(base, sipt)):
        print(f"core {core} {b.app:>14s}: base={b.ipc:.3f} "
              f"sipt={s.ipc:.3f} ({s.ipc / b.ipc:.3f}x)")
    print(f"sum-of-IPC speedup: "
          f"{sum(r.ipc for r in sipt) / sum(r.ipc for r in base):.3f}")
    if args.out:
        _write_mix_csv(args.out, args.name, base, sipt)
        print(f"wrote {args.out}")
    return 0


def _write_mix_csv(path, mix_name, base, sipt) -> None:
    """Per-core mix results at full float precision.

    ``repr`` floats make the file a byte-level engine-equivalence
    artifact: a python-engine CSV and a kernel-engine CSV of the same
    mix must satisfy ``cmp`` — any replay divergence, however small,
    shows up as a byte difference.
    """
    import csv
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mix", "core", "app", "l1", "instructions",
                         "cycles", "ipc", "l1_hits", "l1_misses"])
        for label, results in (("base", base), ("sipt", sipt)):
            for core, r in enumerate(results):
                writer.writerow([
                    mix_name, core, r.app, label, r.instructions,
                    repr(r.cycles), repr(r.ipc),
                    r.l1_stats.hits, r.l1_stats.misses])


def cmd_bench(args) -> int:
    """`repro bench`: time the hot path or the sweep, emit BENCH_*.json."""
    from .sim.bench import (DEFAULT_APPS, SWEEP_BENCH_APPS,
                            check_regression, run_bench, run_sweep_bench,
                            write_report)
    default_apps = (SWEEP_BENCH_APPS if args.mode == "sweep"
                    else DEFAULT_APPS)
    apps = [a.strip() for a in (args.apps or ",".join(default_apps)
                                ).split(",") if a.strip()]
    accesses = args.accesses or (8_000 if args.mode == "sweep"
                                 else 20_000)
    unknown = [a for a in apps if a not in EVALUATED_APPS]
    if unknown:
        raise ConfigError(f"unknown apps {unknown}; see `repro list`")
    if args.mode == "sweep":
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        report = run_sweep_bench(apps=apps, n_accesses=accesses,
                                 seeds=seeds, jobs=args.jobs,
                                 repeats=args.repeats, label=args.label,
                                 engine=args.engine)
        print(f"sweep of {report['cells']} cells, jobs={report['jobs']}, "
              f"engine={report['engine']}:")
        for mode, point in report["modes"].items():
            print(f"  {mode:>14s}     : {point['cells_per_s']:7.2f} "
                  f"cells/s ({point['best_s']:.3f}s best of "
                  f"{report['repeats']})")
        print(f"parallel speedup     : {report['speedup_vs_serial']:.2f}x "
              f"vs --jobs 1")
    else:
        report = run_bench(apps=apps, n_accesses=accesses,
                           l1=_l1(args), repeats=args.repeats,
                           profile=args.profile, label=args.label,
                           interval=args.interval,
                           checkpoint_every=args.checkpoint_every,
                           engine=args.engine)
        agg = report["aggregate_accesses_per_s"]
        print(f"aggregate throughput : {agg:,.0f} accesses/s")
        for app, point in report["apps"].items():
            print(f"  {app:>14s}     : {point['accesses_per_s']:,.0f} "
                  f"accesses/s ({point['best_s']:.3f}s best of "
                  f"{report['repeats']})")
        if args.profile:
            print("hottest functions (cumulative):")
            for row in report["profile_top"][:12]:
                print(f"  {row['cumtime_s']:8.3f}s {row['calls']:>9d}x "
                      f"{row['function']}")
    path = write_report(report, args.out)
    print(f"wrote {path}")
    if args.check:
        ok, message = check_regression(report, args.check,
                                       tolerance=args.tolerance)
        print(("OK: " if ok else "REGRESSION: ") + message)
        if not ok:
            return 1
    return 0


def _print_metrics(metrics: Dict[str, float], prefix: Optional[str],
                   skip_zero: bool = False) -> None:
    """Print a metrics dict one `name : value` per line, filtered."""
    for name in sorted(metrics):
        if prefix and not name.startswith(prefix):
            continue
        value = metrics[name]
        if skip_zero and not value:
            continue
        if isinstance(value, float) and not value.is_integer():
            print(f"{name:<40s} : {value:.6g}")
        else:
            print(f"{name:<40s} : {int(value)}")


def cmd_stats(args) -> int:
    """`repro stats`: dump/save/diff snapshots, export intervals."""
    from .obs import (diff_snapshots, intervals_to_csv, load_snapshot,
                      save_snapshot, write_jsonl)
    if args.diff:
        before = load_snapshot(args.diff[0])
        after = load_snapshot(args.diff[1])
        _print_metrics(diff_snapshots(before, after), args.filter,
                       skip_zero=not args.zeros)
        return 0
    if not args.app:
        raise ConfigError("stats needs --app APP to run a simulation, "
                          "or --diff A.json B.json to compare snapshots")
    result = run_app(args.app, system_for(args.core, _l1(args)),
                     condition=CONDITIONS[args.condition],
                     n_accesses=args.accesses, cache=TraceCache(),
                     interval=args.interval, engine=args.engine)
    _print_metrics(result.metrics, args.filter)
    if args.out:
        meta = {"app": args.app, "system": result.system,
                "accesses": args.accesses, "condition": args.condition}
        print(f"wrote {save_snapshot(result.metrics, args.out, meta)}")
    if args.interval:
        jsonl = args.intervals_out or f"intervals_{args.app}.jsonl"
        print(f"wrote {len(result.intervals)} interval records to "
              f"{write_jsonl(result.intervals, jsonl)}")
        if args.export_csv:
            print(f"wrote {intervals_to_csv(result.intervals, args.export_csv)}")
    elif args.export_csv or args.intervals_out:
        raise ConfigError("--export-csv/--intervals-out need --interval N")
    return 0


def cmd_trace(args) -> int:
    """`repro trace`: record and print sampled SIPT decisions."""
    from .obs import DecisionTrace
    trace = DecisionTrace(capacity=args.capacity, sample=args.sample)
    result = run_app(args.app, system_for(args.core, _l1(args)),
                     condition=CONDITIONS[args.condition],
                     n_accesses=args.accesses, cache=TraceCache(),
                     decision_trace=trace)
    summary = trace.summary()
    print(f"app       : {args.app} ({result.system})")
    print(f"recorded  : {summary['recorded']} decisions "
          f"(every {summary['sample']}th access), "
          f"{summary['buffered']} buffered (capacity {summary['capacity']})")
    print(f"outcomes  : {summary['outcomes']}")
    if args.tail:
        print(f"last {min(args.tail, len(trace))} decisions:")
        for record in trace.tail(args.tail):
            outcome = record["outcome"] or "-"
            print(f"  #{record['index']:<8d} pc={record['pc']:#x} "
                  f"va={record['va']:#x} {outcome:<20s} "
                  f"hit={int(record['hit'])} fast={int(record['fast'])} "
                  f"extra={int(record['extra_l1_access'])} "
                  f"lat={record['latency']}")
    if args.out:
        meta = {"app": args.app, "system": result.system,
                "accesses": args.accesses, "condition": args.condition}
        print(f"wrote {trace.write_jsonl(args.out, meta)}")
    return 0


def cmd_validate(args) -> int:
    """`repro validate`: score the paper-claims smoke scorecard."""
    from .validate import format_scorecard, run_scorecard
    runner = _runner(args)
    checks = run_scorecard(n_accesses=args.accesses, runner=runner)
    print(format_scorecard(checks))
    strict_rc = _finish(args, runner)
    if strict_rc:
        return strict_rc
    n_pass = sum(c.passed for c in checks)
    required = len(checks) if args.min_pass is None else args.min_pass
    return 0 if n_pass >= required else 1


def cmd_designspace(args) -> int:
    """`repro designspace`: print the CACTI latency/energy grid."""
    model = CactiModel()
    base = model.latency_ns(32 * 1024, 8)
    print(f"{'config':>12s} {'cycles':>7s} {'vs base':>8s} "
          f"{'nJ':>7s} {'mW':>7s}")
    for capacity in (16, 32, 64, 128):
        for ways in (2, 4, 8, 16):
            size = capacity * 1024
            print(f"{capacity:>9d}K/{ways:<2d} "
                  f"{model.latency_cycles(size, ways):>7d} "
                  f"{model.latency_ns(size, ways) / base:>8.2f} "
                  f"{model.dynamic_nj(size, ways):>7.3f} "
                  f"{model.static_mw(size, ways):>7.1f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the `repro` argument parser (one subparser per command)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="SIPT (HPCA 2018) reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list apps, geometries, mixes")

    def common(p, with_app=False):
        if with_app:
            p.add_argument("--app", required=True,
                           help="benchmark name (see `list`)")
        p.add_argument("--geometry", default="32K_2w",
                       choices=sorted(GEOMETRIES))
        p.add_argument("--core", default="ooo",
                       choices=("ooo", "ooo-detailed", "inorder"))
        p.add_argument("--scheme", default=None,
                       choices=[s.value for s in IndexingScheme])
        p.add_argument("--variant", default=None,
                       choices=[v.value for v in SiptVariant])
        p.add_argument("--condition", default="normal",
                       choices=sorted(CONDITIONS))
        p.add_argument("--accesses", type=_positive_int, default=30_000)
        p.add_argument("--way-prediction", action="store_true")

    def engine(p):
        p.add_argument(
            "--engine", default="python", choices=("python", "kernel"),
            help="replay implementation: the pure-python oracle or the "
                 "byte-identical array-compiled kernel (faster; falls "
                 "back to python per run when a config is outside the "
                 "kernel's envelope)")

    def jobs_flag(p):
        p.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="run grid cells in N supervised worker processes "
                 "(rows, journal, and --resume stay identical to "
                 "serial; worker death costs one cell, not the "
                 "sweep; attempt-level --inject kinds require "
                 "jobs=1)")

    def resilience(p, with_journal=True):
        group = p.add_argument_group("resilience")
        if with_journal:
            group.add_argument(
                "--journal", metavar="JSONL",
                help="append one record per finished grid cell")
            group.add_argument(
                "--resume", metavar="JSONL",
                help="skip cells a previous run journaled (implies "
                     "--journal JSONL unless given separately)")
            group.add_argument(
                "--strict", action="store_true",
                help=f"exit {EXIT_DEGRADED} if any cell degraded to an "
                     "error row")
            jobs_flag(group)
            group.add_argument(
                "--max-cell-crashes", type=int, default=2, metavar="K",
                help="quarantine a cell with status=crashed after its "
                     "execution kills K workers (default 2)")
            group.add_argument(
                "--max-worker-restarts", type=int, default=None,
                metavar="K",
                help="pool rebuilds allowed after worker deaths before "
                     "the remaining cells degrade to serial in-process "
                     "execution (default: jobs x 3)")
        group.add_argument("--timeout", type=_positive_float, default=None,
                           metavar="SECONDS", help="per-cell deadline")
        group.add_argument("--retries", type=int, default=2,
                           help="retry budget for transient errors")
        group.add_argument(
            "--inject", action="append", default=[], metavar="FAULT",
            help="inject a deterministic fault: crash@N, crash@N@ACCESS "
                 "(mid-simulation), transient@N[xK], stall@N:SECONDS, "
                 "corrupt_trace@N[xK], poison_predictor@N[xK], "
                 "kill_worker@N[xK] (repeatable; data-level kinds work "
                 "with --jobs; kill_worker requires --jobs >= 2); I/O "
                 "kinds — io_error@N[xK], estale@N[xK], enospc@N[xK], "
                 "slow_io@N:SECONDS, torn_write@N — hit the N-th "
                 "guarded filesystem operation instead of a grid cell "
                 "(see docs/robustness.md)")

    def checkpointing(p, single_cell=False):
        group = p.add_argument_group("checkpointing")
        group.add_argument(
            "--checkpoint-every", type=int, default=None, metavar="N",
            help="snapshot simulation state every N accesses "
                 "(crash-safe; a rerun resumes mid-trace)")
        group.add_argument(
            "--checkpoint-dir", default=None, metavar="DIR",
            help="directory for per-cell snapshot files; failed cells "
                 "with a snapshot degrade to status=resumable and "
                 "fast-forward on the next run")
        if single_cell:
            group.add_argument(
                "--resume-checkpoint", default=None, metavar="FILE",
                help="resume from this snapshot file (missing file = "
                     "fresh start; overrides the --checkpoint-dir name)")

    run_p = sub.add_parser("run", help="simulate one app")
    common(run_p, with_app=True)
    engine(run_p)
    resilience(run_p, with_journal=False)
    checkpointing(run_p, single_cell=True)
    run_p.add_argument("--compare-baseline", action="store_true",
                       help="also run the VIPT baseline and report ratios")

    suite_p = sub.add_parser("suite", help="simulate the full 26-app suite")
    common(suite_p)
    engine(suite_p)
    resilience(suite_p)
    checkpointing(suite_p)

    def grid_flags(p):
        """The sweep-grid axes, shared by `sweep` and `jobs submit`."""
        p.add_argument("--apps", default="perlbench,mcf,libquantum",
                       help="comma-separated benchmark names")
        p.add_argument("--geometries", default="baseline,32K_2w",
                       help="comma-separated geometry names")
        p.add_argument("--baseline", default=None,
                       help="geometry name to normalize ratios against")
        p.add_argument("--cores", default="ooo")
        p.add_argument("--conditions", default="normal")
        p.add_argument("--seeds", default="0")
        p.add_argument("--accesses", type=_positive_int, default=30_000)

    def store_flag(p, default=None):
        """--store: content-addressed result-store participation.

        The `jobs` subcommands pass ``default=""`` (the store is the
        service's substrate, so it is always on, at the default root
        unless pointed elsewhere); plain `sweep` defaults to off.
        """
        p.add_argument(
            "--store", nargs="?", const="", default=default,
            metavar="DIR",
            help="dedupe against (and publish to) the persistent "
                 "content-addressed result store; no value = "
                 "$REPRO_STORE_DIR or ~/.cache/repro-store "
                 "(see docs/sweep-service.md)")

    sweep_p = sub.add_parser(
        "sweep", help="run an (apps x geometries x ...) grid to CSV")
    grid_flags(sweep_p)
    sweep_p.add_argument("--out", default="sweep.csv",
                         help="CSV output path")
    store_flag(sweep_p)
    engine(sweep_p)
    resilience(sweep_p)
    checkpointing(sweep_p)

    jobs_p = sub.add_parser(
        "jobs", help="submit/track/run/collect store-backed sweep jobs")
    jobs_sub = jobs_p.add_subparsers(dest="action", required=True)
    submit_p = jobs_sub.add_parser(
        "submit", help="journal a grid as a job, deduped vs the store")
    grid_flags(submit_p)
    store_flag(submit_p, default="")
    status_p = jobs_sub.add_parser(
        "status", help="live done/pending tallies per job")
    status_p.add_argument("id", nargs="?", default=None,
                          help="job id (default: every job on the store)")
    store_flag(status_p, default="")
    run_jp = jobs_sub.add_parser(
        "run", help="execute one job's missing cells into the store")
    run_jp.add_argument("id", help="job id from `jobs submit`")
    store_flag(run_jp, default="")
    engine(run_jp)
    resilience(run_jp)
    result_p = jobs_sub.add_parser(
        "result", help="compose a job's CSV purely from store entries")
    result_p.add_argument("id", help="job id from `jobs submit`")
    result_p.add_argument("--out", default="job.csv",
                          help="CSV output path")
    result_p.add_argument(
        "--partial", action="store_true",
        help="stream the rows whose cells are finished (exit 0) "
             "instead of refusing with exit 1 while any cell is "
             "missing; rerun without --partial for the full CSV")
    store_flag(result_p, default="")

    store_p = sub.add_parser(
        "store", help="maintain the content-addressed result store")
    store_sub = store_p.add_subparsers(dest="action", required=True)
    doctor_p = store_sub.add_parser(
        "doctor", help="scan the store root for tmp litter, corrupt "
                       "entries, and unloadable job records; fix with "
                       "--repair")
    doctor_p.add_argument(
        "--repair", action="store_true",
        help="apply each finding's fix (removals only; safe because "
             "the store is content-addressed and idempotent)")
    store_flag(doctor_p, default="")

    figures_p = sub.add_parser(
        "figures", help="print the paper's grid-shaped figure tables "
                        "(figs. 2-18, cross-model) via sweeps")
    figures_p.add_argument("--accesses", type=_positive_int,
                           default=30_000)
    engine(figures_p)
    jobs_flag(figures_p)
    store_flag(figures_p)

    mix_p = sub.add_parser("mix", help="simulate a Table III quad-core mix")
    common(mix_p)
    engine(mix_p)
    mix_p.add_argument("--name", default="mix0", choices=MIX_NAMES)
    mix_p.add_argument(
        "--out", metavar="CSV",
        help="write per-core results as CSV with full-precision "
             "(repr) floats — byte-comparable across --engine values "
             "for the oracle-equivalence gate")

    sub.add_parser("designspace", help="print the CACTI design space")

    bench_p = sub.add_parser(
        "bench", help="measure simulate() throughput, emit BENCH_*.json")
    bench_p.add_argument("--mode", default="hotpath",
                         choices=("hotpath", "sweep"),
                         help="hotpath: time simulate() replay; sweep: "
                              "time the end-to-end sweep pipeline at "
                              "--jobs 1 vs --jobs N")
    bench_p.add_argument("--jobs", type=int, default=4,
                         help="worker count for the parallel sweep-bench "
                              "modes (sweep mode only)")
    bench_p.add_argument("--seeds", default="0,1",
                         help="comma-separated seeds for the sweep-bench "
                              "grid (sweep mode only)")
    bench_p.add_argument("--apps", default=None,
        help="comma-separated benchmark names (default depends on mode)")
    bench_p.add_argument("--geometry", default="32K_2w",
                         choices=sorted(GEOMETRIES))
    bench_p.add_argument("--scheme", default=None,
                         choices=[s.value for s in IndexingScheme])
    bench_p.add_argument("--variant", default=None,
                         choices=[v.value for v in SiptVariant])
    bench_p.add_argument("--way-prediction", action="store_true")
    bench_p.add_argument("--accesses", type=_positive_int, default=None,
                         help="accesses per trace (default: 20000 for "
                              "hotpath, 8000 for sweep)")
    bench_p.add_argument("--interval", type=int, default=None, metavar="N",
                         help="bench the interval-sampling replay path "
                              "(simulate(..., interval=N))")
    bench_p.add_argument("--checkpoint-every", type=int, default=None,
                         metavar="N",
                         help="bench the checkpointed replay path "
                              "(snapshot every N accesses to a temp dir)")
    bench_p.add_argument("--repeats", type=int, default=3,
                         help="timed replays per app; best is kept")
    bench_p.add_argument("--profile", action="store_true",
                         help="include a cProfile hot-function table")
    bench_p.add_argument("--label", default=None,
                         help="trajectory-point label (file name suffix)")
    bench_p.add_argument("--out", default=".",
                         help="output file or directory for BENCH_*.json")
    bench_p.add_argument("--check", metavar="BASELINE_JSON", default=None,
                         help="fail (exit 1) if aggregate throughput "
                              "regresses past --tolerance vs this point")
    bench_p.add_argument("--tolerance", type=float, default=0.30,
                         help="allowed fractional throughput loss for "
                              "--check (default 0.30)")
    engine(bench_p)

    stats_p = sub.add_parser(
        "stats", help="dump/diff metrics snapshots, export interval CSV")
    stats_p.add_argument("--app", default=None,
                         help="benchmark to simulate (see `list`)")
    common(stats_p)
    stats_p.add_argument("--filter", default=None, metavar="PREFIX",
                         help="only print metrics under this namespace "
                              "prefix (e.g. sipt., predictor.)")
    stats_p.add_argument("--out", default=None, metavar="JSON",
                         help="save the end-of-run snapshot "
                              "(repro-snapshot-1 schema)")
    stats_p.add_argument("--interval", type=int, default=None, metavar="N",
                         help="also sample a per-N-accesses time-series")
    stats_p.add_argument("--intervals-out", default=None, metavar="JSONL",
                         help="interval series path "
                              "(default intervals_<app>.jsonl)")
    stats_p.add_argument("--export-csv", default=None, metavar="CSV",
                         help="also export the interval series as "
                              "plot-ready CSV")
    stats_p.add_argument("--diff", nargs=2, default=None,
                         metavar=("BEFORE", "AFTER"),
                         help="print per-metric delta between two saved "
                              "snapshots instead of simulating")
    stats_p.add_argument("--zeros", action="store_true",
                         help="with --diff, also print zero deltas")
    engine(stats_p)

    trace_p = sub.add_parser(
        "trace", help="record sampled per-access SIPT decisions")
    common(trace_p, with_app=True)
    trace_p.add_argument("--sample", type=int, default=1, metavar="K",
                         help="record every K-th access (default 1)")
    trace_p.add_argument("--capacity", type=int, default=4096, metavar="M",
                         help="ring-buffer size: keep the last M sampled "
                              "records (default 4096)")
    trace_p.add_argument("--tail", type=int, default=10, metavar="N",
                         help="print the last N decisions (default 10)")
    trace_p.add_argument("--out", default=None, metavar="JSONL",
                         help="dump the buffered records as JSONL")

    validate_p = sub.add_parser(
        "validate", help="score the paper's headline claims (smoke check)")
    validate_p.add_argument("--accesses", type=_positive_int, default=12_000)
    validate_p.add_argument(
        "--min-pass", type=int, default=None, metavar="N",
        help="succeed when at least N claims pass (default: all)")
    resilience(validate_p)
    return parser


COMMANDS = {
    "list": cmd_list,
    "run": cmd_run,
    "suite": cmd_suite,
    "sweep": cmd_sweep,
    "jobs": cmd_jobs,
    "store": cmd_store,
    "figures": cmd_figures,
    "mix": cmd_mix,
    "bench": cmd_bench,
    "designspace": cmd_designspace,
    "stats": cmd_stats,
    "trace": cmd_trace,
    "validate": cmd_validate,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; maps typed errors to the documented exit codes."""
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except WorkerCrash as exc:
        print(f"crashed: {exc} (journal, if any, is preserved — "
              "rerun with --resume)", file=sys.stderr)
        return EXIT_CRASHED
    except ReproError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted (journal, if any, is preserved — rerun with "
              "--resume)", file=sys.stderr)
        return 130
    finally:
        # An --inject fault plan is process-global; disarm it so
        # repeated main() calls in one process (tests) stay isolated.
        faultfs.clear_plan()


if __name__ == "__main__":
    sys.exit(main())
