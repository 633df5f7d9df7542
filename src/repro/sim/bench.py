"""Performance harness for the simulation hot path and sweep pipeline.

``python -m repro bench`` measures single-core :func:`~repro.sim.driver.
simulate` throughput (trace accesses replayed per second) over a small
app set, optionally under ``cProfile``, and emits one ``BENCH_*.json``
*perf trajectory point*. Committing these points over time gives the
repo a throughput history the CI perf-smoke job can gate on: a change
that silently slows the per-access loop fails the
:func:`check_regression` comparison against the committed baseline.

``python -m repro bench --mode sweep`` measures the *end-to-end* sweep
pipeline instead (:func:`run_sweep_bench`): the same grid timed at
``--jobs 1`` and at ``--jobs N`` — reporting cells per second and the
parallel wall-clock speedup, with a built-in gate that both modes
produced identical rows.

Methodology:

* Traces are generated (and validated) *before* the clock starts — the
  harness times replay only, which is what sweeps repeat hundreds of
  times per campaign.
* Each app is replayed ``repeats`` times and the best wall time is
  kept, the standard way to suppress scheduler noise on shared
  machines.
* The warm heap is frozen (``gc.freeze``) for the timed region, so
  generational GC does not bill earlier apps' long-lived state
  (traces, memoized kernel streams) to the app on the clock.
* The aggregate figure is total accesses over total best-time — the
  throughput a serial sweep would see on this machine.

Throughput is machine-dependent; regenerate the committed baseline
(``repro bench --out benchmarks/perf``) when the reference hardware
changes, and keep comparisons (``--check``) on the same machine class.
"""

from __future__ import annotations

import cProfile
import gc
import io
import json
import platform
import pstats
import sys
import time
from dataclasses import replace
from datetime import datetime
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..errors import ConfigError
from .config import SIPT_GEOMETRIES, L1Config, ooo_system
from .driver import simulate
from .experiment import TraceCache

#: JSON schema tag so future harness versions can migrate old points.
SCHEMA = "repro-bench-1"

#: Default app set: one predictable-delta app, one misspeculation-heavy
#: app, one hugepage app, and one miss-dominated app — together they
#: exercise every front-end path (perceptron, IDB, bypass, TLB 2M
#: array) and the L2/LLC/DRAM miss path (mcf's ~43% L1 miss rate keeps
#: the write-back cascades and DRAM row buffers hot).
DEFAULT_APPS = ("perlbench", "calculix", "libquantum", "mcf")


def _time_simulate(trace, system, repeats: int,
                   interval: Optional[int] = None,
                   checkpoint_every: Optional[int] = None,
                   checkpoint_path: Optional[Path] = None,
                   engine: str = "python") -> float:
    """Best-of-``repeats`` wall time of one simulate() call.

    The warm heap (traces, memoized kernel streams for *every* app
    benched so far) is frozen out of the collector for the timed
    region: generational GC otherwise re-traverses those long-lived
    containers mid-replay, charging earlier apps' working sets to
    whichever app happens to be on the clock. Freezing keeps the
    point a steady-state replay figure regardless of app order.
    """
    best = float("inf")
    gc.collect()
    gc.freeze()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            simulate(trace, system, interval=interval,
                     checkpoint_every=checkpoint_every,
                     checkpoint_path=checkpoint_path, engine=engine)
            best = min(best, time.perf_counter() - start)
    finally:
        gc.unfreeze()
    return best


def profile_simulate(trace, system, top: int = 20) -> List[dict]:
    """One profiled simulate() run; returns the ``top`` hot functions.

    Entries are ordered by cumulative time and carry the fields the
    bench JSON stores: function, calls, total time (inside the function
    itself) and cumulative time (including callees).
    """
    profiler = cProfile.Profile()
    profiler.enable()
    simulate(trace, system)
    profiler.disable()
    stats = pstats.Stats(profiler, stream=io.StringIO())
    stats.sort_stats("cumulative")
    rows: List[dict] = []
    for func, (cc, nc, tt, ct, callers) in sorted(
            stats.stats.items(), key=lambda kv: kv[1][3], reverse=True):
        filename, line, name = func
        if "~" in filename and name == "<built-in method builtins.exec>":
            continue
        rows.append({
            "function": f"{Path(filename).name}:{line}:{name}",
            "calls": nc,
            "tottime_s": round(tt, 6),
            "cumtime_s": round(ct, 6),
        })
        if len(rows) >= top:
            break
    return rows


def run_bench(apps: Optional[Iterable[str]] = None,
              n_accesses: int = 20_000,
              geometry: str = "32K_2w",
              l1: Optional[L1Config] = None,
              repeats: int = 3,
              profile: bool = False,
              traces: Optional[TraceCache] = None,
              label: Optional[str] = None,
              interval: Optional[int] = None,
              checkpoint_every: Optional[int] = None,
              engine: str = "python") -> dict:
    """Measure simulate() throughput; returns the trajectory-point dict.

    ``l1`` overrides ``geometry`` when given (the CLI passes a resolved
    config so ``--scheme``/``--variant`` compose). Trace generation is
    excluded from the timed region. ``interval`` benches the
    interval-sampling replay path (``simulate(..., interval=N)``) so
    the observability overhead gets its own guarded trajectory point;
    ``checkpoint_every`` does the same for the checkpointed replay path
    (snapshots land in a temp directory that is cleaned up afterwards).
    ``engine`` selects the replay implementation; the warm-up replay
    also builds the kernel engine's memoized per-trace streams, so a
    kernel point times steady-state replay — the regime sweeps live in
    — not one-off stream construction.
    """
    if n_accesses <= 0:
        raise ConfigError(f"n_accesses must be positive, got {n_accesses}")
    if repeats <= 0:
        raise ConfigError(f"repeats must be positive, got {repeats}")
    if interval is not None and interval <= 0:
        raise ConfigError(f"interval must be positive, got {interval}")
    if checkpoint_every is not None and checkpoint_every <= 0:
        raise ConfigError(
            f"checkpoint_every must be positive, got {checkpoint_every}")
    apps = list(apps) if apps else list(DEFAULT_APPS)
    if l1 is None:
        if geometry not in SIPT_GEOMETRIES:
            raise ConfigError(f"unknown geometry {geometry!r}; choose "
                              f"from {sorted(SIPT_GEOMETRIES)}")
        l1 = SIPT_GEOMETRIES[geometry]
    system = ooo_system(l1)
    if traces is None:
        traces = TraceCache()

    per_app: Dict[str, dict] = {}
    total_time = 0.0
    ckpt_dir = None
    if checkpoint_every is not None:
        import tempfile
        ckpt_dir = tempfile.TemporaryDirectory(prefix="repro-bench-ckpt-")
    try:
        for app in apps:
            trace = traces.get(app, n_accesses)
            ckpt = (Path(ckpt_dir.name) / f"bench-{app}.json"
                    if ckpt_dir is not None else None)
            # Warm-up replay (outside the clock): JIT-free Python still
            # benefits from warm allocator arenas and branch-predictable
            # dict sizes.
            simulate(trace, system, interval=interval,
                     checkpoint_every=checkpoint_every,
                     checkpoint_path=ckpt, engine=engine)
            best = _time_simulate(trace, system, repeats,
                                  interval=interval,
                                  checkpoint_every=checkpoint_every,
                                  checkpoint_path=ckpt, engine=engine)
            total_time += best
            per_app[app] = {
                "best_s": round(best, 6),
                "accesses_per_s": round(n_accesses / best, 1),
            }
    finally:
        if ckpt_dir is not None:
            ckpt_dir.cleanup()

    report = {
        "schema": SCHEMA,
        "label": label or (f"{l1.label}-{n_accesses}"
                           + (f"-i{interval}" if interval else "")
                           + (f"-c{checkpoint_every}"
                              if checkpoint_every else "")
                           + ("-kernel" if engine == "kernel" else "")),
        "created": datetime.now().isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "n_accesses": n_accesses,
        "repeats": repeats,
        "interval": interval,
        "checkpoint_every": checkpoint_every,
        "engine": engine,
        "geometry": l1.label,
        "apps": per_app,
        "aggregate_accesses_per_s": round(
            n_accesses * len(apps) / total_time, 1),
    }
    if profile:
        report["profile_top"] = profile_simulate(
            traces.get(apps[0], n_accesses), system)
    return report


#: Default grid for the sweep-level benchmark: two apps with opposite
#: locality profiles, a baseline plus two SIPT geometries, two seeds.
#: Small enough for CI, large enough that every pool worker needs
#: several traces — the redundancy the shared trace substrate exists
#: to eliminate.
SWEEP_BENCH_APPS = ("perlbench", "mcf")
SWEEP_BENCH_CONFIGS = ("32K_2w", "64K_4w")


def _sweep_bench_spec(apps, configs, seeds, conditions=None):
    """The SweepSpec the sweep benchmark times (baseline + SIPT points).

    ``conditions`` defaults to normal + fragmented memory — the pairing
    the paper's campaigns sweep, and the one that exercises the trace
    substrate's full key space (app, length, condition, seed).
    """
    from ..workloads.trace import MemoryCondition
    from .config import BASELINE_L1, SIPT_GEOMETRIES
    from .sweep import SweepSpec
    grid = {"baseline": BASELINE_L1}
    for name in configs:
        if name not in SIPT_GEOMETRIES:
            raise ConfigError(f"unknown geometry {name!r}; choose "
                              f"from {sorted(SIPT_GEOMETRIES)}")
        grid[name] = SIPT_GEOMETRIES[name]
    if conditions is None:
        conditions = [MemoryCondition.NORMAL, MemoryCondition.FRAGMENTED]
    return SweepSpec(apps=list(apps), configs=grid, seeds=list(seeds),
                     conditions=list(conditions), baseline="baseline")


def _time_sweep_once(spec, n_accesses: int, jobs: int,
                     engine: str = "python"):
    """One cold wall-clock measurement of one run_sweep() mode.

    Cold means: a fresh trace cache and a private checkpoint directory
    (so no journal resume can skip cells).
    ``engine`` is the replay engine every cell runs. Returns
    ``(seconds, rows)``.
    """
    import shutil
    import tempfile
    from .resilience import ResilientRunner
    from .sweep import run_sweep
    tmp = tempfile.mkdtemp(prefix="repro-bench-sweep-")
    try:
        runner = ResilientRunner(jobs=jobs, checkpoint_dir=tmp)
        start = time.perf_counter()
        rows = run_sweep(spec, n_accesses=n_accesses, runner=runner,
                         engine=engine)
        return time.perf_counter() - start, rows
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _median(values) -> float:
    """Median of a non-empty sequence (no statistics import needed)."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def run_sweep_bench(apps: Optional[Iterable[str]] = None,
                    n_accesses: int = 8_000,
                    configs: Optional[Iterable[str]] = None,
                    seeds: Iterable[int] = (0, 1),
                    jobs: int = 4,
                    repeats: int = 2,
                    label: Optional[str] = None,
                    engine: str = "python") -> dict:
    """Measure end-to-end sweep throughput; returns the trajectory point.

    Times the same grid two ways:

    * ``serial`` — ``--jobs 1``, the reference execution;
    * ``parallel`` — ``--jobs N``: the supervised pool with the shared
      trace substrate.

    The two modes must produce identical rows — the benchmark raises
    :class:`~repro.errors.ConfigError` if they diverge, so a perf
    trajectory point can never be recorded for a broken optimization.

    Methodology: rounds are *interleaved* (serial, parallel, serial,
    ...) so machine-load drift lands on both modes equally rather than
    on whichever mode happened to run last. Each mode reports its best
    wall time (the standard noise floor), but the headline
    ``speedup_vs_serial`` is the **median of the per-round
    serial/parallel ratios** — a paired estimator, robust against a
    single lucky round in either mode.

    ``engine`` is every cell's replay engine and is recorded in the
    report: with ``"kernel"`` the point times cold kernel cells,
    stream construction and first replay included.
    """
    if n_accesses <= 0:
        raise ConfigError(f"n_accesses must be positive, got {n_accesses}")
    if repeats <= 0:
        raise ConfigError(f"repeats must be positive, got {repeats}")
    if jobs < 2:
        raise ConfigError(f"sweep bench needs jobs >= 2, got {jobs}")
    apps = list(apps) if apps else list(SWEEP_BENCH_APPS)
    configs = list(configs) if configs else list(SWEEP_BENCH_CONFIGS)
    spec = _sweep_bench_spec(apps, configs, list(seeds))
    n_cells = (len(spec.apps) * len(spec.configs) * len(spec.cores)
               * len(spec.conditions) * len(spec.seeds))

    modes = {"serial": 1, "parallel": jobs}
    times: Dict[str, list] = {name: [] for name in modes}
    row_blobs: Dict[str, str] = {}
    for _ in range(repeats):
        for name, mode_jobs in modes.items():
            seconds, rows = _time_sweep_once(spec, n_accesses, mode_jobs,
                                             engine)
            times[name].append(seconds)
            row_blobs[name] = json.dumps(rows, sort_keys=True,
                                         default=str)
    if len(set(row_blobs.values())) != 1:
        diverged = [m for m in row_blobs
                    if row_blobs[m] != row_blobs["serial"]]
        raise ConfigError(
            f"sweep benchmark modes produced different rows: {diverged} "
            f"diverged from serial — refusing to record a perf point "
            f"for a correctness regression")
    results: Dict[str, dict] = {}
    for name, samples in times.items():
        best = min(samples)
        results[name] = {
            "best_s": round(best, 6),
            "median_s": round(_median(samples), 6),
            "cells_per_s": round(n_cells / best, 2),
        }

    round_speedups = [s / p for s, p in
                      zip(times["serial"], times["parallel"])]
    report = {
        "schema": SCHEMA,
        "mode": "sweep",
        "label": label or f"sweep-{n_accesses}-j{jobs}",
        "created": datetime.now().isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "n_accesses": n_accesses,
        "repeats": repeats,
        "jobs": jobs,
        "engine": engine,
        "apps": list(apps),
        "configs": list(configs),
        "conditions": [c.value for c in spec.conditions],
        "seeds": list(seeds),
        "cells": n_cells,
        "modes": results,
        "rows_identical": True,
        "aggregate_cells_per_s": results["parallel"]["cells_per_s"],
        "speedup_vs_serial": round(_median(round_speedups), 3),
        "speedup_vs_serial_rounds": [round(s, 3)
                                     for s in round_speedups],
    }
    return report


def write_report(report: dict, out: Union[str, Path] = ".") -> Path:
    """Write the trajectory point; returns the file path.

    ``out`` may be a directory (the file is named
    ``BENCH_<label>.json``) or an explicit file path.
    """
    from ..ioutil import atomic_write_text
    out = Path(out)
    if out.is_dir():
        safe = "".join(c if c.isalnum() or c in "._-" else "_"
                       for c in report["label"])
        out = out / f"BENCH_{safe}.json"
    return atomic_write_text(
        out, json.dumps(report, indent=2, sort_keys=True) + "\n")


def check_regression(report: dict, baseline: Union[str, Path, dict],
                     tolerance: float = 0.30) -> Tuple[bool, str]:
    """Compare a fresh report against a committed baseline point.

    Returns ``(ok, message)``; ``ok`` is False when aggregate throughput
    fell more than ``tolerance`` (fractional) below the baseline.
    Speedups and small fluctuations pass. Comparisons are only
    meaningful on the same machine class as the committed baseline.

    The metric is whichever aggregate the two points share: hot-path
    points carry ``aggregate_accesses_per_s``, sweep points carry
    ``aggregate_cells_per_s``. Comparing a hot-path point against a
    sweep baseline (no shared metric) is a :class:`ConfigError`.
    """
    if not isinstance(baseline, dict):
        baseline = json.loads(Path(baseline).read_text())
    for metric, unit in (("aggregate_accesses_per_s", "acc/s"),
                         ("aggregate_cells_per_s", "cells/s")):
        if metric in report and metric in baseline:
            break
    else:
        raise ConfigError(
            "report and baseline share no throughput metric — are they "
            "from different bench modes (hotpath vs sweep)?")
    base = float(baseline[metric])
    now = float(report[metric])
    if base <= 0:
        raise ConfigError("baseline has non-positive throughput")
    ratio = now / base
    message = (f"throughput {now:,.0f} {unit} vs baseline {base:,.0f} "
               f"{unit} ({ratio:.2f}x, tolerance -{tolerance:.0%})")
    return ratio >= (1.0 - tolerance), message
