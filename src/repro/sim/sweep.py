"""Parameter-sweep utility: run a grid of experiments, export CSV.

The benchmark files each regenerate one figure; this module is the
general tool behind ad-hoc studies: sweep (app x L1 config x condition)
grids, collect the standard metrics, and write them as CSV for external
plotting. A Table III mix name (``mix0`` ... ``mix10``) on the apps axis
is a quad-core cell: its members replay together on a shared LLC
(:func:`~repro.sim.driver.simulate_multicore`), and its result is the
per-core ``SimResult`` list.

Grids execute through :class:`~repro.sim.resilience.ResilientRunner`:
a failing cell degrades into a ``status="error"`` row instead of
discarding the completed part of the grid, transient faults retry with
backoff, and (with a journal) an interrupted sweep resumes from the
cells it already finished. Under ``jobs > 1`` the runner drives a
:class:`~repro.sim.executors.SupervisedPoolExecutor`, so even a worker
process dying mid-sweep (SIGKILL, OOM) costs at most the cell that was
executing — bystanders are rescheduled and a repeatedly lethal cell is
quarantined as ``status="crashed"``.

Example::

    from repro.sim.sweep import SweepSpec, run_sweep, to_csv
    spec = SweepSpec(apps=["perlbench", "mcf"],
                     configs={"base": BASELINE_L1,
                              "sipt": SIPT_GEOMETRIES["32K_2w"]})
    rows = run_sweep(spec, n_accesses=20_000)
    to_csv(rows, "sweep.csv")
"""

from __future__ import annotations

import csv
import io
import shutil
import tempfile
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..errors import ConfigError, ReproError
from ..ioutil import atomic_write_text
from ..store.resultstore import ResultStore, cell_identity
from ..workloads.mixes import MIXES
from ..workloads.substrate import TraceHandle, TraceStore, attach
from ..workloads.trace import MemoryCondition, TraceRecipe
from . import faults as _faults
from .checkpoint import checkpoint_path_for
from .config import L1Config, SystemConfig, system_for
from .driver import simulate_multicore
from .executors import STATUS_OK
from .experiment import (MixRecipe, TraceCache, mix_recipe, run_app,
                         trace_recipe)
from .resilience import ResilientRunner
from .warmstate import WarmStateCache, warm_cache_for

#: The columns every sweep row carries, in CSV order. ``status`` is
#: "ok" for a completed cell; "error"/"timeout"/"crashed"/"resumable"
#: for a degraded one (metric columns then stay blank and ``error``
#: holds the typed error).
FIELDS = ["app", "config", "core", "condition", "seed", "ipc",
          "speedup", "l1_miss_rate", "fast_fraction",
          "extra_access_fraction", "energy_j", "energy_ratio",
          "status", "error"]

#: Core timing models a sweep may request.
VALID_CORES = frozenset(SystemConfig.CORE_KINDS)


def _duplicates(values) -> list:
    seen, dupes = set(), []
    for value in values:
        if value in seen and value not in dupes:
            dupes.append(value)
        seen.add(value)
    return dupes


@dataclass
class SweepSpec:
    """Declarative description of a sweep grid.

    Every combination of ``apps x configs x cores x conditions x
    seeds`` becomes one grid cell, executed by :func:`run_sweep` into
    one CSV row (:data:`FIELDS` columns). Validation happens at
    construction: empty/duplicate axes, unknown core kinds, and a
    ``baseline`` that is not one of ``configs`` all raise
    :class:`~repro.errors.ConfigError` before any simulation runs.

    Attributes
    ----------
    apps:
        Benchmark names (see ``repro list``); each must be unique. A
        mix name makes that app's cells quad-core runs of the mix.
    configs:
        ``{name: L1Config}`` — the name becomes the ``config`` CSV
        column.
    cores:
        Core timing models (``"ooo"``, ``"ooo-detailed"``,
        ``"inorder"``).
    conditions:
        :class:`~repro.workloads.trace.MemoryCondition` values (normal,
        fragmented, THP off, ...).
    seeds:
        Trace-generation seeds; one full grid runs per seed.
    baseline:
        Config name to normalize ``speedup``/``energy_ratio`` against
        (matched per app/core/condition/seed); ``None`` leaves the
        ratio columns blank.
    """

    apps: List[str]
    configs: Dict[str, L1Config]
    cores: List[str] = field(default_factory=lambda: ["ooo"])
    conditions: List[MemoryCondition] = field(
        default_factory=lambda: [MemoryCondition.NORMAL])
    seeds: List[int] = field(default_factory=lambda: [0])
    #: Config name to normalize speedup/energy against (per app, core,
    #: condition, seed); None disables the ratio columns.
    baseline: Optional[str] = None

    def __post_init__(self):
        if not self.apps or not self.configs:
            raise ConfigError("apps and configs must be non-empty")
        dupes = _duplicates(self.apps)
        if dupes:
            raise ConfigError(
                f"duplicate apps in sweep: {dupes}; each app already "
                "runs once per grid cell — deduplicate the list")
        dupes = _duplicates(self.seeds)
        if dupes:
            raise ConfigError(
                f"duplicate seeds in sweep: {dupes}; repeated seeds "
                "replay identical traces — deduplicate the list")
        unknown = [c for c in self.cores if c not in VALID_CORES]
        if unknown:
            raise ConfigError(
                f"unknown cores {unknown}; choose from "
                f"{sorted(VALID_CORES)}")
        if self.baseline is not None and self.baseline not in self.configs:
            raise ConfigError(f"baseline {self.baseline!r} not in configs")


def cell_key(name: str, recipe: Union[TraceRecipe, MixRecipe],
             system: SystemConfig) -> Dict[str, object]:
    """The journal key of one grid cell.

    ``cell`` is :func:`~repro.store.resultstore.cell_identity` (trace
    recipe plus full system config), so a journal or checkpoint written
    for any other L1 knob, access count or generator version never
    resumes this cell. The readable coordinates keep two config names
    over one config apart and fill a degraded row's CSV columns.
    """
    return {"app": recipe.app, "config": name, "core": system.core,
            "condition": recipe.condition.value, "seed": recipe.seed,
            "cell": cell_identity(recipe, system)}


def grid_cells(spec: SweepSpec, n_accesses: Optional[int] = None):
    """Iterate the grid's cells in CSV row order.

    Yields ``(key, recipe, system)`` per cell — the one nesting order
    (cores, conditions, seeds, configs, apps) every consumer shares:
    the task builder, the store-hit rule (:func:`_stored_rows`), and
    the jobs front end. Sharing the iterator is what keeps a
    store-composed CSV byte-identical to an executed one, and is the
    order fault ordinals count in. ``n_accesses`` resolves like
    :func:`~repro.sim.experiment.trace_recipe`; a mix name's recipe is
    its :func:`~repro.sim.experiment.mix_recipe`.
    """
    recipe_for = {app: mix_recipe if app in MIXES else trace_recipe
                  for app in spec.apps}
    for core in spec.cores:
        # One system object per (core, config): cell_identity
        # serializes each system object once.
        systems = {name: system_for(core, cfg)
                   for name, cfg in spec.configs.items()}
        for condition in spec.conditions:
            for seed in spec.seeds:
                for name, system in systems.items():
                    for app in spec.apps:
                        recipe = recipe_for[app](app, n_accesses,
                                                 condition, seed)
                        yield cell_key(name, recipe, system), recipe, system


def _result_row(key: Dict[str, object], result, base) -> dict:
    """One finished cell's CSV row (no status fields).

    The single source of truth for how a ``SimResult`` (plus its
    optional normalization baseline) becomes row values — executed
    cells, pool workers, and store hits all call this, so a row's
    bytes cannot depend on *where* the result came from. A mix cell's
    row sums IPC and energy over its cores (``speedup`` is the
    sum-of-IPC ratio) and averages the per-core fractions.
    """
    row = {name: key[name] for name in FIELDS[:5]}
    if isinstance(result, list):
        n = len(result)
        ipc = sum(r.ipc for r in result)
        energy = sum(r.energy.total for r in result)
        row.update({
            "ipc": ipc,
            "speedup": ipc / sum(r.ipc for r in base) if base else "",
            "l1_miss_rate": sum(r.l1_stats.miss_rate for r in result) / n,
            "fast_fraction": sum(r.fast_fraction for r in result) / n,
            "extra_access_fraction": sum(
                r.extra_access_fraction for r in result) / n,
            "energy_j": energy,
            "energy_ratio": (energy / sum(r.energy.total for r in base)
                             if base else ""),
        })
        return row
    row.update({
        "ipc": result.ipc,
        "speedup": result.speedup_over(base) if base else "",
        "l1_miss_rate": result.l1_stats.miss_rate,
        "fast_fraction": result.fast_fraction,
        "extra_access_fraction": result.extra_access_fraction,
        "energy_j": result.energy.total,
        "energy_ratio": result.energy_over(base) if base else "",
    })
    return row


def _simulated(key: Dict[str, object],
               recipe: Union[TraceRecipe, MixRecipe], system: SystemConfig,
               source: Union[TraceHandle, Tuple[TraceHandle, ...],
                             TraceCache],
               warm: WarmStateCache, engine: str, baseline: bool,
               checkpoint_every: Optional[int] = None,
               checkpoint_path: Optional[Path] = None,
               exchange: bool = False):
    """One run's result: memoized for a baseline run, else simulated.

    ``key`` is the run's :func:`cell_key`; its ``cell`` identity keys
    the warm cache, so nothing here digests the config again.
    ``baseline`` runs — a cell whose system is the baseline's, and
    every normalization run — read the warm cache first; on a miss
    they restore and snapshot warm state and keep their result in the
    warm cache's LRU tier for their siblings. The trace comes from
    ``source`` only when the run simulates; a mix's member traces come
    from its tuple of handles, or one by one from the cache, and replay
    together through :func:`~repro.sim.driver.simulate_multicore`
    (which has no checkpoints or warm state). Results go to the cache's
    store tier when one is bound, a memoized one included, with
    ``key`` as its meta sidecar: every result to a ``--store`` root,
    only baseline results to a parallel sweep's ephemeral ``exchange``
    root, since nothing reads the others back. While data faults are
    armed nothing is read or published: a faulted run's divergence is
    intentional and must never serve another cell.
    """
    faulted = _faults.any_armed()
    cell = key["cell"]
    if baseline and not faulted:
        result = warm.fetch_result(cell)
        if result is not None:
            warm.store_result(cell, result, meta=key)
            return result
    if isinstance(recipe, MixRecipe):
        traces = ([attach(handle) for handle in source]
                  if isinstance(source, tuple)
                  else [source.of(member) for member in recipe.members])
        result = simulate_multicore(traces, system, engine=engine)
    else:
        trace = (attach(source) if isinstance(source, TraceHandle)
                 else source.of(recipe))
        result = run_app(recipe.app, system,
                         checkpoint_every=checkpoint_every,
                         checkpoint_path=checkpoint_path,
                         resume_checkpoint=checkpoint_path, trace=trace,
                         warm_state=warm if baseline else None,
                         engine=engine)
    if not faulted and (baseline or not exchange):
        warm.store_result(cell, result, meta=key, remember=baseline)
    return result


def _parallel_cell(key: Dict[str, object],
                   recipe: Union[TraceRecipe, MixRecipe],
                   system: SystemConfig,
                   base: Optional[Tuple[Dict[str, object], SystemConfig]],
                   checkpoint_every: Optional[int],
                   checkpoint_path: Optional[Path],
                   source: Union[TraceHandle, Tuple[TraceHandle, ...],
                                 TraceCache],
                   store: Optional[ResultStore],
                   engine: str = "python", exchange: bool = False) -> dict:
    """One sweep cell as a self-contained task — the only cell task.

    Serial sweeps run it in-process; ``--jobs N`` sweeps pickle it to a
    pool worker. The trace comes from ``source``: a substrate handle
    (a zero-copy attach of the parent's published segment; a mix's
    tuple of them) under ``--jobs N``, the sweep's :class:`TraceCache`
    when serial. ``store`` is bound as the process warm cache's store
    tier; ``exchange`` marks it as a storeless sweep's ephemeral
    baseline exchange (see :func:`_simulated`). ``base`` is the
    ``(key, system)`` of the cell's normalization run (the spec's
    baseline config on this cell's trace and core), or ``None``.
    Everything is deterministic, so the row is identical whichever
    process ran it — including under checkpointing, where
    ``checkpoint_path`` doubles as the resume source (a missing file
    just means a fresh start).
    """
    try:
        warm = warm_cache_for(store)
        result = _simulated(key, recipe, system, source, warm, engine,
                            baseline=(base is not None
                                      and key["cell"] == base[0]["cell"]),
                            checkpoint_every=checkpoint_every,
                            checkpoint_path=checkpoint_path,
                            exchange=exchange)
        base_result = None
        if base is not None:
            base_result = _simulated(base[0], recipe, base[1], source, warm,
                                     engine, baseline=True)
    except ReproError as exc:
        raise exc.with_context(app=recipe.app, config=key["config"],
                               seed=recipe.seed)
    return _result_row(key, result, base_result)


def _publish(trace_store: TraceStore, traces: TraceCache,
             recipe: Union[TraceRecipe, MixRecipe]
             ) -> Union[TraceHandle, Tuple[TraceHandle, ...]]:
    """Publish the trace a pending cell replays; returns its handle, or
    a mix's tuple of per-member handles. Each member is published under
    its own recipe, so a trace that a mix shares with a single-core
    cell (or another mix) is rendered once."""
    if isinstance(recipe, MixRecipe):
        return tuple(trace_store.publish(traces.of(member), key=member)
                     for member in recipe.members)
    return trace_store.publish(traces.of(recipe), key=recipe)


def _baseline_cells(spec: SweepSpec, grid: List[tuple]
                    ) -> Dict[tuple, Tuple[Dict[str, object], SystemConfig]]:
    """Each (trace, core) group's normalization run: the ``(key,
    system)`` of the spec's baseline cell on that trace and core.

    The baseline config is one of the spec's configs, so every group's
    baseline cell is already in ``grid`` (:func:`grid_cells` order) and
    its identity is never derived again. Empty without a baseline.
    """
    if spec.baseline is None:
        return {}
    return {(recipe, system.core): (key, system)
            for key, recipe, system in grid
            if key["config"] == spec.baseline}


def _stored_rows(grid: List[tuple], bases: Dict[tuple, tuple],
                 store: ResultStore, skip=lambda key: False):
    """Yield ``(key, row)`` per cell of ``grid``, composed from the store.

    ``grid`` is a spec's :func:`grid_cells` list and ``bases`` its
    :func:`_baseline_cells`. The one store-hit rule: a hit needs the
    cell's own result **and**, when the spec has a ``baseline``, the
    stored baseline result for its (app, core, condition, seed) group —
    the ratio columns are computed exactly like an executed cell
    computes them, from the same two deterministic results, so the row
    bytes match a cold run. Anything missing or unreadable is a miss
    (``row`` is ``None``), as is every cell ``skip(key)`` selects —
    those are never read. Entries are found by cell identity, so no
    trace is generated, and each digest is read at most once per pass:
    one baseline read fills its own row and its siblings' ratio
    columns.
    """
    read: Dict[str, object] = {}

    def fetch(cell: str):
        if cell not in read:
            read[cell] = store.fetch_result(cell)
        return read[cell]

    for key, recipe, system in grid:
        if skip(key):
            yield key, None
            continue
        base = None
        if bases:
            base = fetch(bases[(recipe, system.core)][0]["cell"])
            if base is None:
                yield key, None
                continue
        result = fetch(key["cell"])
        if result is None:
            yield key, None
            continue
        yield key, _result_row(key, result, base)


def run_sweep(spec: SweepSpec, n_accesses: Optional[int] = None,
              traces: Optional[TraceCache] = None,
              runner: Optional[ResilientRunner] = None,
              checkpoint_every: Optional[int] = None,
              engine: str = "python",
              store: Optional[Union[ResultStore, str, Path]] = None
              ) -> List[dict]:
    """Run the grid; returns one dict per combination, FIELDS keys.

    Cells execute through ``runner`` (a default, journal-less
    :class:`ResilientRunner` if omitted): a failing cell contributes an
    error row instead of aborting the grid. Pass a runner with a
    ``journal`` to checkpoint, and one with ``resume_from`` to skip the
    cells a previous run completed. Baseline runs are computed lazily
    per (core, condition, seed) group, so fully-resumed groups skip
    them entirely.

    With ``checkpoint_every`` (requires a runner constructed with
    ``checkpoint_dir``), each cell additionally snapshots its
    *simulation state* every that many accesses into a per-cell file
    under the runner's checkpoint directory, and resumes from that file
    when it exists — so a killed campaign loses at most one checkpoint
    period of work per cell, not whole cells. Journal resume (cells)
    and checkpoint resume (accesses within a cell) compose: the journal
    skips finished cells, the checkpoint fast-forwards the interrupted
    one. Baseline runs are cheap shared work and stay uncheckpointed.
    Mix cells have no mid-run checkpoints, so a grid with a mix name
    and ``checkpoint_every`` raises :class:`~repro.errors.ConfigError`.

    Every ``jobs`` value runs the same task list (one
    :func:`_parallel_cell` per grid cell) through
    :meth:`ResilientRunner.run_cells`. A runner constructed with
    ``jobs > 1`` executes it in a supervised process pool (see
    :class:`~repro.sim.executors.SupervisedPoolExecutor`): worker death
    is contained to the executing cell, bystanders are rescheduled, and
    row order, fault ordinals, journal semantics, and resume behaviour
    are identical to the serial run — the CSV is byte-for-byte the
    same. Two redundancy eliminations apply (both deterministic, both
    leaving rows byte-identical — see ``docs/architecture.md``):

    * under ``jobs > 1``, each pending cell's trace is rendered *once*
      in the parent and published as a shared-memory segment
      (:class:`~repro.workloads.substrate.TraceStore`); workers attach
      zero-copy instead of regenerating per process;
    * the first completed baseline run per (trace, config) is kept in
      the process's :class:`WarmStateCache` and reused by the sibling
      runs (the baseline grid cell and every cell's normalization run)
      instead of re-simulating. Parallel sweeps submit baseline-config
      cells first and exchange their results through the store tier:
      the ``store`` root, or an ephemeral root without one.

    Shared-memory segments and the ephemeral root are removed in a
    ``finally`` — worker crashes and ``KeyboardInterrupt`` included.

    With a ``store`` (a :class:`~repro.store.ResultStore` or a store
    root path; CLI: ``sweep --store``), the grid is deduped against
    the persistent content-addressed store before anything executes:
    cells whose digest is already stored stream straight from disk
    (journaled as ok via :meth:`ResilientRunner.record_hit`, counted
    in ``stats.store_hits``), only the misses simulate, and every
    completed cell is published back under its digest. The CSV is
    byte-identical to a cold run — hits and executed cells build rows
    through the same :func:`_result_row`. A resume journal takes
    precedence over the store, and the store is silently disabled for
    fault-injection campaigns (their results intentionally diverge and
    must never enter — or be served from — the store).

    ``engine`` selects the replay implementation for every cell and
    baseline run (``"python"`` oracle or the byte-identical
    ``"kernel"`` array engine — see ``repro.sim.kernel``); because the
    kernel is oracle-equivalent, the CSV is identical either way.
    Engine is deliberately *excluded* from the store digest for the
    same reason.
    """
    traces = traces or TraceCache()
    runner = runner or ResilientRunner()
    if checkpoint_every is not None and runner.checkpoint_dir is None:
        raise ConfigError(
            "checkpoint_every needs a runner constructed with "
            "checkpoint_dir= (the per-cell snapshot directory)")
    mixes = [app for app in spec.apps if app in MIXES]
    if checkpoint_every is not None and mixes:
        raise ConfigError(
            f"checkpoint_every cannot apply to mix cells {mixes}: a "
            "multicore run has no mid-run checkpoints")
    if store is not None and not isinstance(store, ResultStore):
        store = ResultStore(store)
    # Only *simulation* faults disarm the store — their injected
    # divergence must never be published under a clean cell's digest.
    # Filesystem faults (repro.faultfs, armed separately at the
    # ioutil choke point) deliberately leave the store attached:
    # exercising its degradation paths is their entire purpose.
    if store is not None and (runner.faults is not None
                              or _faults.any_armed()):
        store = None
    # One walk of the grid serves the store pre-pass, the task list and
    # the normalization runs: each cell's identity is derived once.
    grid = list(grid_cells(spec, n_accesses))
    bases = _baseline_cells(spec, grid)
    hits: Dict[int, dict] = {}
    if store is not None:
        for i, (key, row) in enumerate(_stored_rows(
                grid, bases, store, skip=runner.completed_ok)):
            if row is not None:
                hits[i] = runner.record_hit(key, row)
    cells = [cell for i, cell in enumerate(grid) if i not in hits]
    handles: Dict[tuple, Union[TraceHandle, Tuple[TraceHandle, ...]]] = {}
    tier = store
    trace_store: Optional[TraceStore] = None
    exchange: Optional[str] = None
    try:
        if runner.jobs > 1:
            trace_store = TraceStore()
            pending = {recipe for key, recipe, _system in cells
                       if not runner.completed_ok(key)}
            for recipe in sorted(pending, key=lambda r: (
                    r.app, r.condition.value, r.seed)):
                handles[recipe] = _publish(trace_store, traces, recipe)
            if tier is None and spec.baseline is not None:
                exchange = tempfile.mkdtemp(prefix="repro-warm-")
                tier = ResultStore(exchange)
        tasks = [(key, partial(
            _parallel_cell, key, recipe, system,
            bases.get((recipe, system.core)), checkpoint_every,
            (checkpoint_path_for(runner.checkpoint_dir, key)
             if checkpoint_every else None),
            handles.get(recipe, traces), tier,
            engine=engine, exchange=exchange is not None))
            for key, recipe, system in cells]
        # Baseline-first submission: under --jobs N every baseline-config
        # cell is dispatched before any sibling, so by the time the
        # siblings' normalization runs look for the baseline result it
        # is already in the store tier — otherwise concurrent workers
        # race the baseline cell and each re-simulates the baseline
        # themselves. Ordinals and row order stay in grid order.
        executed = iter(runner.run_cells(
            tasks, first=lambda key: key["config"] == spec.baseline))
    finally:
        if trace_store is not None:
            trace_store.close()
        if exchange is not None:
            shutil.rmtree(exchange, ignore_errors=True)
        warm_cache_for(None)  # unbind this sweep's store tier
    rows = (hits[i] if i in hits else next(executed)
            for i in range(len(hits) + len(tasks)))
    # A degraded row carries its cell key, whose ``cell`` is not a CSV
    # column; every row is cut to FIELDS.
    return [{name: row.get(name, "") for name in FIELDS} for row in rows]


def rows_from_store(spec: SweepSpec, n_accesses: Optional[int],
                    store: ResultStore) -> Tuple[List[dict], List[dict]]:
    """Compose the grid's finished CSV rows purely from the store.

    The read-only counterpart of a sweep: no cell executes. Returns
    ``(rows, missing)`` — ``rows`` in :func:`grid_cells` order with the
    same bytes a cold :func:`run_sweep` would produce (same
    :func:`_result_row`, ``status="ok"``), and ``missing`` the cell
    keys the store cannot satisfy yet (result absent, or the group's
    baseline absent when the spec normalizes). ``rows`` is complete
    only when ``missing`` is empty — the ``repro jobs result`` gate.
    """
    blank = {name: "" for name in FIELDS}
    rows: List[dict] = []
    missing: List[dict] = []
    grid = list(grid_cells(spec, n_accesses))
    for key, row in _stored_rows(grid, _baseline_cells(spec, grid), store):
        if row is None:
            missing.append(key)
            rows.append(blank)
        else:
            rows.append({**blank, **row, "status": STATUS_OK, "error": ""})
    return rows, missing


def to_csv(rows: Iterable[dict], path: Union[str, Path]) -> Path:
    """Write sweep rows to ``path`` as CSV; returns the path.

    The write is atomic (temp file + ``os.replace``): a run killed
    mid-export leaves the previous CSV intact, never a half-written one.
    """
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=FIELDS)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return atomic_write_text(Path(path), buffer.getvalue())
