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
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..errors import ConfigError, ReproError
from ..ioutil import atomic_write_text
from ..store.resultstore import ResultStore, cell_identity
from ..workloads.mixes import MIXES
from ..workloads.substrate import (TraceHandle, TraceStore, attach,
                                   release_attached)
from ..workloads.trace import MemoryCondition, TraceRecipe
from . import faults as _faults
from .checkpoint import checkpoint_path_for
from .config import L1Config, SystemConfig, system_for
from .driver import simulate_multicore
from .executors import STATUS_OK
from .experiment import (MixRecipe, TraceCache, mix_recipe, run_app,
                         trace_recipe, trace_recipes)
from .resilience import ResilientRunner

#: The columns every sweep row carries, in CSV order. ``status`` is
#: "ok" for a completed cell; "error"/"timeout"/"crashed"/"resumable"
#: for a degraded one (metric columns then stay blank and ``error``
#: holds the typed error). ``speedup``/``energy_ratio`` are blank
#: without a baseline, and when the group's baseline cell is not "ok".
FIELDS = ["app", "config", "core", "condition", "seed", "ipc",
          "speedup", "l1_miss_rate", "fast_fraction",
          "extra_access_fraction", "energy_j", "energy_ratio",
          "status", "error"]

#: Core timing models a sweep may request.
VALID_CORES = frozenset(SystemConfig.CORE_KINDS)

#: How a ``--jobs N`` cell task reaches one trace it replays: the
#: handle of the trace's published segment, and the grid position of
#: the last pending cell that replays it (see :func:`_parallel_cell`).
Lease = Tuple[TraceHandle, int]


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
        ratio columns blank, as does a baseline cell that is not
        ``ok`` for its group's rows.
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
    for name, recipe, system in _walk(spec, n_accesses):
        yield cell_key(name, recipe, system), recipe, system


def _walk(spec: SweepSpec, n_accesses: Optional[int]):
    """Yield ``(config name, recipe, system)`` per cell in
    :func:`grid_cells` order, without deriving cell identities."""
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
                        yield name, recipe_for[app](
                            app, n_accesses, condition, seed), system


def plan_traces(traces: TraceCache, specs: Iterable[SweepSpec],
                n_accesses: Optional[int] = None) -> TraceCache:
    """Plan ``traces`` for running ``specs`` through :func:`run_sweep`,
    one after another, and return it.

    Every grid cell is one planned use of each trace it replays; each
    sweep consumes its cells' uses, so a trace is freed after the last
    cell of the last spec that replays it. A command that runs several
    sweeps on one cache plans it over all of them before the first.
    """
    traces.plan(recipe for spec in specs
                for _name, recipe, _system in _walk(spec, n_accesses))
    return traces


class SweepRows(list):
    """:func:`run_sweep`'s rows, in :func:`grid_cells` order.

    A plain list of row dicts that also carries ``grid``, the list of
    ``(key, recipe, system)`` cells the sweep walked, so a caller that
    pairs rows with their cells (``repro.figures.compute``) does not
    walk the grid and derive every cell identity a second time.
    """

    def __init__(self, rows: Iterable[dict], grid: List[tuple]):
        super().__init__(rows)
        self.grid = grid


def _result_row(key: Dict[str, object], result) -> dict:
    """One finished cell's CSV row (no status fields, blank ratios).

    The single source of truth for how a ``SimResult`` becomes row
    values — executed cells, pool workers, and store hits all call
    this, so a row's bytes cannot depend on *where* the result came
    from. A mix cell's row sums IPC and energy over its cores and
    averages the per-core fractions. The ratio columns are filled
    afterwards from the group's baseline row (:func:`_fill_ratios`).
    """
    row = {**{name: key[name] for name in FIELDS[:5]},
           "speedup": "", "energy_ratio": ""}
    if isinstance(result, list):
        n = len(result)
        row.update({
            "ipc": sum(r.ipc for r in result),
            "l1_miss_rate": sum(r.l1_stats.miss_rate for r in result) / n,
            "fast_fraction": sum(r.fast_fraction for r in result) / n,
            "extra_access_fraction": sum(
                r.extra_access_fraction for r in result) / n,
            "energy_j": sum(r.energy.total for r in result),
        })
        return row
    row.update({
        "ipc": result.ipc,
        "l1_miss_rate": result.l1_stats.miss_rate,
        "fast_fraction": result.fast_fraction,
        "extra_access_fraction": result.extra_access_fraction,
        "energy_j": result.energy.total,
    })
    return row


def _fill_ratios(baseline: Optional[str], grid: List[tuple],
                 rows: List[dict]) -> None:
    """Fill ``speedup``/``energy_ratio`` of ``rows`` in place.

    ``rows`` are ``grid``'s rows in :func:`grid_cells` order. Each
    ``ok`` row is normalized against the ``ok`` row of its (trace,
    core) group's ``baseline`` cell, which the grid always holds
    (:class:`SweepSpec` rejects a baseline outside its configs). The
    ratios are plain quotients of the two rows' ``ipc`` and
    ``energy_j``, so an executed, store-served or journal-resumed row
    normalizes to the same bytes. A row whose baseline cell is not
    ``ok`` keeps blank ratio columns; so does every row when
    ``baseline`` is ``None``.
    """
    if baseline is None:
        return
    bases = {(recipe, system.core): row
             for (key, recipe, system), row in zip(grid, rows)
             if key["config"] == baseline and row["status"] == STATUS_OK}
    for (_key, recipe, system), row in zip(grid, rows):
        base = bases.get((recipe, system.core))
        if base is not None and row["status"] == STATUS_OK:
            row["speedup"] = row["ipc"] / base["ipc"]
            row["energy_ratio"] = row["energy_j"] / base["energy_j"]


def _parallel_cell(key: Dict[str, object],
                   recipe: Union[TraceRecipe, MixRecipe],
                   system: SystemConfig,
                   checkpoint_every: Optional[int],
                   checkpoint_path: Optional[Path],
                   source: Union[TraceCache, Tuple[Lease, ...]],
                   store: Optional[ResultStore],
                   engine: str = "python", position: int = 0) -> dict:
    """One sweep cell as a self-contained task — the only cell task.

    Serial sweeps run it in-process; ``--jobs N`` sweeps pickle it to a
    pool worker. The traces come from ``source``: the sweep's
    :class:`TraceCache` when serial, else one :data:`Lease` per trace
    the cell replays (a zero-copy attach of the parent's published
    segment). ``position`` is the cell's grid position: a worker first
    releases every attached trace whose last cell is behind it. A
    mix's members replay together through
    :func:`~repro.sim.driver.simulate_multicore` (which has no
    checkpoints). The result is published to ``store`` when one is
    bound, with ``key`` as its meta sidecar — unless data faults were
    armed: a faulted run's divergence is intentional and must never
    serve another cell. Everything is deterministic, so the row is
    identical whichever process ran it — including under
    checkpointing, where ``checkpoint_path`` doubles as the resume
    source (a missing file just means a fresh start). The row's ratio
    columns stay blank; :func:`run_sweep` fills them.
    """
    faulted = _faults.any_armed()
    try:
        if isinstance(source, TraceCache):
            traces = [source.of(member) for member in trace_recipes(recipe)]
        else:
            release_attached(position)
            traces = [attach(handle, until) for handle, until in source]
        if isinstance(recipe, MixRecipe):
            result = simulate_multicore(traces, system, engine=engine)
        else:
            result = run_app(recipe.app, system,
                             checkpoint_every=checkpoint_every,
                             checkpoint_path=checkpoint_path,
                             resume_checkpoint=checkpoint_path,
                             trace=traces[0], engine=engine)
    except ReproError as exc:
        raise exc.with_context(app=recipe.app, config=key["config"],
                               seed=recipe.seed)
    if store is not None and not faulted:
        store.store_result(key["cell"], result, meta=key)
    return _result_row(key, result)


def _publish(trace_store: TraceStore, traces: TraceCache,
             recipes: Dict[int, Union[TraceRecipe, MixRecipe]],
             pending: List[int]) -> Dict[int, Tuple[Lease, ...]]:
    """Publish every trace a pending cell replays; returns each pending
    position's leases.

    ``recipes`` maps the grid position of each cell the sweep runs
    (store hits excluded) to its recipe, and ``pending`` lists the
    positions among them that execute (journal-resumed cells
    excluded), in grid order. Each trace is
    rendered once under its own recipe, so a trace that a mix shares
    with a single-core cell (or another mix) has one segment, and its
    lease carries the last pending position that replays it. Publishing
    consumes the sweep's planned uses of the trace in ``traces``, so
    the parent frees it at once unless a later sweep of the plan
    replays it; a trace no pending cell replays is released without
    being generated.
    """
    uses = Counter(member for recipe in recipes.values()
                   for member in trace_recipes(recipe))
    last = {member: position for position in pending
            for member in trace_recipes(recipes[position])}
    handles = {}
    for member in sorted(last, key=lambda r: (
            r.app, r.condition.value, r.seed)):
        handles[member] = trace_store.publish(traces.of(member), key=member)
        traces.release(member, uses.pop(member))
    for member, count in uses.items():
        traces.release(member, count)
    return {position: tuple((handles[member], last[member])
                            for member in trace_recipes(recipes[position]))
            for position in pending}


def _stored_rows(grid: List[tuple], store: ResultStore,
                 skip=lambda key: False):
    """Yield ``(key, row)`` per cell of ``grid``, composed from the store.

    ``grid`` is a spec's :func:`grid_cells` list. The one store-hit
    rule: a cell whose own result is stored is a hit, its row built by
    the same :func:`_result_row` an executed cell uses (ratio columns
    blank), so the row bytes match a cold run. Anything missing or
    unreadable is a miss (``row`` is ``None``), as is every cell
    ``skip(key)`` selects — those are never read. Entries are found by
    cell identity, so no trace is generated, and each cell is read
    once.
    """
    for key, _recipe, _system in grid:
        result = None if skip(key) else store.fetch_result(key["cell"])
        yield key, None if result is None else _result_row(key, result)


def run_sweep(spec: SweepSpec, n_accesses: Optional[int] = None,
              traces: Optional[TraceCache] = None,
              runner: Optional[ResilientRunner] = None,
              checkpoint_every: Optional[int] = None,
              engine: str = "python",
              store: Optional[Union[ResultStore, str, Path]] = None
              ) -> SweepRows:
    """Run the grid; returns one dict per combination, FIELDS keys
    (as :class:`SweepRows`, which also carries the walked grid).

    Cells execute through ``runner`` (a default, journal-less
    :class:`ResilientRunner` if omitted): a failing cell contributes an
    error row instead of aborting the grid. Pass a runner with a
    ``journal`` to checkpoint, and one with ``resume_from`` to skip the
    cells a previous run completed.

    With a ``baseline``, each row's ``speedup``/``energy_ratio`` are
    its ``ipc``/``energy_j`` over those of its (app, core, condition,
    seed) group's baseline row, filled in after every cell has
    finished, whether it executed, was served by the store or was
    resumed from the journal. A row whose baseline cell is not ``ok``
    keeps blank ratio columns, and the journal holds every row with
    blank ratio columns, so a resume that completes the baseline fills
    its siblings' ratios.

    With ``checkpoint_every`` (requires a runner constructed with
    ``checkpoint_dir``), each cell additionally snapshots its
    *simulation state* every that many accesses into a per-cell file
    under the runner's checkpoint directory, and resumes from that file
    when it exists — so a killed campaign loses at most one checkpoint
    period of work per cell, not whole cells. Journal resume (cells)
    and checkpoint resume (accesses within a cell) compose: the journal
    skips finished cells, the checkpoint fast-forwards the interrupted
    one. Mix cells have no mid-run checkpoints and consume no armed
    fault, so a grid with a mix name raises
    :class:`~repro.errors.ConfigError` under ``checkpoint_every`` or a
    fault spec that ``simulate`` consumes (``corrupt_trace``,
    ``poison_predictor``, ``crash@N@ACCESS``).

    Every ``jobs`` value runs the same task list (one
    :func:`_parallel_cell` per grid cell) through
    :meth:`ResilientRunner.run_cells`. A runner constructed with
    ``jobs > 1`` executes it in a supervised process pool (see
    :class:`~repro.sim.executors.SupervisedPoolExecutor`): worker death
    is contained to the executing cell, bystanders are rescheduled, and
    row order, fault ordinals, journal semantics, and resume behaviour
    are identical to the serial run — the CSV is byte-for-byte the
    same. Under ``jobs > 1``, each pending cell's trace is rendered
    *once* in the parent and published as a shared-memory segment
    (:class:`~repro.workloads.substrate.TraceStore`); workers attach
    zero-copy instead of regenerating per process. The segments are
    removed in a ``finally`` — worker crashes and
    ``KeyboardInterrupt`` included.

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

    ``engine`` selects the replay implementation for every cell
    (``"python"`` oracle or the byte-identical ``"kernel"`` array
    engine — see ``repro.sim.kernel``); because the kernel is
    oracle-equivalent, the CSV is identical either way. Engine is
    deliberately *excluded* from the store digest for the same reason.

    Without ``traces``, the sweep makes its own cache and plans it from
    the cells the store does not serve, so each trace (with its derived
    columns and kernel streams) is freed after its last cell. A cache
    passed in is planned by its owner, for several sweeps at once with
    :func:`plan_traces`; one nobody planned keeps its traces up to its
    LRU cap. Either way a cell's use is consumed once its row is final:
    a store hit or a journal-resumed cell releases its use without
    generating, an executed cell after its last attempt, and under
    ``jobs > 1`` the parent consumes every use when it publishes the
    trace. Derived columns of traces left cached are dropped when the
    sweep ends.
    """
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
    if mixes and any(f.kind in _faults.FaultSpec.DATA_KINDS
                     or f.at_access is not None
                     for f in getattr(runner.faults, "faults", ())):
        raise ConfigError(
            "corrupt_trace, poison_predictor and crash@N@ACCESS faults "
            f"cannot apply to a grid with mix cells {mixes}: only a "
            "single-core simulate consumes them")
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
    # One walk of the grid serves the store pre-pass, the plan, the task
    # list and the ratio fill: each cell's identity is derived once.
    grid = list(grid_cells(spec, n_accesses))
    hits: Dict[int, dict] = {}
    if store is not None:
        for i, (key, row) in enumerate(_stored_rows(
                grid, store, skip=runner.completed_ok)):
            if row is not None:
                hits[i] = runner.record_hit(key, row)
    cells = [(i, key, recipe, system)
             for i, (key, recipe, system) in enumerate(grid)
             if i not in hits]
    if traces is None:
        traces = TraceCache()
        traces.plan(recipe for _i, _key, recipe, _system in cells)
    else:
        for i in hits:
            traces.release(grid[i][1])
    sources: Dict[int, Tuple[Lease, ...]] = {}
    trace_store: Optional[TraceStore] = None
    try:
        if runner.jobs > 1:
            trace_store = TraceStore()
            sources = _publish(
                trace_store, traces,
                {i: recipe for i, _key, recipe, _system in cells},
                [i for i, key, _recipe, _system in cells
                 if not runner.completed_ok(key)])
        tasks = [(key, partial(
            _parallel_cell, key, recipe, system, checkpoint_every,
            (checkpoint_path_for(runner.checkpoint_dir, key)
             if checkpoint_every else None),
            sources.get(i, traces), store, engine=engine, position=i))
            for i, key, recipe, system in cells]
        # Publishing consumed the uses of a pool's cells; a serial
        # cell's is consumed once its row is final.
        done = (None if trace_store is not None
                else lambda index: traces.release(cells[index][2]))
        executed = iter(runner.run_cells(tasks, done=done))
    finally:
        if trace_store is not None:
            trace_store.close()
    # Traces the plan keeps for a later sweep lose what this one
    # derived from them.
    traces.shed_columns()
    # A degraded row carries its cell key, whose ``cell`` is not a CSV
    # column; every row is cut to FIELDS.
    rows = [{name: row.get(name, "") for name in FIELDS}
            for row in (hits[i] if i in hits else next(executed)
                        for i in range(len(grid)))]
    _fill_ratios(spec.baseline, grid, rows)
    return SweepRows(rows, grid)


def rows_from_store(spec: SweepSpec, n_accesses: Optional[int],
                    store: ResultStore) -> Tuple[List[dict], List[dict]]:
    """Compose the grid's finished CSV rows purely from the store.

    The read-only counterpart of a sweep: no cell executes. Returns
    ``(rows, missing)`` — ``rows`` in :func:`grid_cells` order with the
    same bytes a cold :func:`run_sweep` would produce (same
    :func:`_result_row` and :func:`_fill_ratios`, ``status="ok"``), and
    ``missing`` the cell keys the store cannot satisfy yet (result
    absent, or the group's baseline absent when the spec normalizes);
    their rows are blank. ``rows`` is complete only when ``missing`` is
    empty — the ``repro jobs result`` gate.
    """
    blank = {name: "" for name in FIELDS}
    grid = list(grid_cells(spec, n_accesses))
    rows = [dict(blank) if row is None
            else {**blank, **row, "status": STATUS_OK, "error": ""}
            for _key, row in _stored_rows(grid, store)]
    _fill_ratios(spec.baseline, grid, rows)
    missing: List[dict] = []
    for i, (key, _recipe, _system) in enumerate(grid):
        if rows[i]["status"] != STATUS_OK or (
                spec.baseline is not None and rows[i]["speedup"] == ""):
            missing.append(key)
            rows[i] = dict(blank)
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
