"""Simulation driver: replay a trace through a configured system.

One call to :func:`simulate` builds the whole machine (SIPT L1 front
end, TLBs, L2/LLC/DRAM miss path, core timing model, energy model),
replays the trace access by access, and returns a :class:`SimResult`.

Every component's counters are wired into a per-run
:class:`~repro.obs.registry.MetricsRegistry` (namespaces documented in
``docs/observability.md``); the end-of-run harvest is a single
``registry.snapshot()`` rather than hand-picked attribute chains.
Every single-core replay runs through one chunk scheduler,
:func:`_replay_chunked`: it cuts the trace into ranges at interval,
checkpoint and injected-crash boundaries (one range when none is set)
and hands each to a range replayer — the fused python loop
(:func:`_replay_range`), the array-compiled kernel, or the decision
tracer (:func:`_traced_replay`). Interval sampling
(``interval=N``) and decision tracing
(``decision_trace=DecisionTrace(...)``) are strictly opt-in and leave
the default hot loop untouched.

:func:`simulate_multicore` runs four traces against private L1/L2s and
a shared LLC/DRAM, recycling shorter traces until the longest completes
— the paper's quad-core methodology (Section VI-B).
"""

from __future__ import annotations

import sys
from itertools import islice
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Union

from ..cache.hierarchy import CacheHierarchy
from ..cache.set_assoc import SetAssociativeCache
from ..errors import CheckpointError, ConfigError
from ..cache.tlb import TlbHierarchy
from ..core.indexing import IndexingScheme
from ..core.sipt_cache import SiptL1Cache
from ..obs.intervals import IntervalSampler
from ..obs.registry import MetricsRegistry, register_sipt_system
from ..obs.tracelog import DecisionTrace
from ..timing.cacti import CactiModel
from ..timing.dram import DramModel
from ..timing.energy import (
    EnergyModel,
    INORDER_LLC_PARAMS,
    LevelEnergyParams,
    OOO_L2_PARAMS,
    OOO_LLC_PARAMS,
)
from ..timing.inorder import InOrderCore
from ..timing.ooo import OooCore
from ..workloads.substrate import columns_for
from ..workloads.trace import Trace
from . import faults as _faults
from ..ioutil import atomic_write_text
from ..store.resultstore import cell_identity
from .checkpoint import (
    load_checkpoint,
    render_checkpoint,
    trace_identity,
)
from .config import SystemConfig
from .results import SimResult

_CACTI = CactiModel()


def _build_l1(system: SystemConfig) -> SiptL1Cache:
    """Construct the SIPT L1 front end for one system config."""
    l1cfg = system.l1
    cache = SetAssociativeCache(l1cfg.capacity, l1cfg.line_size,
                                l1cfg.ways, name="L1D")
    tlb = TlbHierarchy()
    return SiptL1Cache(cache, tlb,
                       scheme=l1cfg.scheme,
                       variant=l1cfg.variant,
                       hit_latency=l1cfg.latency,
                       way_prediction=l1cfg.way_prediction,
                       page_bound_idb=l1cfg.page_bound_idb)


def _build_miss_path(system: SystemConfig,
                     shared_llc: Optional[SetAssociativeCache] = None,
                     shared_dram: Optional[DramModel] = None
                     ) -> CacheHierarchy:
    """Construct the L2/LLC/DRAM miss path (LLC/DRAM may be shared)."""
    l2 = None
    if system.has_l2:
        l2 = SetAssociativeCache(system.l2_capacity, system.l1.line_size,
                                 system.l2_ways, name="L2")
    llc = shared_llc or SetAssociativeCache(
        system.llc_capacity, system.l1.line_size, system.llc_ways,
        name="LLC")
    dram = shared_dram or DramModel()
    return CacheHierarchy(l2, llc, dram,
                          l2_latency=system.l2_latency,
                          llc_latency=system.llc_latency)


def _build_core(system: SystemConfig, mlp: float):
    """Construct the core timing model named by ``system.core``."""
    if system.core == "ooo":
        return OooCore(width=6, rob_size=192, mlp=mlp)
    if system.core == "ooo-detailed":
        from ..timing.detailed import DetailedOooCore
        return DetailedOooCore(width=6, rob_size=192)
    return InOrderCore(width=2)


def _energy_model(system: SystemConfig) -> EnergyModel:
    """Build the Table II energy model for one system config."""
    l1 = LevelEnergyParams(
        dynamic_nj=_CACTI.dynamic_nj(system.l1.capacity, system.l1.ways),
        static_mw=_CACTI.static_mw(system.l1.capacity, system.l1.ways))
    l2 = OOO_L2_PARAMS if system.has_l2 else None
    llc = OOO_LLC_PARAMS if system.core == "ooo" else INORDER_LLC_PARAMS
    return EnergyModel(l1, l2, llc)


def _attach_walker(l1: SiptL1Cache, miss_path: CacheHierarchy,
                   trace: Trace) -> Callable[[int], int]:
    """Give the TLB a hardware page walker over the core's miss path.

    Walker loads are physical accesses into the page-table radix tree
    (Section II-B's x86-walker argument); they share the L2/LLC with
    demand traffic, so TLB-miss latency becomes dynamic. Returns the
    walker's memory callback: the context keeps it so the kernel can
    recognise (by identity) a walker still reading this miss path and
    compile its walks onto the compiled miss path.
    """
    from ..cache.walker import PageWalker

    def load(pa: int) -> int:
        return miss_path.access(pa, is_write=False)

    l1.tlb.walker = PageWalker(load)
    return load


class RowCursor:
    """Rows of zipped trace columns, handed out as consecutive ranges.

    A full pass is one plain zip. A chunked replay (interval sampling,
    checkpointing) visits consecutive ranges, so a range that starts
    where the last consumed one ended continues its iterator: the whole
    replay walks one zip in O(n) instead of slicing the columns per
    chunk (O(chunks x n) copying for small ``--interval`` or
    ``--checkpoint-every`` values). Any other start (resume,
    out-of-order use) skips forward in C via islice, never copying.
    Shared by :func:`_replay_range` and the kernel engine.
    """

    __slots__ = ("_columns", "_n", "_it", "position")

    def __init__(self, columns: Sequence[Sequence]):
        self._columns = columns
        self._n = len(columns[0])
        self._it = None
        #: Where the parked iterator stands; ``None`` when none is.
        self.position: Optional[int] = None

    def rows(self, start: int, end: int):
        """An iterator over the rows ``[start, end)``."""
        it = self._it if self.position == start else None
        self._it = self.position = None
        if it is None:
            it = zip(*self._columns)
            if start == 0 and end == self._n:
                return it
            if start:
                next(islice(it, start - 1, start), None)
        self._it = it
        return islice(it, end - start)

    def park(self, end: int) -> None:
        """Mark the last range consumed: a range at ``end`` continues it.

        Called only after the replayer has run the whole range, so a
        range abandoned mid-way (an exception) is never continued.
        """
        if self._it is not None:
            self.position = end


class _CoreContext:
    """Everything private to one core during a (multi)core simulation."""

    #: An extra L1 access (SIPT misspeculation) occupies the cache port;
    #: a memory access issued immediately afterwards queues behind it
    #: (Section IV: slow accesses "contend for the L1 cache port").
    PORT_CONFLICT_WINDOW = 2   # instruction gap below which it queues
    PORT_CONFLICT_CYCLES = 1

    def __init__(self, system: SystemConfig, trace: Trace,
                 shared_llc=None, shared_dram=None):
        self.system = system
        self.trace = trace
        self.l1 = _build_l1(system)
        self.miss_path = _build_miss_path(system, shared_llc, shared_dram)
        self._walker_load = _attach_walker(self.l1, self.miss_path,
                                           trace)
        self.core = _build_core(system, trace.mlp)
        self.energy_model = _energy_model(system)
        # One registry per simulated core: every component's live stats
        # object under its dotted namespace (docs/observability.md).
        # Registration stores references only — the hot loop below never
        # touches the registry, so observability-off costs nothing.
        self.registry = MetricsRegistry()
        register_sipt_system(self.registry, self.l1, self.miss_path,
                             self.core)
        self.intervals: Optional[List[dict]] = None
        self.position = 0
        self.completed_once = False
        self.port_conflicts = 0
        self._port_busy = False
        # The replay loop indexes plain Python lists: indexing a numpy
        # array returns numpy scalars whose int()/bool() conversion
        # dominates the per-access cost. The conversions live in the
        # trace's derived-column store, so sibling cells replaying the
        # same trace in this process pay them once, not once per cell.
        (self._pc, self._va, self._is_write,
         self._gap, self._dep) = columns_for(trace).lists()
        self._len = len(trace)
        self._page_table = trace.process.page_table
        # Pre-bound hot-loop callables and constants: step() runs once
        # per access, so every attribute chain it avoids is a win.
        self._l1_access = self.l1.access
        self._miss_access = self.miss_path.access
        self._miss_writeback = self.miss_path.writeback
        self._retire = self.core.retire_instructions
        self._memory_access = self.core.memory_access
        self._line_shift = self.l1.cache.line_shift
        self._conflict_window = self.PORT_CONFLICT_WINDOW
        self._conflict_cycles = self.PORT_CONFLICT_CYCLES
        self._row_cursor = RowCursor((self._gap, self._pc, self._va,
                                      self._is_write, self._dep))

    def step(self):
        """Replay one trace record (recycling at the end).

        Returns the :class:`~repro.core.sipt_cache.L1AccessResult` so
        observers (the decision trace) can record the access's outcome.
        """
        i = self.position
        gap = self._gap[i]
        is_write = self._is_write[i]
        self._retire(gap)
        result = self._l1_access(self._pc[i], self._va[i], is_write,
                                 self._page_table)
        latency = result.latency
        if self._port_busy and gap < self._conflict_window:
            latency += self._conflict_cycles
            self.port_conflicts += 1
        self._port_busy = result.extra_l1_access
        if not result.hit:
            latency += self._miss_access(result.translation.pa, is_write)
        if result.writeback_line is not None:
            self._miss_writeback(result.writeback_line, self._line_shift)
        self._memory_access(latency, is_write, self._dep[i])
        self.position = i + 1
        if self.position == self._len:
            self.position = 0
            self.completed_once = True
        return result

    def state_dict(self) -> dict:
        """JSON-safe snapshot of every stateful component in this core.

        Composed into the "repro-ckpt-2" checkpoint payload by
        :func:`_replay_chunked`; the registry is *not* serialized —
        it holds references to the live stats objects, which are
        restored in place, so a post-load ``registry.snapshot()`` reads
        the restored counters automatically.
        """
        return {"l1": self.l1.state_dict(),
                "miss_path": self.miss_path.state_dict(),
                "core": self.core.state_dict(),
                "position": self.position,
                "completed_once": self.completed_once,
                "port_conflicts": self.port_conflicts,
                "port_busy": self._port_busy}

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot into a freshly-built same-config context."""
        self.l1.load_state_dict(state["l1"])
        self.miss_path.load_state_dict(state["miss_path"])
        self.core.load_state_dict(state["core"])
        self.position = state["position"]
        self.completed_once = state["completed_once"]
        self.port_conflicts = state["port_conflicts"]
        self._port_busy = state["port_busy"]

    def energy_factor(self) -> float:
        """Current L1 data-array energy factor (way prediction)."""
        if self.l1.way_predictor is not None:
            return self.l1.way_predictor.dynamic_energy_factor()
        return 1.0

    def result(self) -> SimResult:
        """Harvest the finished run into a :class:`SimResult`.

        All counters come from one ``registry.snapshot()``; the
        deduplicated ``predictor.queries`` metric (not the sum of the
        perceptron's and IDB's per-structure counters) feeds the
        predictor energy term, so a COMBINED-mode access that consulted
        both structures is charged once.
        """
        stats = self.core.finish()
        l1 = self.l1
        snapshot = self.registry.snapshot()
        predictor_queries = int(snapshot["predictor.queries"])
        l1_accesses = int(snapshot["l1d.accesses"]
                          + snapshot["sipt.extra_l1_accesses"])
        way_accuracy = None
        if l1.way_predictor is not None:
            way_accuracy = l1.way_predictor.stats.accuracy
        energy = self.energy_model.breakdown(
            cycles=int(stats.cycles),
            l1_accesses=l1_accesses,
            l2_accesses=int(snapshot.get("miss_path.l2_accesses", 0)),
            llc_accesses=int(snapshot.get("miss_path.llc_accesses", 0)),
            predictor_queries=predictor_queries,
            l1_data_energy_factor=self.energy_factor())
        return SimResult(
            app=self.trace.app,
            system=self.system.name,
            instructions=stats.instructions,
            cycles=stats.cycles,
            l1_stats=l1.cache.stats,
            tlb_stats=l1.tlb.stats,
            outcomes=l1.outcomes,
            energy=energy,
            l1_accesses_with_extra=l1_accesses,
            fast_fraction=l1.stats.fast_fraction,
            extra_access_fraction=l1.stats.extra_access_fraction,
            way_prediction_accuracy=way_accuracy,
            metrics=snapshot,
            intervals=self.intervals)


def _replay_range(ctx: _CoreContext, start: int, end: int) -> None:
    """Fused replay of trace records ``[start, end)``.

    A mirror of :meth:`_CoreContext.step` (keep the two in sync) with
    every per-access attribute access hoisted into locals and the trace
    columns driven by one zip iterator. The multicore driver
    interleaves cores and must keep per-core state in the context, so
    it stays on ``step()``; a single-core replay owns the whole loop
    and this form is measurably faster. Port-conflict state is read
    from and written back to the context, so consecutive ranges chain
    exactly like one continuous loop (the chunk scheduler replays in
    interval- and checkpoint-sized ranges).
    """
    retire = ctx._retire
    l1_access = ctx._l1_access
    miss_access = ctx._miss_access
    miss_writeback = ctx._miss_writeback
    memory_access = ctx._memory_access
    page_table = ctx._page_table
    line_shift = ctx._line_shift
    window = ctx._conflict_window
    conflict_cycles = ctx._conflict_cycles
    port_busy = ctx._port_busy
    port_conflicts = ctx.port_conflicts
    cursor = ctx._row_cursor
    for gap, pc, va, is_write, dep in cursor.rows(start, end):
        retire(gap)
        result = l1_access(pc, va, is_write, page_table)
        latency = result.latency
        if port_busy and gap < window:
            latency += conflict_cycles
            port_conflicts += 1
        port_busy = result.extra_l1_access
        if not result.hit:
            latency += miss_access(result.translation.pa, is_write)
        writeback = result.writeback_line
        if writeback is not None:
            miss_writeback(writeback, line_shift)
        memory_access(latency, is_write, dep)
    ctx.port_conflicts = port_conflicts
    ctx._port_busy = port_busy
    cursor.park(end)


def _traced_replay(decision_trace: DecisionTrace) -> Callable:
    """A range replayer that records every sampled access's decision.

    Tracing needs the per-access :class:`L1AccessResult`, so it runs on
    :meth:`_CoreContext.step` instead of the fused loop — slower, which
    is why it is opt-in (the zero-cost-when-off guarantee applies to the
    *default* path, not this one). ``step()`` reads ``ctx.position``,
    which the chunk scheduler keeps at each chunk's start.
    """
    sample = decision_trace.sample
    record = decision_trace.record

    def replay(ctx: _CoreContext, start: int, end: int) -> None:
        step = ctx.step
        pc, va = ctx._pc, ctx._va
        for i in range(start, end):
            result = step()
            if i % sample == 0:
                record(i, pc[i], va[i], result)

    return replay


def _replay_chunked(ctx: _CoreContext, replay: Callable,
                    interval: Optional[int] = None,
                    checkpoint_every: Optional[int] = None,
                    checkpoint_path: Optional[Union[str, Path]] = None,
                    resume_checkpoint: Optional[Union[str, Path]] = None,
                    crash_at: Optional[int] = None) -> None:
    """Replay the whole trace as ``replay(ctx, start, end)`` chunks.

    The one single-core scheduler. ``replay`` is the fused python loop
    (:func:`_replay_range`), the kernel engine's
    :meth:`~repro.sim.kernel.KernelEngine.replay`, or the decision
    tracer (:func:`_traced_replay`); all chain state through the
    context. Chunk boundaries are the union of the interval grid, the
    checkpoint grid, and (under fault injection) the armed crash
    ordinal; with none of them set the trace is one ``replay(ctx, 0,
    n)`` call. Between chunks the loop samples intervals on interval
    boundaries (plus once for a trailing partial interval) and writes a
    digest-protected snapshot on checkpoint boundaries, so per-access
    cost is the replayer's own (docs/observability.md quantifies the
    sampling overhead). Each snapshot is written in line and replaces
    the file atomically; the ``--timeout`` watchdog reads that rewrite
    as progress (:func:`~repro.sim.executors.call_with_timeout`), and a
    failed write degrades the cell to checkpointless. Because
    every component restores in place, a resumed run's remaining
    chunks are byte-identical to an uninterrupted run's.

    On completion the snapshot is deleted: a finished cell must not
    look "resumable" to the runner, and a later re-run of the same cell
    must start from access 0.
    """
    sampler = None
    if interval:
        sampler = IntervalSampler(ctx.registry, interval,
                                  energy_model=ctx.energy_model,
                                  l1_data_energy_factor=ctx.energy_factor)
    n = ctx._len
    start = 0
    cell = None
    if resume_checkpoint is not None or checkpoint_path is not None:
        cell = cell_identity(ctx.trace.recipe, ctx.system)
    if resume_checkpoint is not None:
        payload = load_checkpoint(resume_checkpoint, trace=ctx.trace,
                                  cell=cell)
        if payload is not None:
            has_sampler = payload.get("sampler") is not None
            if (sampler is not None) != has_sampler:
                raise CheckpointError(
                    f"checkpoint {resume_checkpoint} was taken "
                    f"{'with' if has_sampler else 'without'} interval "
                    "sampling; resume with the same interval= setting")
            start = payload["position"]
            if start > n:
                raise CheckpointError(
                    f"checkpoint {resume_checkpoint} position {start} "
                    f"exceeds the trace length {n}")
            ctx.load_state_dict(payload["state"])
            if sampler is not None:
                sampler.load_state_dict(payload["sampler"])
    identity = None   # trace fingerprint, computed once on first write
    while start < n:
        if crash_at is not None and start >= crash_at:
            raise _faults.WorkerCrash(
                f"injected mid-simulation crash at access {crash_at}")
        end = n
        if checkpoint_every:
            end = min(end, (start // checkpoint_every + 1)
                      * checkpoint_every)
        if interval:
            end = min(end, (start // interval + 1) * interval)
        if crash_at is not None:
            end = min(end, crash_at)
        replay(ctx, start, end)
        ctx.position = 0 if end == n else end
        if sampler is not None and (end == n or end % interval == 0):
            sampler.sample(end)
        if (checkpoint_path is not None and checkpoint_every
                and end < n and end % checkpoint_every == 0):
            if identity is None:
                identity = trace_identity(ctx.trace)
            text = render_checkpoint(
                state=ctx.state_dict(), position=end,
                trace=ctx.trace, cell=cell,
                sampler_state=(sampler.state_dict()
                               if sampler is not None else None),
                identity=identity)
            try:
                # No fsync: rename atomicity covers process death, the
                # failure resume exists for (see write_checkpoint).
                atomic_write_text(Path(checkpoint_path), text,
                                  fsync=False)
            except OSError as exc:
                # A persistent failure (transients were retried) costs
                # the cell its resumability and the watchdog its
                # progress signal, never the simulation.
                checkpoint_every = None
                print(f"[checkpoint] write to {checkpoint_path} "
                      f"failed ({exc}); degraded: continuing without "
                      "checkpoints", file=sys.stderr)
        start = end
    if crash_at is not None and crash_at >= n:
        # An armed ordinal at/past the end still kills the run — the
        # injector promised a death, and tests rely on it firing.
        raise _faults.WorkerCrash(
            f"injected mid-simulation crash at access {crash_at}")
    if sampler is not None:
        ctx.intervals = sampler.records
    if checkpoint_path is not None:
        try:
            Path(checkpoint_path).unlink()
        except OSError:
            pass


def _check_engine(engine: str) -> None:
    if engine not in ("python", "kernel"):
        raise ConfigError(
            f"unknown engine {engine!r}: expected 'python' or 'kernel'")


def simulate(trace: Trace, system: SystemConfig,
             interval: Optional[int] = None,
             decision_trace: Optional[DecisionTrace] = None,
             checkpoint_every: Optional[int] = None,
             checkpoint_path: Optional[Union[str, Path]] = None,
             resume_checkpoint: Optional[Union[str, Path]] = None,
             warm_state=None, engine: str = "python") -> SimResult:
    """Run one trace through one system configuration.

    Parameters
    ----------
    trace:
        The memory-access trace to replay. It is validated first
        (:meth:`Trace.validate`), so corrupt records fail as a typed
        :class:`~repro.errors.TraceError` rather than replaying
        garbage.
    system:
        The :class:`~repro.sim.config.SystemConfig` to simulate.
    interval:
        When set, sample the metrics registry every ``interval``
        accesses; the per-window records land in
        ``SimResult.intervals`` (schema in ``repro.obs.intervals``).
        Sampling happens between fused replay ranges, so per-access
        cost is unchanged.
    decision_trace:
        When set, record every ``decision_trace.sample``-th access's
        SIPT decision into the ring buffer. This opts into a slower
        per-access replay loop that always runs the python engine;
        leave it ``None`` for performance runs. Incompatible with
        checkpointing (the ring buffer is not part of the snapshot).
    checkpoint_every:
        When set (with ``checkpoint_path``), write a crash-safe
        "repro-ckpt-2" snapshot every that many accesses; a killed run
        restarted with ``resume_checkpoint`` replays only the remaining
        accesses and returns a byte-identical result. ``None`` adds
        zero work to the replay loop — the default path is untouched.
    checkpoint_path:
        Where the snapshot lives (one file, atomically replaced each
        period; deleted on completion). Required with
        ``checkpoint_every`` and vice versa.
    resume_checkpoint:
        Snapshot to resume from. A missing file is not an error — the
        run simply starts fresh, which lets callers pass the cell's
        checkpoint path unconditionally. A corrupt or mismatched file
        raises :class:`~repro.errors.CheckpointError`.
    warm_state:
        Optional :class:`~repro.sim.warmstate.WarmStateCache`. When a
        verified completed-run snapshot for this exact (trace, system,
        length) exists, the run restores it instead of replaying —
        byte-identical by the checkpoint/resume guarantee — and a run
        that does replay publishes its end state for siblings. Ignored
        (silently) whenever interval sampling, decision tracing,
        checkpointing, or armed fault injection is active: those paths
        produce side-channel outputs or intentional divergence that a
        restored result would skip.
    engine:
        ``"python"`` (default) replays through the pure-python fused
        loop; ``"kernel"`` replays through the array-compiled engine
        (:mod:`repro.sim.kernel`), which precomputes translation,
        speculation, and latency columns and runs only the serial
        residue per access. The two are byte-identical by construction
        — the python loop is the kernel's differential oracle, and the
        engine falls back to it (permanently, per run) for any
        configuration or state it cannot prove it models, so
        ``engine="kernel"`` never changes results, only speed.

    Returns
    -------
    SimResult
        Totals plus ``metrics`` (the full registry snapshot) and, when
        ``interval`` was given, the interval time-series.

    The replay is deterministic for a given (trace, system): the same
    seed produces identical results, metrics, and interval records —
    in this process or a ``--jobs`` worker, resumed or uninterrupted.
    """
    _check_engine(engine)
    crash_at: Optional[int] = None
    faulted = _faults.any_armed()
    if faulted:
        # Armed data-level faults (repro.sim.faults) apply here, inside
        # the simulation, whichever process runs it. One dict check on
        # the uninjected path; the hot loop never sees any of this.
        spec = _faults.consume_fault("corrupt_trace")
        if spec is not None:
            trace = _faults.corrupt_trace(trace, n_records=spec.count)
        crash_at = _faults.consume_fault("sim_crash")
        poison = _faults.consume_fault("poison_predictor")
    else:
        poison = None
    if checkpoint_every is not None and checkpoint_every <= 0:
        raise ConfigError("checkpoint_every must be a positive access "
                          f"count, got {checkpoint_every}")
    if interval is not None and interval <= 0:
        raise ConfigError("interval must be a positive access count, "
                          f"got {interval}")
    if (checkpoint_every is None) != (checkpoint_path is None):
        raise ConfigError("checkpoint_every and checkpoint_path must be "
                          "given together")
    checkpointed = (checkpoint_every is not None
                    or resume_checkpoint is not None
                    or crash_at is not None)
    if decision_trace is not None and checkpointed:
        raise ConfigError("decision tracing cannot be combined with "
                          "checkpoint/resume (the ring buffer is not "
                          "part of the snapshot)")
    if warm_state is not None and (faulted or checkpointed or interval
                                   or decision_trace is not None):
        warm_state = None   # reuse rules: see the parameter docs
    trace.validate()
    ctx = _CoreContext(system, trace)
    if poison is not None and ctx.l1.perceptron is not None:
        _faults.poison_predictor(ctx.l1.perceptron,
                                 n_entries=poison.count)
    if warm_state is not None:
        payload = warm_state.fetch(trace, system)
        if payload is not None:
            ctx.load_state_dict(payload["state"])
            ctx.completed_once = True
            return ctx.result()
    replay: Callable = _replay_range
    if decision_trace is not None:
        # The decision trace needs the per-access L1AccessResult, so
        # it never builds the kernel.
        replay = _traced_replay(decision_trace)
    elif engine == "kernel":
        # Built after fault injection so a poisoned predictor is
        # visible to the engine's first verification (which fails it
        # over to the oracle).
        from .kernel import make_engine
        kernel = make_engine(ctx, _replay_range)
        if kernel is not None:
            replay = kernel.replay
    _replay_chunked(ctx, replay, interval, checkpoint_every,
                    checkpoint_path, resume_checkpoint, crash_at)
    if warm_state is not None:
        warm_state.store(trace, system, ctx.state_dict())
    ctx.completed_once = True
    return ctx.result()


def simulate_multicore(traces: Sequence[Trace], system: SystemConfig,
                       llc_capacity: Optional[int] = None,
                       engine: str = "python") -> List[SimResult]:
    """Run one trace per core with a shared LLC and DRAM.

    The shared LLC defaults to ``system.llc_capacity * n_cores``
    (the paper scales LLC size with core count). Traces are recycled
    until the last core finishes its first pass, keeping contention
    alive throughout, exactly as in Section VI-B. Each core carries its
    own metrics registry (the shared LLC and DRAM counters appear in
    every core's snapshot); interval sampling and decision tracing are
    single-core tools and are not offered here.

    ``engine="kernel"`` replays through per-core precomputed streams
    (:func:`repro.sim.kernel.run_multicore_kernel`) with the same
    round-robin interleaving over the same shared containers —
    byte-identical results, with a cold-state fallback to this loop
    for any configuration the kernel declines.
    """
    _check_engine(engine)
    if not traces:
        raise ConfigError("need at least one trace")
    for trace in traces:
        trace.validate()
    n_cores = len(traces)
    shared_llc = SetAssociativeCache(
        llc_capacity or system.llc_capacity * n_cores,
        system.l1.line_size, system.llc_ways, name="LLC")
    shared_dram = DramModel()
    contexts = [_CoreContext(system, trace, shared_llc, shared_dram)
                for trace in traces]
    if engine == "kernel":
        from .kernel import run_multicore_kernel
        if run_multicore_kernel(contexts):
            return [ctx.result() for ctx in contexts]
        # Declined before any mutation: fall through from cold state.
    # Round-robin; finished cores keep replaying their (recycled) trace
    # so contention stays constant until the last core completes.
    while not all(ctx.completed_once for ctx in contexts):
        for ctx in contexts:
            ctx.step()
    return [ctx.result() for ctx in contexts]
