"""Experiment harness: the shared trace cache and the one-app runner.

Experiments simulate (app, system) pairs. Traces are expensive to
build relative to replaying them, so this module memoizes them per
(app, condition, length, seed).

The experiment length defaults to a laptop-friendly access count and can
be scaled with the ``REPRO_ACCESSES`` environment variable.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from typing import Iterable, NamedTuple, Optional, Tuple, Union

from ..envutil import env_int
from ..errors import ConfigError, ReproError
from ..workloads.mixes import get_mix
from ..workloads.storage import freeze_trace
from ..workloads.substrate import drop_columns
from ..workloads.trace import (MemoryCondition, Trace, TraceRecipe,
                               generate_trace)
from .config import SystemConfig
from .driver import simulate
from .results import SimResult



def default_accesses() -> int:
    """Experiment length: 50k accesses unless REPRO_ACCESSES overrides."""
    return env_int("REPRO_ACCESSES", 50000)


def trace_recipe(app: str, n_accesses: Optional[int] = None,
                 condition: MemoryCondition = MemoryCondition.NORMAL,
                 seed: int = 0) -> TraceRecipe:
    """The recipe of the trace :meth:`TraceCache.get` returns; only a
    ``None`` length resolves to :func:`default_accesses`."""
    if n_accesses is None:
        n_accesses = default_accesses()
    return TraceRecipe(app, n_accesses, condition, seed)


class MixRecipe(NamedTuple):
    """Everything that determines a Table III mix cell's traces.

    ``app`` (the mix name), ``condition`` and ``seed`` are the cell's
    readable coordinates; ``members`` holds one :class:`TraceRecipe`
    per core. A mix has no trace of its own: only its members are ever
    generated or published, each under its own recipe.
    """

    app: str
    condition: MemoryCondition
    seed: int
    members: Tuple[TraceRecipe, ...]


def mix_recipe(name: str, n_accesses: Optional[int] = None,
               condition: MemoryCondition = MemoryCondition.NORMAL,
               seed: int = 0) -> MixRecipe:
    """The recipe of mix ``name``'s cell: core ``i`` replays its
    member app's :func:`trace_recipe` on seed ``seed + i``."""
    return MixRecipe(name, condition, seed, tuple(
        trace_recipe(app, n_accesses, condition, seed + core)
        for core, app in enumerate(get_mix(name))))


def trace_recipes(recipe: Union[TraceRecipe, MixRecipe]
                  ) -> Tuple[TraceRecipe, ...]:
    """The traces a cell replays: a mix's members, else its own."""
    return recipe.members if isinstance(recipe, MixRecipe) else (recipe,)


#: Default :class:`TraceCache` capacity for traces outside any plan. A
#: cached trace is frozen: its columns plus an array page table, about
#: 17 bytes per mapped page, and the derived columns and kernel streams
#: its cells build — a few MB at suite lengths. Sweeps and the
#: multi-sweep commands plan their caches, which frees each trace after
#: its last cell, so the cap only bounds callers that fetch traces
#: without a plan (``repro run``, the bench, tests). Override per cache
#: or with ``REPRO_TRACE_CACHE``.
DEFAULT_TRACE_CAP = 64


class TraceCache:
    """LRU-bounded memo of generated traces, shared across systems.

    Replaying a trace mutates only simulator-side state (caches, TLBs,
    predictor tables built per `simulate` call); the trace itself and its
    page table are read-only during replay, so sharing is safe.

    Each trace is kept frozen (:func:`~repro.workloads.storage.
    freeze_trace`): its generation-time OS image — physical memory,
    buddy allocator, dict page table — is dropped as soon as the trace
    is generated, and what stays is the read-only form a pool worker's
    attached trace and a loaded trace also replay.

    Lifetimes are planned from the grid. The cache's owner declares
    every cell it will run (:meth:`plan`), and each cell consumes its
    use once its outcome is final (:meth:`release`); a trace is dropped
    after its last planned use, and with it its derived columns and
    kernel memo. The plan only ever frees memory early: a released
    trace that is asked for again regenerates, byte-identically.

    Traces with no planned use left are capped (least-recently-used
    eviction) at ``max_traces``, which defaults to
    :data:`DEFAULT_TRACE_CAP` (env override ``REPRO_TRACE_CACHE``);
    an evicted trace simply regenerates on next use. A trace with
    planned uses left is never evicted: its plan frees it.
    """

    def __init__(self, max_traces: Optional[int] = None):
        if max_traces is None:
            max_traces = env_int("REPRO_TRACE_CACHE", DEFAULT_TRACE_CAP)
        if max_traces < 1:
            raise ConfigError(
                f"max_traces must be >= 1, got {max_traces}")
        self.max_traces = max_traces
        self._traces: "OrderedDict[TraceRecipe, Trace]" = OrderedDict()
        #: Planned uses left per trace recipe.
        self._uses: "Counter[TraceRecipe]" = Counter()

    def get(self, app: str, n_accesses: Optional[int] = None,
            condition: MemoryCondition = MemoryCondition.NORMAL,
            seed: int = 0) -> Trace:
        """Return the memoized trace for this cell, generating once."""
        return self.of(trace_recipe(app, n_accesses, condition, seed))

    def of(self, recipe: TraceRecipe) -> Trace:
        """Return the memoized trace ``recipe`` names, generating once."""
        trace = self._traces.get(recipe)
        if trace is None:
            trace = freeze_trace(generate_trace(*recipe[:4]))
            self._traces[recipe] = trace
            if len(self._traces) > self.max_traces:
                unplanned = [r for r in self._traces if r not in self._uses]
                for old in unplanned[:len(unplanned) - self.max_traces]:
                    del self._traces[old]
        else:
            self._traces.move_to_end(recipe)
        return trace

    def plan(self, recipes: Iterable[Union[TraceRecipe, MixRecipe]]
             ) -> None:
        """Declare one planned use per cell recipe in ``recipes``; a
        mix cell uses each of its members once."""
        for recipe in recipes:
            self._uses.update(trace_recipes(recipe))

    def release(self, recipe: Union[TraceRecipe, MixRecipe],
                uses: int = 1) -> None:
        """Consume ``uses`` planned uses of each trace ``recipe``
        replays, without generating anything. A trace whose last use
        this was is dropped; one outside the plan is left alone."""
        for member in trace_recipes(recipe):
            left = self._uses[member] - uses
            if left > 0:
                self._uses[member] = left
            elif self._uses.pop(member, 0):
                self._traces.pop(member, None)

    def shed_columns(self) -> None:
        """Drop every cached trace's derived columns and kernel memo;
        the traces stay (a sweep's end, for traces a later sweep of
        the same plan replays)."""
        for trace in self._traces.values():
            drop_columns(trace)

    def __len__(self) -> int:
        return len(self._traces)

    def clear(self) -> None:
        """Drop all memoized traces (frees their page tables too)."""
        self._traces.clear()


#: The cache :func:`run_app` falls back to when it is given neither a
#: trace nor a cache. Nothing plans it, so it keeps up to its LRU cap.
SHARED_TRACES = TraceCache()


def run_app(app: str, system: SystemConfig,
            condition: MemoryCondition = MemoryCondition.NORMAL,
            n_accesses: Optional[int] = None, seed: int = 0,
            cache: Optional[TraceCache] = None,
            interval: Optional[int] = None,
            decision_trace=None,
            checkpoint_every: Optional[int] = None,
            checkpoint_path=None,
            resume_checkpoint=None,
            trace: Optional[Trace] = None,
            warm_state=None, engine: str = "python") -> SimResult:
    """Simulate one app on one system (trace memoized).

    ``interval``, ``decision_trace``, and the checkpoint controls
    (``checkpoint_every``/``checkpoint_path``/``resume_checkpoint``)
    pass straight through to :func:`~repro.sim.driver.simulate` — set
    ``interval=N`` for a per-N-accesses time-series in
    ``SimResult.intervals``, pass a
    :class:`~repro.obs.tracelog.DecisionTrace` to record sampled
    per-access SIPT decisions, or point the checkpoint controls at a
    snapshot file for crash-safe mid-simulation resume.

    ``trace`` overrides the cache entirely — the shared-trace
    substrate passes a zero-copy attached trace here, so ``--jobs``
    workers skip generation altogether. ``warm_state`` (a
    :class:`~repro.sim.warmstate.WarmStateCache`) lets deterministic
    sibling runs of the same (trace, system) restore a completed
    snapshot instead of replaying; see :func:`simulate`. ``engine``
    selects the replay implementation (``"python"`` oracle or the
    byte-identical ``"kernel"`` array engine).

    Typed errors from trace generation or simulation gain the
    (app, seed) cell context on the way out, so sweeps can journal the
    failing coordinates.
    """
    try:
        if trace is None:
            if cache is None:
                cache = SHARED_TRACES
            trace = cache.get(app, n_accesses, condition, seed)
        return simulate(trace, system, interval=interval,
                        decision_trace=decision_trace,
                        checkpoint_every=checkpoint_every,
                        checkpoint_path=checkpoint_path,
                        resume_checkpoint=resume_checkpoint,
                        warm_state=warm_state, engine=engine)
    except ReproError as exc:
        raise exc.with_context(app=app, seed=seed)
