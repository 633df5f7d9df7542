"""Experiment harness: the shared trace cache and the one-app runner.

Experiments simulate (app, system) pairs. Traces are expensive to
build relative to replaying them, so this module memoizes them per
(app, condition, length, seed).

The experiment length defaults to a laptop-friendly access count and can
be scaled with the ``REPRO_ACCESSES`` environment variable.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import NamedTuple, Optional, Tuple

from ..envutil import env_int
from ..errors import ConfigError, ReproError
from ..workloads.mixes import get_mix
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


#: Default :class:`TraceCache` capacity. A trace plus its page table
#: and derived columns is a few MB at suite lengths; 64 covers the
#: full 26-app suite across two conditions with headroom, while a long
#: multi-condition, multi-seed campaign now evicts instead of growing
#: without bound. Override per cache or with ``REPRO_TRACE_CACHE``.
DEFAULT_TRACE_CAP = 64


class TraceCache:
    """LRU-bounded memo of generated traces, shared across systems.

    Replaying a trace mutates only simulator-side state (caches, TLBs,
    predictor tables built per `simulate` call); the trace itself and its
    page table are read-only during replay, so sharing is safe.

    The memo is capped (least-recently-used eviction) because long
    suite/designspace campaigns touch hundreds of (app, length,
    condition, seed) combinations and every retained trace pins its
    page table and derived columns in memory. ``max_traces`` defaults
    to :data:`DEFAULT_TRACE_CAP` (env override ``REPRO_TRACE_CACHE``);
    an evicted trace simply regenerates on next use.
    """

    def __init__(self, max_traces: Optional[int] = None):
        if max_traces is None:
            max_traces = env_int("REPRO_TRACE_CACHE", DEFAULT_TRACE_CAP)
        if max_traces < 1:
            raise ConfigError(
                f"max_traces must be >= 1, got {max_traces}")
        self.max_traces = max_traces
        self._traces: "OrderedDict[TraceRecipe, Trace]" = OrderedDict()

    def get(self, app: str, n_accesses: Optional[int] = None,
            condition: MemoryCondition = MemoryCondition.NORMAL,
            seed: int = 0) -> Trace:
        """Return the memoized trace for this cell, generating once."""
        return self.of(trace_recipe(app, n_accesses, condition, seed))

    def of(self, recipe: TraceRecipe) -> Trace:
        """Return the memoized trace ``recipe`` names, generating once."""
        trace = self._traces.get(recipe)
        if trace is None:
            trace = generate_trace(*recipe[:4])
            self._traces[recipe] = trace
            while len(self._traces) > self.max_traces:
                self._traces.popitem(last=False)
        else:
            self._traces.move_to_end(recipe)
        return trace

    def __len__(self) -> int:
        return len(self._traces)

    def clear(self) -> None:
        """Drop all memoized traces (frees their page tables too)."""
        self._traces.clear()


#: Module-level cache shared by the benchmark suite.
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
            cache = cache or SHARED_TRACES
            trace = cache.get(app, n_accesses, condition, seed)
        return simulate(trace, system, interval=interval,
                        decision_trace=decision_trace,
                        checkpoint_every=checkpoint_every,
                        checkpoint_path=checkpoint_path,
                        resume_checkpoint=resume_checkpoint,
                        warm_state=warm_state, engine=engine)
    except ReproError as exc:
        raise exc.with_context(app=app, seed=seed)
