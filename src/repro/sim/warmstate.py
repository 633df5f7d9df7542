"""Warm-state reuse: share one (trace, system) run's end state.

A sweep with a ``baseline`` config simulates every (app, core,
condition, seed) group's baseline *twice*: once as the baseline-config
grid cell, and once more as the normalization run behind every other
cell's ``speedup``/``energy_ratio`` columns (``_simulated`` in
:mod:`repro.sim.sweep`). Under ``--jobs N`` the duplication multiplies
— each pool worker memoizes its *own* baseline run. The simulations
are deterministic, so every one of those repeats computes bit-for-bit
the same component state.

:class:`WarmStateCache` eliminates the repeats. The first completed
run of a (trace, system, length) triple snapshots its full component
state through PR 4's ``state_dict()`` machinery, rendered into the
digest-protected "repro-ckpt-2" text format; sibling cells restore
that snapshot into a freshly built context and harvest the result
without replaying a single access. Restore correctness is exactly the
checkpoint/resume guarantee already proven byte-identical by
``tests/test_checkpoint_resume.py`` — a warm snapshot is a resume
from ``position == len(trace)``.

Reuse rules (enforced by the driver, documented in
``docs/architecture.md``):

* keyed by the cell identity
  (:func:`~repro.store.resultstore.cell_identity`: trace recipe plus
  full system config), which is also the store digest, so a snapshot
  or result can never warm a different trace or config. The full
  config, not its generated name, because names alias: L1 configs
  that differ only in fields the label omits (way prediction, line
  size) share one. A trace without a recipe is never memoized;
* disabled for runs with interval sampling, decision tracing, mid-sim
  checkpointing, or armed fault injection — those paths have
  side-channel outputs or intentional divergence a restored result
  would silently skip;
* a damaged cache entry is a *miss*, never an error: warm state is an
  optimization, and verification failures fall back to simulating.

The cache has two tiers (see ``docs/sweep-service.md``):

1. an in-process **LRU tier**: bounded dicts of rendered snapshot text
   and unpickled results. Each process has one instance
   (:func:`warm_cache_for`), so repeated ``run_sweep`` calls in the
   same process reuse each other's baselines;
2. an optional **store tier** (:class:`~repro.store.ResultStore`):
   snapshots and results are also published under their content
   digest. A ``--store`` sweep binds the user's store root, so future
   sweeps — any process, any user of the root — fetch instead of
   simulating; a ``--jobs N`` sweep without ``--store`` binds an
   ephemeral root that exists for the sweep only, through which its
   pool workers (separate processes) exchange baselines. That root is
   a private ``tempfile.mkdtemp`` directory, so unpickling from it
   stays within the process's own trust domain.

Store writes are atomic (temp + ``os.replace``), and concurrent writers
racing on one digest are benign — determinism means they write
identical bytes.

On top of state snapshots the cache memoizes finished
:class:`~repro.sim.results.SimResult` objects
(:meth:`WarmStateCache.fetch_result` / :meth:`~WarmStateCache.
store_result`), keyed by the cell identity the caller already holds
(a sweep cell key's ``cell``), so they are found without a trace or
another digest: restoring a state snapshot still pays for building a
fresh simulation context, but a sweep's baseline runs only need the
result, which pickles and loads in well under a millisecond, so they
read it first.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Optional

from ..errors import CheckpointError
from ..store.resultstore import cell_identity
from .checkpoint import render_checkpoint, verify_checkpoint_text
from .results import SimResult

#: In-memory entries retained per cache (LRU). A snapshot text plus an
#: unpickled result is a few hundred KiB at suite lengths; 64 covers a
#: large multi-config sweep while bounding the process-wide cache,
#: which lives for the whole process, not one sweep.
DEFAULT_MEMORY_ENTRIES = 64


class WarmStateCache:
    """Memoizes completed-run results and state per cell identity.

    The in-memory LRU tier is process-local. With a ``store``
    (:class:`~repro.store.ResultStore`), snapshots and results are
    additionally published under their content digest and read back on
    an LRU miss, making them visible to every process using the same
    store root — the second tier of the layout in the module docs.
    """

    def __init__(self, store=None,
                 max_entries: int = DEFAULT_MEMORY_ENTRIES):
        self.result_store = store
        self.max_entries = max_entries
        self._memory: "OrderedDict[str, str]" = OrderedDict()
        self._results: "OrderedDict[str, SimResult]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _remember(self, layer: "OrderedDict", key, value) -> None:
        """Insert into an in-memory layer, evicting LRU past the cap."""
        layer[key] = value
        layer.move_to_end(key)
        while len(layer) > self.max_entries:
            layer.popitem(last=False)

    def fetch(self, trace, system) -> Optional[Dict[str, Any]]:
        """The verified snapshot payload for this run, or ``None``.

        Checks the in-memory tier, then the store tier. The text is
        verified exactly like a checkpoint file (schema, digest, trace
        identity, cell identity) plus the completeness marker
        ``position == len(trace)``; anything that fails verification is
        treated as a miss — the caller simulates, it never errors.
        """
        payload = None
        key = (cell_identity(trace.recipe, system)
               if trace.recipe is not None else None)
        if key in self._memory:
            self._memory.move_to_end(key)
            try:
                payload = verify_checkpoint_text(
                    self._memory[key], source=f"warm state {system.name}",
                    trace=trace, cell=key)
            except CheckpointError:
                pass
        if payload is None and key and self.result_store is not None:
            payload = self.result_store.fetch_state(key, trace=trace)
        if payload is None or payload.get("position") != len(trace):
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def store(self, trace, system, state: Dict[str, Any]) -> None:
        """Publish a completed run's component state for siblings.

        ``position`` is stamped as ``len(trace)`` — the completeness
        marker :meth:`fetch` requires — and the snapshot carries the
        same trace/cell binding a mid-run checkpoint would, so the
        verification path is shared end to end. Like
        :meth:`store_result`, the store tier (when bound) always
        receives it, so a snapshot already in memory still reaches a
        newly bound store.
        """
        if trace.recipe is None:
            return
        key = cell_identity(trace.recipe, system)
        text = render_checkpoint(state=state, position=len(trace),
                                 trace=trace, cell=key)
        if key not in self._memory:
            self._remember(self._memory, key, text)
            self.stores += 1
        if self.result_store is not None:
            self.result_store.store_state(key, text)

    def fetch_result(self, cell: Optional[str]) -> Optional[SimResult]:
        """The memoized finished result for cell identity ``cell``, or
        ``None``.

        Same two-tier lookup as :meth:`fetch`, but keyed by the
        caller's identity (a sweep cell key's ``cell``) and returning
        the :class:`SimResult` directly — no trace, no context rebuild,
        no digest. A store entry that is unreadable or of the wrong
        type is a miss, never an error; so is a ``None`` identity (a
        trace without a recipe).
        """
        result = self._results.get(cell)
        if result is None and cell and self.result_store is not None:
            result = self.result_store.fetch_result(cell)
        if result is None:
            self.misses += 1
            return None
        self._remember(self._results, cell, result)
        self.hits += 1
        return result

    def store_result(self, cell: Optional[str], result: SimResult,
                     meta: Optional[Dict[str, Any]] = None,
                     remember: bool = True) -> None:
        """Publish a finished result under cell identity ``cell``.

        ``remember`` keeps it in the in-memory tier; the store tier
        (when bound) always receives it, with ``meta`` as its
        provenance sidecar. The store publish is idempotent, so a
        result already in memory still reaches a newly bound store.
        A ``None`` identity publishes nothing.
        """
        if cell is None:
            return
        if remember and cell not in self._results:
            self._remember(self._results, cell, result)
            self.stores += 1
        if self.result_store is not None:
            self.result_store.store_result(cell, result, meta=meta)

    def clear(self) -> None:
        """Drop the in-memory tier (store entries are left alone)."""
        self._memory.clear()
        self._results.clear()


#: The process-wide cache: every sweep cell a process runs — serial
#: cells in the parent, pool cells in each worker — shares its LRU tier.
_PROCESS_CACHE = WarmStateCache()


def warm_cache_for(store=None) -> WarmStateCache:
    """The process-wide :class:`WarmStateCache`, its store tier bound
    to ``store`` (a :class:`~repro.store.ResultStore`, or ``None`` for
    in-memory only).

    Entries are keyed by cell identity (snapshots are also verified
    against the trace content on every fetch), so the LRU tier is safe
    to share across sweeps and store roots; only the store tier follows
    the caller.
    """
    _PROCESS_CACHE.result_store = store
    return _PROCESS_CACHE
