"""Shared trace substrate: derived columns + zero-copy distribution.

Every figure in the SIPT evaluation is a grid of (app x system) cells
over the *same* per-app traces, yet before this module each ``--jobs``
pool worker regenerated every trace it touched — re-running the buddy
allocator, page tables, and demand paging from :mod:`repro.mem` once
per worker — and every :class:`~repro.sim.driver._CoreContext`
re-derived the per-access columns (``tolist()`` conversions, page
numbers, index deltas) per cell. This module amortizes both:

* :class:`TraceColumns` is a per-trace **derived-column store**,
  memoized on the :class:`~repro.workloads.trace.Trace` instance via
  :func:`columns_for`. It computes each derived view lazily and
  exactly once per process: the plain-list copies of the five raw
  columns the replay hot loop indexes, the vectorized virtual/physical
  page-number columns (``vpn``/``ppn``) whose XOR is the set-index
  delta SIPT speculates over, and the CRC-32 content fingerprint the
  checkpoint and warm-state layers key on.

* :class:`TraceStore` **publishes** a rendered trace (raw columns,
  page-table arrays, and the precomputed derived columns) into one
  ``multiprocessing.shared_memory`` segment, returning a picklable
  :class:`TraceHandle`. Pool workers :func:`attach` the handle and get
  a read-only, zero-copy :class:`~repro.workloads.trace.Trace` backed
  by the parent's pages — no regeneration, no column copies, and the
  derived columns arrive precomputed.

Lifecycle guarantees (exercised by ``tests/test_trace_substrate.py``):
the parent owns every segment; ``TraceStore.close()`` unlinks them and
runs from ``run_sweep``'s ``finally`` on normal exit, worker crash
(``BrokenProcessPool``), and ``KeyboardInterrupt``. A module-level
``atexit`` net unlinks anything a bypassed ``finally`` leaves behind.
A parent SIGKILL defeats every in-process net, so segments carry their
owner's pid in the name (``repro-trace-<pid>-<seq>``) and the next
run's first ``publish`` scavenges segments whose owner is dead
(:func:`scavenge_orphan_segments`). Workers only ever attach — they
never own, and therefore never unlink, a segment (see :func:`_untrack`
for the CPython < 3.13 tracker workaround this requires), and a
worker keeps an attachment only until it starts a cell past the last
grid position that replays it (:func:`release_attached`).
"""

from __future__ import annotations

import atexit
import os
import re
import weakref
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import shared_memory
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..envutil import env_int
from ..mem.address import PAGE_SHIFT
from ..mem.page_table import ArrayPageTable, flatten_page_table
from .storage import ReplayProcess
from .trace import MemoryCondition, Trace

#: Raw trace columns shipped through (and fingerprinted over), in the
#: canonical order shared with ``checkpoint.trace_identity``.
RAW_COLUMNS = ("pc", "va", "is_write", "inst_gap", "dep_dist")

#: Segment layout alignment: every column starts on a 16-byte boundary
#: so the attached numpy views are safely aligned for any dtype.
_ALIGN = 16


def trace_fingerprint(trace: Trace) -> str:
    """CRC-32 hex fingerprint over the raw column bytes.

    The same chained CRC ``repro.sim.checkpoint.trace_identity`` always
    used (column order is :data:`RAW_COLUMNS`), so fingerprints written
    into pre-existing checkpoints keep verifying.
    """
    crc = 0
    for name in RAW_COLUMNS:
        crc = zlib.crc32(getattr(trace, name).tobytes(), crc)
    return f"{crc & 0xFFFFFFFF:08x}"


#: Default :class:`KernelMemo` capacity (entries, not bytes). One
#: kernel stream set is a handful of entries (pa, addr, tlb, spec,
#: gapw, lat), so 64 holds several distinct configurations per
#: trace while a long multi-geometry campaign evicts instead of
#: pinning every stream it ever built. Mirrors ``DEFAULT_TRACE_CAP``
#: in spirit; override with ``REPRO_KERNEL_MEMO``.
DEFAULT_KERNEL_MEMO_CAP = 64


class KernelMemo:
    """LRU-bounded mapping for ``repro.sim.kernel`` stream memoization.

    The kernel engine keys precomputed streams here by configuration
    signature; a sweep touching many geometries/variants used to grow
    the plain-dict memo without bound for the lifetime of the trace.
    Only the two operations the kernel uses are offered (``get`` and
    item assignment), both refreshing recency; eviction drops the
    oldest entry, which simply rebuilds on next use. Engines hold
    direct references to the streams they were built with, so evicting
    an entry mid-run never invalidates a live engine.
    """

    __slots__ = ("_data", "max_entries")

    def __init__(self, max_entries: Optional[int] = None):
        if max_entries is None:
            max_entries = env_int("REPRO_KERNEL_MEMO",
                                  DEFAULT_KERNEL_MEMO_CAP)
        if max_entries < 1:
            from ..errors import ConfigError
            raise ConfigError(
                f"kernel memo capacity must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._data: OrderedDict = OrderedDict()

    def get(self, key, default=None):
        """Mapping get; a hit refreshes the entry's recency."""
        data = self._data
        if key in data:
            data.move_to_end(key)
            return data[key]
        return default

    def __setitem__(self, key, value) -> None:
        data = self._data
        if key in data:
            data.move_to_end(key)
        data[key] = value
        while len(data) > self.max_entries:
            data.popitem(last=False)

    def __contains__(self, key) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)


class TraceColumns:
    """Lazy, compute-once derived columns for one :class:`Trace`.

    Obtain instances through :func:`columns_for` — the memo is what
    makes "once" true: every cell, resumed run, or baseline sibling in
    the same process that replays the same trace object shares one
    instance, so the ``tolist()`` conversions and the page-number
    vectorization are paid a single time.

    Attached (shared-memory) traces arrive with ``vpn``/``ppn`` and the
    fingerprint pre-populated from the parent's computation; only the
    plain-list views are per-process (they must be, being Python
    objects).

    The store refers to its trace weakly: the trace owns the store
    (``trace._columns``), so a strong back-reference would make a
    cycle, and a dropped trace would then wait for the cyclic garbage
    collector instead of being freed, columns and kernel memo with it,
    the moment its last reference goes.
    """

    __slots__ = ("_trace", "_vpn", "_ppn", "_index_delta",
                 "_fingerprint", "_lists", "_kernel", "__weakref__")

    def __init__(self, trace: Trace,
                 vpn: Optional[np.ndarray] = None,
                 ppn: Optional[np.ndarray] = None,
                 fingerprint: Optional[str] = None):
        self._trace = weakref.ref(trace)
        self._vpn = vpn
        self._ppn = ppn
        self._index_delta: Optional[np.ndarray] = None
        self._fingerprint = fingerprint
        self._lists: Optional[Tuple[list, list, list, list, list]] = None
        self._kernel: Optional[KernelMemo] = None

    @property
    def vpn(self) -> np.ndarray:
        """Per-access virtual page number (``va >> PAGE_SHIFT``)."""
        if self._vpn is None:
            self._vpn = self._trace().va >> PAGE_SHIFT
        return self._vpn

    @property
    def ppn(self) -> np.ndarray:
        """Per-access physical page number.

        ``pa >> PAGE_SHIFT`` for every access: the page table is only
        consulted once per *unique* page (``np.unique`` gathers the
        inverse mapping), not once per access — the part worth
        precomputing — and an ``ArrayPageTable`` answers all of them
        in one binary search. Huge pages need no special case: the page
        table stores a 4K-granular ``pfn`` for every mapped vpn, so
        ``pa = (pfn << PAGE_SHIFT) | page_offset`` holds universally.
        """
        if self._ppn is None:
            unique, inverse = np.unique(self.vpn, return_inverse=True)
            table = self._trace().process.page_table
            self._ppn = table.pfns_of(unique)[inverse]
        return self._ppn

    @property
    def index_delta(self) -> np.ndarray:
        """``vpn ^ ppn`` — the bits where virtual and physical set
        index candidates disagree. An access misspeculates under a
        geometry using ``b`` index bits above the page offset iff
        ``index_delta & ((1 << b) - 1)`` is non-zero.
        """
        if self._index_delta is None:
            self._index_delta = self.vpn ^ self.ppn
        return self._index_delta

    @property
    def fingerprint(self) -> str:
        """Content fingerprint (see :func:`trace_fingerprint`)."""
        if self._fingerprint is None:
            self._fingerprint = trace_fingerprint(self._trace())
        return self._fingerprint

    def lists(self) -> Tuple[list, list, list, list, list]:
        """The five raw columns as plain Python lists, converted once.

        Indexing a numpy array returns numpy scalars whose
        ``int()``/``bool()`` conversion dominates the per-access cost
        in the replay hot loop, so the driver replays from these lists;
        hoisting the conversion here means sibling cells sharing a
        trace pay it once per process instead of once per cell.
        Order matches :data:`RAW_COLUMNS`.
        """
        if self._lists is None:
            trace = self._trace()
            self._lists = (trace.pc.tolist(), trace.va.tolist(),
                           trace.is_write.tolist(),
                           trace.inst_gap.tolist(),
                           trace.dep_dist.tolist())
        return self._lists

    def kernel_memo(self) -> KernelMemo:
        """Per-trace scratch store for ``repro.sim.kernel`` streams.

        The kernel engine precomputes per-access streams (TLB
        classification, speculation outcomes, address columns,
        miss-path latency bundles) that depend only on this trace's
        content plus a small configuration signature. Keying them here
        gives them exactly the lifetime and sharing the ``lists()``
        conversions already have: every cell, repeat, or resumed run
        replaying the same trace object in this process builds each
        stream once. The store is LRU-bounded (:class:`KernelMemo`,
        ``REPRO_KERNEL_MEMO``) so a campaign sweeping many
        configurations recycles slots instead of growing per trace
        without bound.
        """
        if self._kernel is None:
            self._kernel = KernelMemo()
        return self._kernel


def columns_for(trace: Trace) -> TraceColumns:
    """The (memoized) derived-column store for ``trace``.

    The store is cached on the trace instance itself, so any code path
    holding the same ``Trace`` object — driver contexts, checkpoint
    fingerprinting, warm-state keys, substrate publication — shares
    one instance. A structurally-copied trace (e.g.
    ``dataclasses.replace`` in the fault injector) naturally drops the
    memo and recomputes, which is exactly right: its content differs.
    """
    cols = getattr(trace, "_columns", None)
    if cols is None:
        cols = TraceColumns(trace)
        trace._columns = cols
    return cols


def drop_columns(trace: Trace) -> None:
    """Forget ``trace``'s derived-column store, kernel memo included.

    The trace itself stays usable: :func:`columns_for` derives a fresh
    store on next use. A sweep calls this on the traces it leaves
    cached for a later sweep, so derived columns live no longer than
    the sweep that built them.
    """
    trace._columns = None


# ---------------------------------------------------------------------
# Shared-memory publication
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class TraceHandle:
    """A picklable reference to one published trace segment.

    ``layout`` maps column name -> ``(dtype string, length, byte
    offset)`` inside the segment; ``meta`` carries the scalar trace
    fields (app, condition, mlp, huge_fraction, asid, fingerprint,
    recipe) needed to rebuild the :class:`Trace` shell on attach.
    """

    name: str
    layout: Tuple[Tuple[str, str, int, int], ...]
    meta: Tuple[Tuple[str, object], ...]


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Keep an *attached* segment off this process's resource tracker.

    CPython < 3.13 registers every ``SharedMemory`` — even an attach —
    with the ``multiprocessing.resource_tracker``, whose cleanup then
    unlinks "leaked" segments and warns about them. Only the parent
    (the creator) owns our segments, so an attaching process must not
    contribute its own tracker claim. Under the ``fork`` start method
    (Linux default, what the sweep pool uses) workers *share* the
    parent's tracker: the duplicate registration is idempotent there,
    and unregistering would strip the parent's own entry — so this is
    a no-op. Under ``spawn``, each worker runs a private tracker that
    would unlink the segment when the worker exits (bpo-39959), so
    there the attach-side registration is withdrawn. 3.13+ has
    ``track=False`` for exactly this; the guarded private-API call
    keeps us portable to older interpreters.
    """
    try:
        import multiprocessing
        if multiprocessing.get_start_method() == "fork":
            return
        from multiprocessing import resource_tracker
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker API unavailable
        pass


#: Worker-side attach memo: segment name -> (SharedMemory, Trace, last
#: grid position that replays it, or None for no planned end). Sibling
#: cells in one worker share the entry; :func:`release_attached` drops
#: it once the worker starts a cell past its last position, and
#: :meth:`TraceStore.close` drops this process's entries of the
#: segments it unlinks.
_ATTACHED: Dict[str, Tuple[shared_memory.SharedMemory, Trace,
                           Optional[int]]] = {}

#: Detached segments whose mapping is not closed yet: ``close`` refuses
#: while a numpy view of the buffer is alive (``BufferError``), so a
#: mapping some caller still views is retried at the next release.
_DETACHED: List[shared_memory.SharedMemory] = []

#: Live stores, for the atexit safety net. Weak so a store that was
#: closed and dropped does not linger here.
_LIVE_STORES: "weakref.WeakSet[TraceStore]" = weakref.WeakSet()


def _cleanup_live_stores() -> None:  # pragma: no cover - atexit path
    for store in list(_LIVE_STORES):
        store.close()


atexit.register(_cleanup_live_stores)


# ---------------------------------------------------------------------
# Orphan scavenging
# ---------------------------------------------------------------------
# Segments are named ``repro-trace-<pid>-<seq>`` so their owner is
# recoverable from the name alone. Every in-process cleanup net
# (``finally``, atexit, resource_tracker) dies with a SIGKILLed parent,
# so a hard-killed sweep leaks its segments until reboot; the next
# sweep's first ``publish`` scavenges them by checking whether the pid
# baked into each name is still alive.

_SEGMENT_RE = re.compile(r"^repro-trace-(\d+)-(\d+)$")
_SHM_DIR = Path("/dev/shm")
_segment_seq = 0
_scavenged = False


def _next_segment_name() -> str:
    global _segment_seq
    _segment_seq += 1
    return f"repro-trace-{os.getpid()}-{_segment_seq}"


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe; unknown (EPERM) counts as alive."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:  # pragma: no cover - e.g. EPERM: someone else's
        return True
    return True


def scavenge_orphan_segments() -> int:
    """Unlink ``repro-trace-*`` segments whose owner pid is dead.

    Returns the number of segments removed. Strictly guarded: only
    names matching the exact ``repro-trace-<pid>-<seq>`` format are
    considered (never other ``/dev/shm`` tenants), and only when the
    embedded pid no longer exists — a segment owned by a concurrently
    running sweep is left alone. No-op on platforms without a
    ``/dev/shm`` (the leak cannot outlive the boot elsewhere either).
    """
    removed = 0
    if not _SHM_DIR.is_dir():  # pragma: no cover - non-Linux
        return 0
    for entry in _SHM_DIR.iterdir():
        match = _SEGMENT_RE.match(entry.name)
        if match is None or _pid_alive(int(match.group(1))):
            continue
        try:
            entry.unlink()
            removed += 1
        except OSError:  # pragma: no cover - raced another scavenger
            pass
    return removed


def _scavenge_once() -> None:
    """Run the orphan scan once per process, at first publication."""
    global _scavenged
    if not _scavenged:
        _scavenged = True
        scavenge_orphan_segments()


class TraceStore:
    """Parent-side registry of traces published to shared memory.

    Content-addressed: :meth:`publish` keys each segment by the
    trace's :class:`~repro.workloads.trace.TraceRecipe` (or any
    hashable key the caller supplies) and is idempotent per key. The store owns
    its segments — :meth:`close` unlinks every one, and construction
    registers the store with an ``atexit`` net so even an exit path
    that skips the owning ``finally`` cannot leak ``/dev/shm`` entries.
    """

    def __init__(self):
        self._segments: Dict[object, Tuple[shared_memory.SharedMemory,
                                           TraceHandle]] = {}
        _LIVE_STORES.add(self)

    def publish(self, trace: Trace, key: Optional[object] = None
                ) -> TraceHandle:
        """Render ``trace`` into a shared segment; returns its handle.

        Raw columns, the flattened page table, and the precomputed
        derived columns (``vpn``/``ppn``) are packed contiguously
        (16-byte aligned) into one segment named
        ``repro-trace-<pid>-<seq>``. Publishing the same key again
        returns the existing handle without re-rendering. The first
        publication in a process also scavenges orphan segments left by
        hard-killed earlier runs (:func:`scavenge_orphan_segments`).
        """
        _scavenge_once()
        cols = columns_for(trace)
        if key is None:
            key = cols.fingerprint
        if key in self._segments:
            return self._segments[key][1]
        vpns, pfns, flags = flatten_page_table(
            trace.process.page_table)
        arrays = {name: np.ascontiguousarray(getattr(trace, name))
                  for name in RAW_COLUMNS}
        arrays["vpn"] = np.ascontiguousarray(cols.vpn)
        arrays["ppn"] = np.ascontiguousarray(cols.ppn)
        arrays["pt_vpn"] = vpns
        arrays["pt_pfn"] = pfns
        arrays["pt_flags"] = flags
        layout = []
        offset = 0
        for name, array in arrays.items():
            offset = (offset + _ALIGN - 1) // _ALIGN * _ALIGN
            layout.append((name, array.dtype.str, len(array), offset))
            offset += array.nbytes
        while True:
            try:
                shm = shared_memory.SharedMemory(
                    create=True, size=max(offset, 1),
                    name=_next_segment_name())
                break
            except FileExistsError:  # pragma: no cover - stale name
                continue  # seq advances; collides only with a leak
        for (name, dtype, length, off), array in zip(layout,
                                                     arrays.values()):
            view = np.ndarray((length,), dtype=dtype, buffer=shm.buf,
                              offset=off)
            view[:] = array
        handle = TraceHandle(
            name=shm.name,
            layout=tuple(layout),
            meta=(("app", trace.app),
                  ("condition", trace.condition.value),
                  ("mlp", trace.mlp),
                  ("huge_fraction", trace.huge_fraction),
                  ("asid", trace.process.page_table.asid),
                  ("fingerprint", cols.fingerprint),
                  ("recipe", trace.recipe)))
        self._segments[key] = (shm, handle)
        return handle

    @property
    def names(self) -> Tuple[str, ...]:
        """Names of every live segment (tests assert these vanish)."""
        return tuple(shm.name for shm, _ in self._segments.values())

    def close(self) -> None:
        """Unlink every published segment (idempotent).

        This process's own attachments of the segments are dropped
        too. Workers that still hold one keep their mapping until they
        release it or exit (POSIX unlink semantics); the backing pages
        are freed once the last mapping goes away. A segment that
        something else already removed is not an error.
        """
        segments, self._segments = self._segments, {}
        _detach(shm.name for shm, _ in segments.values())
        for shm, _ in segments.values():
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        _LIVE_STORES.discard(self)

    def __enter__(self) -> "TraceStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def attach(handle: TraceHandle, until: Optional[int] = None) -> Trace:
    """Open a published segment as a read-only, zero-copy Trace.

    Memoized per process and per segment: sibling cells running in the
    same pool worker share one ``Trace`` instance (and therefore one
    :class:`TraceColumns`, including the hot-loop lists). ``until`` is
    the grid position of the last cell that replays the trace; a
    worker's :func:`release_attached` drops the attachment once it
    starts a cell past it, and ``None`` keeps it until the segment's
    store closes. The returned arrays are numpy views straight over the
    shared pages with the writeable flag cleared — replay only reads,
    and the fault injector's ``corrupt_trace`` copies before mutating,
    so read-only sharing is safe by construction.
    """
    cached = _ATTACHED.get(handle.name)
    if cached is not None:
        return cached[1]
    shm = shared_memory.SharedMemory(name=handle.name)
    _untrack(shm)
    views: Dict[str, np.ndarray] = {}
    for name, dtype, length, offset in handle.layout:
        view = np.ndarray((length,), dtype=dtype, buffer=shm.buf,
                          offset=offset)
        view.flags.writeable = False
        views[name] = view
    meta = dict(handle.meta)
    table = ArrayPageTable(views["pt_vpn"], views["pt_pfn"],
                           views["pt_flags"], asid=int(meta["asid"]))
    trace = Trace(
        app=str(meta["app"]),
        condition=MemoryCondition(meta["condition"]),
        process=ReplayProcess(table),
        pc=views["pc"],
        va=views["va"],
        is_write=views["is_write"],
        inst_gap=views["inst_gap"],
        dep_dist=views["dep_dist"],
        mlp=float(meta["mlp"]),
        huge_fraction=float(meta["huge_fraction"]),
        recipe=meta["recipe"])
    trace._columns = TraceColumns(trace, vpn=views["vpn"],
                                  ppn=views["ppn"],
                                  fingerprint=str(meta["fingerprint"]))
    _ATTACHED[handle.name] = (shm, trace, until)
    return trace


def release_attached(position: int) -> None:
    """Drop every attached trace whose last position is before
    ``position``, the grid position of the cell this process starts.

    The trace, its derived columns and kernel memo are freed by
    reference counting as the memo lets go of them, and the segment's
    mapping is closed once no view of it is left. Cells are started in
    grid order, so a dropped trace is one no later cell replays; a
    rescheduled earlier cell simply attaches again, since segments live
    until their :class:`TraceStore` closes.
    """
    _detach([name for name, (_shm, _trace, until) in _ATTACHED.items()
             if until is not None and until < position])


def _detach(names) -> None:
    """Forget the attachments named ``names`` and close every detached
    mapping that no view holds any more."""
    for name in names:
        if name in _ATTACHED:
            _DETACHED.append(_ATTACHED.pop(name)[0])
    busy = []
    for shm in _DETACHED:
        try:
            shm.close()
        except BufferError:  # a caller still holds a view of it
            busy.append(shm)
    _DETACHED[:] = busy
