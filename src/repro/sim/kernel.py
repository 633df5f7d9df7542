"""Array-compiled replay engine with a pure-python differential oracle.

The interpreter-level fused loop (``driver._replay_range``) pays the
full per-access cost of the SIPT pipeline — TLB dict probes, a
13-weight perceptron dot product, outcome bookkeeping, two result
objects — on every access. This module splits that pipeline into
**batch phases** and a **serial residue**:

* Batch phases (precomputed once per trace/config, as numpy arrays and
  plain lists, memoized on :meth:`TraceColumns.kernel_memo`):

  - **Address columns** — physical addresses via ``ArrayPageTable``
    (``cols.ppn``), line addresses, and set indices, array-wise.
  - **TLB stream** — a fused classification pass over a scratch
    :class:`TlbHierarchy`'s planes (:func:`_tlb_classify`) labels each
    access L1-hit / L2-hit / walk, skipping same-page runs array-wise,
    and takes structural snapshots every :data:`STRIDE` accesses so
    any position's TLB state can be reconstructed. TLB state evolution
    is independent of the cache geometry and of the walker (which only
    contributes latency), so one stream serves every cell replaying
    the trace.
  - **Speculation stream** — per-access fast/extra/outcome columns,
    array-wise from the ``unchanged`` ground truth (known from VA and
    PA before the pass), with the perceptron's serial weight evolution
    run as a generated loop per history length and the IDB only at the
    accesses the perceptron bypasses to it; strided snapshots again.
  - **Latency/port columns** — speculative-hit latencies, port-conflict
    chaining, and per-access instruction/cycle increments, vectorized.
    Page-walk accesses get a sentinel latency and are resolved at
    replay time by a walk (walker loads are demand traffic into the
    live L2/LLC and cannot be precomputed): the **compiled walk**
    (:func:`_compile_walk`) over the compiled miss path for the
    driver's own walker binding, the live ``PageWalker.walk``
    otherwise.

  The generated builders and the compiled walk *mirror* the live
  ``TlbHierarchy.translate``, ``SiptL1Cache._speculate`` and
  ``PageWalker.walk``; those stay the reference — the python engine,
  stream :meth:`~_TlbStream.advance` and the engine's state
  verification call them — and ``tests/test_kernel_streams.py`` pins
  every stream column and snapshot to per-access runs of them.

* Serial residue (the generated ``_loop`` function, specialized per
  core model and way-prediction setting): L1 array probes, LRU
  touches, fills/evictions, way prediction, and the core's stall
  arithmetic in the oracle's exact floating-point operation order.
  L1 misses are serviced inline by the **compiled miss path**
  (:func:`_compile_miss_path`): closures over the live L2/LLC/DRAM
  containers that mirror ``CacheHierarchy.access``/``writeback``
  operation-for-operation — probe, LRU, write-back cascades, DRAM
  row-buffer timing — with stats deltas folded at chunk boundaries.
  A hierarchy with non-default components keeps the live python
  methods instead (counted as ``miss-path-live`` in
  :data:`DECLINES`).

The engine's envelope covers all three core models: the analytic
``ooo``/``inorder`` cores compile to pure stall arithmetic, while
``ooo-detailed`` runs as a hybrid — the core's issue/retire recurrence
stays live inside the generated loop (it is real state, not foldable
arithmetic) and everything around it is streamed.
:func:`run_multicore_kernel` extends the same machinery to
``simulate_multicore``: per-core streams and compiled miss paths over
the shared LLC/DRAM containers, interleaved round-robin exactly like
the oracle loop. Declined configurations are counted per reason in
:data:`DECLINES` (``REPRO_KERNEL_DEBUG=1`` re-raises build failures).

**Oracle equivalence.** ``simulate(engine="kernel")`` must produce
byte-identical results to the python path. The engine verifies its
assumptions (TLB/predictor state matches the stream reconstruction,
port state matches the extra-access history) whenever it cannot prove
continuity, and permanently falls back to the oracle callable on any
mismatch or unsupported configuration — so a poisoned predictor, an
exotic replacement policy, or a subclassed core silently gets the
oracle's behaviour, including its exceptions.

Stream scratch objects are shared per-process (like the
``TraceColumns`` list conversions); the driver replays cells
sequentially in a process, so no locking is needed.

Float-exactness notes (all proven value-identical to the oracle):
ternary substitutes for ``min``/``max`` use ``<=``/``>=`` so ties
return the same value; ``max(df, 0.45)`` in the OOO L2 band is the
constant ``0.45`` because every dep factor is below it; stall terms
are accumulated onto locals seeded from the live stats in the same
order the oracle adds them.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from collections import Counter, OrderedDict
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..cache.replacement import LruPolicy
from ..cache.tlb import TlbHierarchy
from ..cache.walker import _LEVEL_SHIFTS, PAGE_TABLE_REGION, PageWalker
from ..core.idb import IndexDeltaBuffer
from ..core.perceptron import PerceptronPredictor
from ..core.sipt_cache import SiptL1Cache, SiptL1Stats
from ..core.way_prediction import WayPredictor
from ..mem.address import HUGE_PAGE_SHIFT, PAGE_SHIFT
from ..mem.page_table import TranslationFault
from ..stateutil import freeze_rows, load_rows
from ..timing.detailed import DetailedOooCore
from ..timing.inorder import InOrderCore
from ..timing.ooo import OooCore
from ..workloads.substrate import columns_for
from .driver import RowCursor

#: Accesses between structural snapshots in the precomputed streams.
#: Reconstructing an arbitrary position costs at most one snapshot
#: restore plus ``STRIDE - 1`` scratch replays.
STRIDE = 1024

_PAGE_OFF_MASK = (1 << PAGE_SHIFT) - 1

#: Why engines were not built, by reason, process-wide. Deliberately a
#: module-level counter rather than a ``SimResult`` field or registry
#: metric: results must stay byte-identical between engines (the
#: equivalence tests fingerprint the whole result, metrics included),
#: and the python engine never attempts a build at all. Read with
#: :func:`decline_counts`; set ``REPRO_KERNEL_DEBUG=1`` to re-raise
#: swallowed build exceptions instead of counting them.
DECLINES: Counter = Counter()


def _decline(reason: str) -> None:
    """Count one engine decline under ``reason`` (see :data:`DECLINES`)."""
    DECLINES[reason] += 1


def decline_counts() -> dict:
    """Per-reason decline counts accumulated in this process."""
    return dict(DECLINES)


# ----------------------------------------------------------------------
# TLB snapshot / restore / copy (operates on _TlbArray internals, the
# same planes TlbHierarchy.state_dict serializes)
# ----------------------------------------------------------------------

def _snap_tlb_array(arr) -> tuple:
    """Immutable value snapshot of one ``_TlbArray``."""
    return (freeze_rows(arr._tags), freeze_rows(arr._entries),
            tuple(bytes(s) for s in arr._policy._stacks))


def _load_tlb_array(arr, snap) -> None:
    """Restore a ``_snap_tlb_array`` snapshot in place."""
    tags, entries, stacks = snap
    load_rows(arr._tags, tags)
    load_rows(arr._entries, entries)
    for stack, saved in zip(arr._policy._stacks, stacks):
        stack[:] = saved
    where = arr._where
    where.clear()
    for set_index, row in enumerate(arr._tags):
        for way, key in enumerate(row):
            if key is not None:
                where[key] = (set_index, way)


def _copy_tlb_array(src, dst) -> None:
    """Copy one ``_TlbArray``'s state onto another, in place."""
    load_rows(dst._tags, src._tags)
    load_rows(dst._entries, src._entries)
    for d, s in zip(dst._policy._stacks, src._policy._stacks):
        d[:] = s
    where = dst._where
    where.clear()
    where.update(src._where)


def _snap_tlb(tlb: TlbHierarchy) -> tuple:
    """Structural snapshot of all three TLB levels (stats excluded)."""
    return (_snap_tlb_array(tlb._l1_4k), _snap_tlb_array(tlb._l1_2m),
            _snap_tlb_array(tlb._l2))


def _load_tlb(tlb: TlbHierarchy, snap) -> None:
    """Restore a :func:`_snap_tlb` snapshot in place."""
    _load_tlb_array(tlb._l1_4k, snap[0])
    _load_tlb_array(tlb._l1_2m, snap[1])
    _load_tlb_array(tlb._l2, snap[2])


def _copy_tlb(src: TlbHierarchy, dst: TlbHierarchy) -> None:
    """Copy scratch TLB structural state onto the live hierarchy."""
    _copy_tlb_array(src._l1_4k, dst._l1_4k)
    _copy_tlb_array(src._l1_2m, dst._l1_2m)
    _copy_tlb_array(src._l2, dst._l2)


# ----------------------------------------------------------------------
# precomputed streams
# ----------------------------------------------------------------------

class _ReplayStream:
    """Strided snapshots plus replay: any position's state on demand.

    ``snaps[k]`` is the scratch state after ``k * STRIDE`` accesses.
    :meth:`advance` restores the nearest snapshot at or below a target
    and replays the rest through the *live* model (subclasses'
    :meth:`_replay`). Off-stride positions the engine syncs to — chunk
    flushes, the end of the trace — are kept as one *mark* per stride
    window, so every later cell sharing the stream restores them
    instead of replaying up to ``STRIDE - 1`` accesses again.
    """

    snaps: list
    pos: int

    def _mark_end(self, n: int) -> None:
        """Record the builder's end state (the scratch is at ``n``)."""
        self.marks = {}
        self.pos = n
        if n % STRIDE:
            self.marks[n // STRIDE] = (n, self._snap())

    def _snap(self) -> tuple:
        raise NotImplementedError

    def _load(self, snap) -> None:
        raise NotImplementedError

    def _replay(self, start: int, stop: int) -> None:
        raise NotImplementedError

    def advance(self, target: int) -> None:
        """Bring the scratch state to the state after ``target``."""
        pos = self.pos
        if pos == target:
            return
        k = target // STRIDE
        mark = self.marks.get(k)
        if mark is not None and mark[0] <= target:
            start, snap = mark
        else:
            start, snap = k * STRIDE, self.snaps[k]
        self.pos = -1   # until done: a deadline may interrupt the replay
        if pos > target or pos < start:
            self._load(snap)
            pos = start
        if pos < target:
            self._replay(pos, target)
        self.pos = target
        if target % STRIDE:
            self.marks[k] = (target, self._snap())

    def snap_at(self, target: int) -> tuple:
        """Snapshot of the state after ``target`` accesses."""
        if target % STRIDE == 0:
            return self.snaps[target // STRIDE]
        self.advance(target)
        return self._snap()


def _tlb_fill(arr, key, entry) -> None:
    """``_TlbArray.fill`` over the array's planes (same victim order)."""
    set_index = key[1] % arr.n_sets
    tags = arr._tags[set_index]
    stack = arr._policy._stacks[set_index]
    if None in tags:
        way = tags.index(None)
    else:
        way = stack[-1]
        del arr._where[tags[way]]
    tags[way] = key
    arr._entries[set_index][way] = entry
    arr._where[key] = (set_index, way)
    if stack[0] != way:
        stack.remove(way)
        stack.insert(0, way)


def _tlb_classify(tlb: TlbHierarchy, page_table, vas: list,
                  heads: list, n: int):
    """Classify page-run heads through ``tlb``'s planes, in place.

    A fused mirror of :meth:`TlbHierarchy.translate` over the arrays'
    ``_where``/``_entries``/``_policy`` state: the same probe order
    (2M L1, 4K L1, L2, walk), LRU touches, fills, and faults, but no
    ``TranslationResult`` and no stats. ``vas[j]`` is the address of
    the access at trace position ``heads[j]``. Returns the per-head
    class bytes and the structural snapshots after every
    :data:`STRIDE` accesses up to ``n`` — positions skipped between
    heads change no state, so a boundary's snapshot is the state
    before the first head at or past it.
    """
    asid = page_table.asid
    lookup = page_table.lookup
    l1_2m, l1_4k, l2 = tlb._l1_2m, tlb._l1_4k, tlb._l2
    w2m, s2m = l1_2m._where, l1_2m._policy._stacks
    w4k, s4k = l1_4k._where, l1_4k._policy._stacks
    wl2, sl2, el2 = l2._where, l2._policy._stacks, l2._entries
    huge_base = TlbHierarchy._huge_base_entry
    out = bytearray(len(heads))
    snaps = [_snap_tlb(tlb)]
    boundary = STRIDE
    for j, i in enumerate(heads):
        if i >= boundary:
            snap = _snap_tlb(tlb)
            while i >= boundary:
                snaps.append(snap)
                boundary += STRIDE
        va = vas[j]
        key2m = (asid, va >> HUGE_PAGE_SHIFT)
        loc = w2m.get(key2m)
        if loc is not None:
            st = s2m[loc[0]]
            way = loc[1]
            if st[0] != way:
                st.remove(way)
                st.insert(0, way)
            continue
        vpn = va >> PAGE_SHIFT
        key = (asid, vpn)
        loc = w4k.get(key)
        if loc is not None:
            st = s4k[loc[0]]
            way = loc[1]
            if st[0] != way:
                st.remove(way)
                st.insert(0, way)
            continue
        loc = wl2.get(key)
        if loc is not None:
            set_index, way = loc
            st = sl2[set_index]
            if st[0] != way:
                st.remove(way)
                st.insert(0, way)
            entry = el2[set_index][way]
            out[j] = 1
        else:
            entry = lookup(vpn)
            if entry is None:
                raise TranslationFault(va)
            out[j] = 2
            _tlb_fill(l2, key, entry)
        if entry.huge:
            _tlb_fill(l1_2m, key2m, huge_base(entry, va))
        else:
            _tlb_fill(l1_4k, key, entry)
    if boundary <= n:
        snap = _snap_tlb(tlb)
        while boundary <= n:
            snaps.append(snap)
            boundary += STRIDE
    return out, snaps


class _TlbStream(_ReplayStream):
    """Per-trace TLB behaviour: classification columns + replayable state.

    Built over a scratch :class:`TlbHierarchy` (walker-less — the
    walker affects latency and its own stats, never which entries the
    TLB holds) by :func:`_tlb_classify`. Only the *head* of each run of
    same-4 KiB-page accesses is classified: the head leaves its page's
    entry MRU in its set, and ``LruPolicy.touch`` on the MRU way is a
    no-op, so the rest of the run are L1 hits that change no state.
    ``cls[i]`` is 0 for an L1 hit, 1 for an L2 hit, 2 for a walk.
    ``snaps[j]`` is the structural state after ``j * STRIDE`` accesses;
    :meth:`advance` reconstructs any position from the nearest snapshot
    at or below it through the live ``translate``.
    """

    def __init__(self, va: list, page_table, params: dict):
        self.va = va
        self.page_table = page_table
        self.scratch = TlbHierarchy(**params)
        n = len(va)
        vpn = np.asarray(va, dtype=np.int64) >> PAGE_SHIFT
        head_mask = np.ones(n, dtype=bool)
        np.not_equal(vpn[1:], vpn[:-1], out=head_mask[1:])
        heads = np.flatnonzero(head_mask)
        head_list = heads.tolist()
        head_cls, snaps = _tlb_classify(
            self.scratch, page_table, [va[i] for i in head_list],
            head_list, n)
        cls = np.zeros(n, dtype=np.int8)
        cls[heads] = np.frombuffer(head_cls, dtype=np.int8)
        self.cls = cls
        self.snaps = snaps
        self.walk_pos: List[int] = np.nonzero(cls == 2)[0].tolist()
        self._mark_end(n)

    def _snap(self) -> tuple:
        return _snap_tlb(self.scratch)

    def _load(self, snap) -> None:
        _load_tlb(self.scratch, snap)

    def _replay(self, start: int, stop: int) -> None:
        translate = self.scratch.translate
        page_table = self.page_table
        for v in self.va[start:stop]:
            translate(v, page_table)


class _SpecShim:
    """The slice of ``SiptL1Cache`` that ``_speculate`` reads.

    Holds *real* predictor instances so the unbound method runs the
    real policy logic: the stream builders' generated passes seed these
    predictors, and :meth:`_SpecStream.advance` replays through the
    live ``_speculate`` from there.
    """

    __slots__ = ("_spec_mask", "stats", "_is_naive", "_is_bypass",
                 "_predict_train", "_idb_predict_update",
                 "perceptron", "idb")

    def __init__(self, n_spec_bits: int, is_naive: bool, is_bypass: bool,
                 perc_params: Optional[tuple],
                 idb_params: Optional[tuple]):
        self._spec_mask = (1 << n_spec_bits) - 1
        self.stats = SiptL1Stats()
        self._is_naive = is_naive
        self._is_bypass = is_bypass
        self.perceptron = (PerceptronPredictor(*perc_params)
                           if perc_params is not None else None)
        self.idb = (IndexDeltaBuffer(*idb_params)
                    if idb_params is not None else None)
        self._predict_train = (self.perceptron.predict_train
                               if self.perceptron is not None else None)
        self._idb_predict_update = (self.idb.predict_update
                                    if self.idb is not None else None)


def _snap_spec(perceptron, idb) -> tuple:
    """Value snapshot of (perceptron, IDB) structural state."""
    return (
        (freeze_rows(perceptron._weights), tuple(perceptron._history))
        if perceptron is not None else None,
        (tuple(idb._deltas), tuple(idb._last_page))
        if idb is not None else None,
    )


def _perceptron_source(h: int) -> str:
    """Source of the training pass for one perceptron history length.

    ``_train(ents, tgts, weights, hist, theta, wmax, wmin)`` mirrors
    ``PerceptronPredictor.predict_train`` per access — the dot product,
    the threshold/mispredict training rule, saturating weights — with
    the global history unrolled into locals ``h1`` (newest) .. ``hH``.
    The bipolar encoding makes ``w if x > 0 else -w`` equal to
    ``w * x`` exactly on ints. ``weights`` rows are mutated in place;
    returns the per-access predictions.
    """
    hs = [f"h{k}" for k in range(1, h + 1)]
    out = [
        "def _train(ents, tgts, weights, hist, theta, wmax, wmin):",
        f"    {', '.join(hs)}, = hist",
        "    pred = []",
        "    push = pred.append",
        "    for e, t in zip(ents, tgts):",
        "        row = weights[e]",
        f"        {', '.join(f'w{k}' for k in range(h + 1))}, = row",
        "        y = w0 + " + " + ".join(f"w{k} * h{k}"
                                       for k in range(1, h + 1)),
        "        p = y >= 0",
        "        push(p)",
        "        if p != (t > 0) or (y if y >= 0 else -y) <= theta:",
        "            v = w0 + t",
        "            row[0] = wmax if v > wmax else (wmin if v < wmin else v)",
    ]
    for k in range(1, h + 1):
        out += [f"            v = w{k} + t * h{k}",
                f"            row[{k}] = wmax if v > wmax else "
                f"(wmin if v < wmin else v)"]
    out += [f"        {', '.join(hs)}, = {', '.join(['t'] + hs[:-1])},",
            "    return pred"]
    return "\n".join(out)


_TRAIN_CACHE: dict = {}


def _compile_train(h: int) -> Callable:
    """The generated perceptron training pass for history length ``h``."""
    fn = _TRAIN_CACHE.get(h)
    if fn is None:
        namespace: dict = {}
        exec(_perceptron_source(h), namespace)  # noqa: S102 — own source
        fn = _TRAIN_CACHE[h] = namespace["_train"]
    return fn


def _perceptron_pass(perc, pc, unchanged) -> tuple:
    """Predictions and strided weight/history snapshots for a trace.

    Training pushes the ground-truth target into the global history,
    so the history at every access is known up front from
    ``unchanged``; only the weight rows evolve serially. The generated
    :func:`_compile_train` loop runs one :data:`STRIDE` chunk at a
    time, seeded with that chunk's history, and the snapshot is taken
    between chunks. Leaves ``perc`` at the end-of-trace state.
    """
    n = len(pc)
    h = perc.history_length
    ents = (((pc >> 2) ^ (pc >> 9)) % perc.n_entries).tolist()
    tgts = np.where(unchanged, 1, -1).tolist()

    def hist_at(b):
        # Newest first; positions before the trace keep the reset 1s.
        return (tuple(tgts[max(0, b - h):b][::-1])
                + (1,) * (h - min(b, h)))

    train = _compile_train(h)
    weights = perc._weights
    pred: list = []
    snaps = [(freeze_rows(weights), hist_at(0))]
    for start in range(0, n, STRIDE):
        stop = min(start + STRIDE, n)
        pred += train(ents[start:stop], tgts[start:stop], weights,
                      hist_at(start), perc.theta, perc.weight_max,
                      perc.weight_min)
        if stop % STRIDE == 0:
            snaps.append((freeze_rows(weights), hist_at(stop)))
    perc._history[:] = hist_at(n)
    return np.array(pred, dtype=bool), snaps


def _idb_pass(idb, pos, pc, va_page, pa_page, n: int) -> tuple:
    """IDB hits at the bypassed positions ``pos``, plus snapshots.

    Mirrors ``IndexDeltaBuffer.predict_update`` (non-page-bound: the
    engine declines page-bound IDBs) at exactly the accesses that
    consult it. Returns the per-position hit bytes and the
    ``(deltas, last_page)`` snapshots after every :data:`STRIDE`
    accesses up to ``n``; leaves ``idb`` at the end-of-trace state.
    """
    mask = (1 << idb.n_bits) - 1
    ents = (((pc[pos] >> 2) ^ (pc[pos] >> 9)) % idb.n_entries).tolist()
    pages = va_page[pos].tolist()
    pa_bits = (pa_page[pos] & mask).tolist()
    deltas = idb._deltas
    last_page = idb._last_page
    hits = bytearray(len(pages))
    snaps = [(tuple(deltas), tuple(last_page))]
    boundary = STRIDE
    for j, (i, e, page, pb) in enumerate(zip(pos.tolist(), ents, pages,
                                             pa_bits)):
        if i >= boundary:
            snap = (tuple(deltas), tuple(last_page))
            while i >= boundary:
                snaps.append(snap)
                boundary += STRIDE
        vb = page & mask
        if ((vb + deltas[e]) & mask) == pb:
            hits[j] = 1
        deltas[e] = (pb - vb) & mask
        last_page[e] = page
    if boundary <= n:
        snap = (tuple(deltas), tuple(last_page))
        while boundary <= n:
            snaps.append(snap)
            boundary += STRIDE
    return np.frombuffer(hits, dtype=np.uint8).astype(bool), snaps


#: Speculation outcome codes of :attr:`_SpecStream.code`.
_CS, _CB, _OL, _EA, _IDB = 1, 2, 3, 4, 5


class _SpecStream(_ReplayStream):
    """Per-(trace, spec-config) speculation outcomes + replayable state.

    The columns mirror ``SiptL1Cache._speculate`` without calling it
    per access. Everything but the predictors' serial state is
    array-wise: the ``unchanged`` ground truth from VA and PA, the
    table indices, and each access's outcome from (prediction,
    unchanged, IDB hit). The perceptron runs as a generated loop
    (:func:`_perceptron_pass`); the IDB only at the accesses the
    perceptron bypasses to it (:func:`_idb_pass`); NAIVE has no
    predictor state at all. Per access, ``code`` is the outcome code,
    ``via`` marks a probe through the IDB's (or reversed-bit) value
    prediction, and ``correct`` marks a correct perceptron prediction
    (``None`` for NAIVE, which has no perceptron); the range folds
    count them. Snapshots every :data:`STRIDE` accesses mirror
    :class:`_TlbStream`; :meth:`advance` replays from them through the
    live ``_speculate`` over a :class:`_SpecShim`, which is what
    ``tests/test_kernel_streams.py`` pins the generated passes against.
    """

    def __init__(self, pc: list, va: list, pa: list, shim_args: tuple):
        self.pc, self.va, self.pa = pc, va, pa
        shim = _SpecShim(*shim_args)
        self.shim = shim
        perc = shim.perceptron
        self.stateless = perc is None and shim.idb is None
        n = len(pc)
        pc_arr = np.asarray(pc, dtype=np.int64)
        va_page = np.asarray(va, dtype=np.int64) >> PAGE_SHIFT
        pa_page = np.asarray(pa, dtype=np.int64) >> PAGE_SHIFT
        mask = shim._spec_mask
        va_bits = va_page & mask
        pa_bits = pa_page & mask
        unchanged = va_bits == pa_bits
        via = np.zeros(n, dtype=bool)
        correct = None
        snaps = [(None, None)] * (n // STRIDE + 1)
        if shim._is_naive:
            code = np.where(unchanged, _CS, _EA)
        else:
            pred, perc_snaps = _perceptron_pass(perc, pc_arr, unchanged)
            correct = pred == unchanged
            endorsed = np.where(unchanged, _CS, _EA)
            idb_snaps = None
            if shim._is_bypass:
                code = np.where(pred, endorsed,
                                np.where(unchanged, _OL, _CB))
            else:
                # COMBINED: a bypassed access probes with the IDB's
                # value prediction (or, with no IDB, the reversed bit).
                via = ~pred
                pos = np.flatnonzero(via)
                if shim.idb is not None:
                    hit_pos, idb_snaps = _idb_pass(
                        shim.idb, pos, pc_arr, va_page, pa_page, n)
                else:
                    hit_pos = (va_bits[pos] ^ 1) == pa_bits[pos]
                hit = np.zeros(n, dtype=bool)
                hit[pos] = hit_pos
                code = np.where(pred, endorsed,
                                np.where(hit, _IDB, _EA))
            snaps = [(p, idb_snaps[j] if idb_snaps is not None else None)
                     for j, p in enumerate(perc_snaps)]
        self.fast = ((code == _CS) | (code == _IDB)).astype(np.uint8)
        self.extra = (code == _EA).astype(np.uint8)
        self.snaps = snaps
        self.code = code.astype(np.int8)
        self.via = via
        self.correct = correct
        # NAIVE/COMBINED probe on every access; BYPASS only on an
        # endorsed speculation (outcomes CS or EA).
        self.probes_all = not shim._is_bypass
        self._mark_end(n)

    def _snap(self) -> tuple:
        return _snap_spec(self.shim.perceptron, self.shim.idb)

    def _load(self, snap) -> None:
        perc_snap, idb_snap = snap
        shim = self.shim
        if perc_snap is not None:
            load_rows(shim.perceptron._weights, perc_snap[0])
            shim.perceptron._history[:] = perc_snap[1]
        if idb_snap is not None:
            shim.idb._deltas[:] = idb_snap[0]
            shim.idb._last_page[:] = idb_snap[1]

    def _replay(self, start: int, stop: int) -> None:
        if self.stateless:
            return
        speculate = SiptL1Cache._speculate
        shim = self.shim
        for pc, va, pa in zip(self.pc[start:stop], self.va[start:stop],
                              self.pa[start:stop]):
            speculate(shim, pc, va, pa)

    def copy_into(self, perceptron, idb) -> None:
        """Copy shim predictor state onto the live predictors."""
        shim = self.shim
        if perceptron is not None:
            load_rows(perceptron._weights, shim.perceptron._weights)
            perceptron._history[:] = shim.perceptron._history
        if idb is not None:
            idb._deltas[:] = shim.idb._deltas
            idb._last_page[:] = shim.idb._last_page


# ----------------------------------------------------------------------
# compiled miss path (L2 -> LLC -> DRAM below the L1)
# ----------------------------------------------------------------------

#: Flat counter layout for the compiled miss path. Deltas accumulate
#: in one plain list between flushes instead of attribute round-trips
#: per miss, and only the irreducible counts are maintained on the hot
#: path — everything implied by an invariant is derived at flush time:
#: hierarchy accesses pair 1:1 with level accesses, every level access
#: is a hit or a miss, every miss fills, every DRAM tick is a row hit
#: or a row miss, and every write-back drained to DRAM is a DRAM
#: write. Hit counts split by site (demand vs insert) because the
#: hierarchy attributes hits only to demand accesses while the level
#: counts both.
_MP_SLOTS = 13
# c[0]  L2 accesses            c[5]  LLC accesses
# c[1]  L2 demand hits         c[6]  LLC demand hits
# c[2]  L2 insert hits         c[7]  LLC insert hits
# c[3]  L2 evictions           c[8]  LLC evictions
# c[4]  L2 writebacks          c[9]  LLC writebacks
# c[10] DRAM reads             c[11] DRAM writes
# c[12] DRAM row misses


def _emit_cache(out, ind, sfx, pfx, acc_c, hit_c, evic_c, wb_c, pa,
                write, hit_lines, miss_lines) -> None:
    """Append source for one inlined ``SetAssociativeCache`` access.

    Mirrors ``access``/``_fill`` exactly — probe, LRU touch with the
    MRU early-exit, free-way fill (the where-dict holds exactly the
    occupied ways, so its size distinguishes free-way from eviction
    without scanning), LRU victim with dirty write-back — over the
    ``{pfx}_*`` container bindings. ``acc_c``/``hit_c``/``evic_c``/
    ``wb_c`` are the counter slots this site maintains; misses and
    fills are derived at flush. ``sfx`` uniquifies the locals so sites
    can nest; ``hit_lines`` run after the hit path's LRU/dirty update,
    and ``miss_lines`` after the fill, with ``spill{sfx}`` holding the
    dirty victim's line address or -1.
    """
    a = ind
    out += [
        f"{a}c[{acc_c}] += 1",
        f"{a}line{sfx} = ({pa}) >> {pfx}_shift",
        f"{a}sidx{sfx} = line{sfx} & {pfx}_mask",
        f"{a}w{sfx} = {pfx}_where[sidx{sfx}]",
        f"{a}way{sfx} = w{sfx}.get(line{sfx}, -1)",
        f"{a}st{sfx} = {pfx}_stacks[sidx{sfx}]",
        f"{a}d{sfx} = {pfx}_dirty[sidx{sfx}]",
        f"{a}if way{sfx} >= 0:",
        f"{a}    c[{hit_c}] += 1",
        f"{a}    if st{sfx}[0] != way{sfx}:",
        f"{a}        st{sfx}.remove(way{sfx})",
        f"{a}        st{sfx}.insert(0, way{sfx})",
        f"{a}    if {write}:",
        f"{a}        d{sfx}[way{sfx}] = True",
        *hit_lines,
        f"{a}else:",
        f"{a}    row{sfx} = {pfx}_tags[sidx{sfx}]",
        f"{a}    if len(w{sfx}) < {pfx}_ways:",
        f"{a}        way{sfx} = row{sfx}.index(-1)",
        f"{a}        spill{sfx} = -1",
        f"{a}    else:",
        f"{a}        way{sfx} = st{sfx}[-1]",
        f"{a}        victim{sfx} = row{sfx}[way{sfx}]",
        f"{a}        spill{sfx} = (victim{sfx} if d{sfx}[way{sfx}]"
        f" else -1)",
        f"{a}        c[{evic_c}] += 1",
        f"{a}        if spill{sfx} >= 0:",
        f"{a}            c[{wb_c}] += 1",
        f"{a}        del w{sfx}[victim{sfx}]",
        f"{a}    row{sfx}[way{sfx}] = line{sfx}",
        f"{a}    w{sfx}[line{sfx}] = way{sfx}",
        f"{a}    d{sfx}[way{sfx}] = {write}",
        f"{a}    if st{sfx}[0] != way{sfx}:",
        f"{a}        st{sfx}.remove(way{sfx})",
        f"{a}        st{sfx}.insert(0, way{sfx})",
        *miss_lines,
    ]


def _emit_dram(out, ind, sfx, pa) -> None:
    """Append source for one inlined ``DramModel._access`` tick.

    Leaves the access latency in ``lat{sfx}``. ``_last_bank`` is a
    reassigned attribute, not a mutated container, so it round-trips
    through the instance every tick — a live walker's or a graduated
    multicore core's python DRAM accesses interleave with these.
    """
    a = ind
    out += [
        f"{a}block{sfx} = ({pa}) // row_bytes",
        f"{a}channel{sfx} = block{sfx} % n_channels",
        f"{a}block{sfx} //= n_channels",
        f"{a}bank{sfx} = block{sfx} % n_banks",
        f"{a}row{sfx} = block{sfx} // n_banks",
        f"{a}rows{sfx} = open_rows[channel{sfx}]",
        f"{a}open_row{sfx} = rows{sfx}[bank{sfx}]",
        f"{a}lat{sfx} = cas",
        f"{a}if open_row{sfx} != row{sfx}:",
        f"{a}    c[12] += 1",
        f"{a}    lat{sfx} += rcd",
        f"{a}    if open_row{sfx} != -1:",
        f"{a}        lat{sfx} += rp",
        f"{a}    rows{sfx}[bank{sfx}] = row{sfx}",
        f"{a}last{sfx} = dram._last_bank",
        f"{a}if last{sfx}[0] == channel{sfx} and "
        f"last{sfx}[1] == bank{sfx}:",
        f"{a}    lat{sfx} += queue",
        f"{a}dram._last_bank = (channel{sfx}, bank{sfx})",
    ]


def _emit_dram_spill(ind, sfx, spill_var) -> list:
    """Lines draining a dirty LLC victim to DRAM (latency discarded)."""
    lines = [f"{ind}if {spill_var} >= 0:",
             f"{ind}    c[11] += 1"]
    _emit_dram(lines, ind + "    ", sfx, f"{spill_var} << llc_shift")
    return lines


def _miss_path_source(has_l2: bool) -> str:
    """Source of the ``_make`` factory for one miss-path shape.

    The factory takes the counter list and every live container as
    arguments (closure cells, not globals, in the generated functions)
    and returns ``(miss_access, miss_writeback)`` with the whole
    L2 -> LLC -> DRAM walk inlined — no per-level calls on the
    per-miss path.
    """
    I1 = "    "
    I2 = I1 * 2
    I3 = I1 * 3
    out = ["def _make(c, dram, open_rows, row_bytes, n_channels,",
           "          n_banks, cas, rcd, rp, queue, llc_where,",
           "          llc_tags, llc_dirty, llc_stacks, llc_shift,",
           "          llc_mask, llc_ways, llc_latency" +
           ("," if has_l2 else "):")]
    if has_l2:
        out.append("          l2_where, l2_tags, l2_dirty, l2_stacks,")
        out.append("          l2_shift, l2_mask, l2_ways, l2_latency):")
    out.append(I1 + "def miss_access(pa, is_write):")
    if has_l2:
        _emit_cache(out, I2, "_a", "l2", 0, 1, 3, 4, "pa", "is_write",
                    [I3 + "return l2_latency"], [])
        # CacheHierarchy._writeback_to_llc: the L2's dirty victim is
        # inserted into the LLC as a write before the demand access.
        out.append(I2 + "if spill_a >= 0:")
        _emit_cache(out, I3, "_b", "llc", 5, 7, 8, 9,
                    "spill_a << l2_shift", "True", [],
                    _emit_dram_spill(I3 + I1, "_bw", "spill_b"))
        _emit_cache(out, I2, "_c", "llc", 5, 6, 8, 9, "pa", "is_write",
                    [I3 + "return l2_latency + llc_latency"],
                    _emit_dram_spill(I3, "_cw", "spill_c"))
        out.append(I2 + "c[10] += 1")
        _emit_dram(out, I2, "_rd", "pa")
        out.append(I2 + "return l2_latency + llc_latency + lat_rd")
    else:
        _emit_cache(out, I2, "_a", "llc", 5, 6, 8, 9, "pa", "is_write",
                    [I3 + "return llc_latency"],
                    _emit_dram_spill(I3, "_aw", "spill_a"))
        out.append(I2 + "c[10] += 1")
        _emit_dram(out, I2, "_rd", "pa")
        out.append(I2 + "return llc_latency + lat_rd")
    out.append(I1 + "def miss_writeback(line_address, line_shift):")
    if has_l2:
        wb_tail = [I3 + "if spill_d >= 0:"]
        _emit_cache(wb_tail, I3 + I1, "_e", "llc", 5, 7, 8, 9,
                    "spill_d << l2_shift", "True", [],
                    _emit_dram_spill(I3 + I1 + I1, "_ew", "spill_e"))
        _emit_cache(out, I2, "_d", "l2", 0, 2, 3, 4,
                    "line_address << line_shift", "True", [], wb_tail)
    else:
        _emit_cache(out, I2, "_d", "llc", 5, 7, 8, 9,
                    "line_address << line_shift", "True", [],
                    _emit_dram_spill(I3, "_dw", "spill_d"))
    out.append(I1 + "return miss_access, miss_writeback")
    return "\n".join(out)


_MISS_MAKE_CACHE: dict = {}


def _compile_miss_path(mp):
    """Compiled functions for the L2 -> LLC -> DRAM miss path.

    Returns ``(miss_access, miss_writeback, flush)`` mirroring
    ``CacheHierarchy.access``/``writeback`` operation-for-operation, or
    ``None`` when the hierarchy declines to export its containers
    (:meth:`~repro.cache.hierarchy.CacheHierarchy.kernel_export`:
    subclassed hierarchy, cache, policy, or DRAM model — the engine
    then keeps the live python methods). The two functions are
    generated (:func:`_miss_path_source`) with every level inlined —
    probe, LRU, write-back cascades, DRAM row-buffer timing, no
    per-level calls. All structural mutations go to the live per-set
    arrays and row buffers in the oracle's exact order — the compiled
    walk's loads (:func:`_compile_walk`) share these functions, and a
    live walker's accesses or a mid-run python fallback stay coherent
    — while stats deltas accumulate in a flat counter
    list (:data:`_MP_SLOTS` layout) that ``flush()`` folds into the
    live stats objects at chunk boundaries.
    """
    exp = mp.kernel_export()
    if exp is None:
        return None
    l2 = exp["l2"]
    has_l2 = l2 is not None
    make = _MISS_MAKE_CACHE.get(has_l2)
    if make is None:
        namespace: dict = {}
        exec(_miss_path_source(has_l2), namespace)  # noqa: S102
        make = _MISS_MAKE_CACHE[has_l2] = namespace["_make"]
    c = [0] * _MP_SLOTS
    dram = exp["dram"]
    llc = exp["llc"]
    args = [c, dram, dram._open_rows, dram.row_bytes, dram.n_channels,
            dram.n_banks, dram.cas_cycles, dram.rcd_cycles,
            dram.rp_cycles, dram.queue_cycles,
            llc._where, llc._tags, llc._dirty, llc.policy._stacks,
            llc.line_shift, llc.index_mask, llc.n_ways,
            exp["llc_latency"]]
    if has_l2:
        args += [l2._where, l2._tags, l2._dirty, l2.policy._stacks,
                 l2.line_shift, l2.index_mask, l2.n_ways,
                 exp["l2_latency"]]
    miss_access, miss_writeback = make(*args)

    mstats = exp["stats"]
    l2_stats = l2.stats if l2 is not None else None
    llc_stats = llc.stats
    dram_stats = dram.stats

    def flush():
        # Derived at fold time (see the layout comment): level hits
        # are demand + insert hits, misses are accesses - hits, every
        # miss fills, the hierarchy's demand counters pair 1:1 with
        # the level/DRAM ones, and row hits are ticks - row misses.
        mstats.l2_accesses += c[0]
        mstats.l2_hits += c[1]
        mstats.llc_accesses += c[5]
        mstats.llc_hits += c[6]
        mstats.dram_accesses += c[10]
        mstats.writebacks_to_dram += c[11]
        if l2_stats is not None:
            hit = c[1] + c[2]
            miss = c[0] - hit
            l2_stats.accesses += c[0]
            l2_stats.hits += hit
            l2_stats.misses += miss
            l2_stats.evictions += c[3]
            l2_stats.writebacks += c[4]
            l2_stats.fills += miss
        hit = c[6] + c[7]
        miss = c[5] - hit
        llc_stats.accesses += c[5]
        llc_stats.hits += hit
        llc_stats.misses += miss
        llc_stats.evictions += c[8]
        llc_stats.writebacks += c[9]
        llc_stats.fills += miss
        dram_stats.reads += c[10]
        dram_stats.writes += c[11]
        dram_stats.row_hits += c[10] + c[11] - c[12]
        dram_stats.row_misses += c[12]
        for i in range(_MP_SLOTS):
            c[i] = 0

    return miss_access, miss_writeback, flush


# ----------------------------------------------------------------------
# compiled page walk (PageWalker over the compiled miss path)
# ----------------------------------------------------------------------

def _compile_walk(walker: PageWalker, miss_access: Callable) -> tuple:
    """A ``PageWalker.walk`` mirror whose loads take the compiled path.

    Same PWC probe order (PD, PDPT, PML4 prefixes), LRU refresh and
    FIFO-bounded fills, the same ``WalkerStats`` updates, and the same
    per-level latency sum — but each page-table load is
    ``miss_access(pa, False)`` on the compiled miss path (whose stats
    deltas fold at chunk flush) instead of the walker's callback into
    ``CacheHierarchy.access``. The PWC runs on an ``OrderedDict`` with
    the live ``_pwc`` list's order (hash probes in place of list
    scans, which cost more than a walk's loads): ``pull()`` loads it
    from the list before a replayed range, ``push()`` writes it back
    at the range's flush. Returns ``(walk, (pull, push))``.
    """
    pwc = walker._pwc
    lru: OrderedDict = OrderedDict()
    refresh = lru.move_to_end
    evict = lru.popitem
    stats = walker.stats
    cap = walker.pwc_entries
    cost = walker.level_cost
    probes = [(level, _LEVEL_SHIFTS[level]) for level in (2, 1, 0)]
    levels = list(enumerate(_LEVEL_SHIFTS))

    def walk(va, asid=0):
        stats.walks += 1
        start = 0
        for level, shift in probes:
            key = (level, va >> shift, asid)
            if key in lru:
                refresh(key)
                stats.pwc_hits += 1
                start = level + 1
                break
        latency = 0
        salt = asid << 7
        for level, shift in levels[start:]:
            stats.levels_walked += 1
            latency += cost
            prefix = va >> shift
            latency += miss_access(
                PAGE_TABLE_REGION
                + (((prefix * 0x9E3779B1) ^ salt) % (1 << 28)) * 8, False)
            if level < 3 and cap:
                key = (level, prefix, asid)
                if key not in lru:
                    lru[key] = None
                    if len(lru) > cap:
                        evict(last=False)
        return latency

    def pull():
        lru.clear()
        lru.update(dict.fromkeys(pwc))

    def push():
        pwc[:] = lru

    return walk, (pull, push)


def _walk_fn(ctx, mp) -> tuple:
    """The ``(va, asid) -> cycles`` walk the replay residues call.

    Shared by :class:`KernelEngine` and :class:`_McCore`. A walker that
    is exactly :class:`PageWalker` and still reads through the
    context's own miss path (its callback *is* the one
    ``driver._attach_walker`` returned) walks via
    :func:`_compile_walk` on the compiled miss path ``mp``; any other
    walker keeps its live ``walk``, and a walker-less TLB costs the
    fixed ``walk_latency``. Returns ``(walk, sync)``: ``sync`` is the
    compiled walk's ``(pull, push)`` PWC sync pair, else ``None``.
    """
    tlb = ctx.l1.tlb
    walker = tlb.walker
    if walker is None:
        fixed = tlb.walk_latency
        return (lambda va, asid: fixed), None
    if (mp is None or type(walker) is not PageWalker
            or walker.memory_access is not ctx._walker_load):
        return walker.walk, None
    return _compile_walk(walker, mp[0])


# ----------------------------------------------------------------------
# the serial-residue loop, specialized per (core model, way prediction)
# ----------------------------------------------------------------------

#: Lines prefixed {OOO}/{INO}/{ANA}/{DET}/{WP}/{NOWP} are kept only
#: for the matching specialization: {OOO}/{INO} are the analytic
#: cores' stall arithmetic, {ANA} is shared by both analytic kinds,
#: and {DET} keeps the detailed core's live ``retire``/
#: ``memory_access`` calls in the loop (its issue/retire recurrence is
#: real state, not foldable arithmetic — the ``gapw`` column then
#: carries raw instruction gaps, not width-scaled floats). Core
#: constants are literals, mirrored from OooCore/InOrderCore (the
#: engine gate requires those exact types): PIPELINE_HIDE=2.0,
#: NEAR_LATENCY=16, dep factors 0.22/0.08/0.02 at thresholds 2/8,
#: L2_CLASS_EXPOSURE=0.45 (every dep factor is below it, so the
#: oracle's max() is the constant), ROB absorb 0.4 and floor 0.04;
#: in-order STORE_STALL_FRACTION=0.3 past 4 cycles, HIT_EXPOSURE=0.4
#: at latency<=8, MISS_EXPOSURE=1.0.
_LOOP_TEMPLATE = """\
def _loop(rows, walks, walk_i, walker_walk, walk_base, asid, hit_lat,
          wheres, stacks, dirty, tags, n_ways, miss_access,
          miss_writeback, line_shift, wp_penalty, mlp, rob_half,
          inv_w, width, cyc, ld_stall, st_stall, retire,
          memory_access):
    hits = 0
    evics = 0
    l1_wb = 0
    wp_pred = 0
    wp_corr = 0
    wp_sec = 0
    for gapw, is_write, dep, pa, line, sidx, lat, fast in rows:
{DET}        retire(gapw)
        if lat < 0:
            ev = walks[walk_i]
            walk_i += 1
            t = walk_base + walker_walk(ev[0], asid)
            lat = ((hit_lat if hit_lat > t else t) if fast
                   else t + hit_lat)
            lat += ev[1]
{WP}        st = stacks[sidx]
{WP}        predicted = st[0] if fast else -1
        w = wheres[sidx]
        way = w.get(line, -1)
        if way >= 0:
            hits += 1
{NOWP}            st = stacks[sidx]
            if st[0] != way:
                st.remove(way)
                st.insert(0, way)
            if is_write:
                dirty[sidx][way] = 1
{WP}            if predicted >= 0:
{WP}                wp_pred += 1
{WP}                if predicted == way:
{WP}                    wp_corr += 1
{WP}                else:
{WP}                    wp_sec += 1
{WP}                    lat += wp_penalty
        else:
            # Inline SetAssociativeCache._fill over the live arrays
            # (free-way scan, LRU victim, dirty write-back), with the
            # eviction/writeback/fill counts delta-folded at flush.
            # The where-dict holds exactly the occupied ways, so its
            # size tells free-way vs eviction without scanning.
            row = tags[sidx]
{NOWP}            st = stacks[sidx]
            drow = dirty[sidx]
            if len(w) < n_ways:
                fway = row.index(-1)
                wb = -1
            else:
                fway = st[-1]
                victim = row[fway]
                if drow[fway]:
                    wb = victim
                    l1_wb += 1
                else:
                    wb = -1
                evics += 1
                del w[victim]
            row[fway] = line
            w[line] = fway
            drow[fway] = is_write
            if st[0] != fway:
                st.remove(fway)
                st.insert(0, fway)
            lat += miss_access(pa, is_write)
            if wb >= 0:
                miss_writeback(wb, line_shift)
{ANA}        cyc += gapw
{ANA}        cyc += inv_w
{OOO}        if not is_write and lat > 2.0:
{OOO}            exposed = lat - 2.0
{OOO}            if lat <= 8:
{OOO}                stall = exposed * (0.22 if dep <= 2 else
{OOO}                                   (0.08 if dep <= 8 else 0.02))
{OOO}            elif lat <= 16:
{OOO}                stall = exposed * 0.45
{OOO}            else:
{OOO}                per_miss = exposed / mlp
{OOO}                absorbed = (per_miss if per_miss <= rob_half
{OOO}                            else rob_half)
{OOO}                a = per_miss - absorbed * 0.4
{OOO}                b = exposed * 0.04
{OOO}                stall = a if a >= b else b
{OOO}            ld_stall += stall
{OOO}            cyc += stall
{INO}        if is_write:
{INO}            v = (lat - 4) * 0.3
{INO}            exposed = v if v > 0.0 else 0.0
{INO}            st_stall += exposed
{INO}            cyc += exposed
{INO}        else:
{INO}            v = lat - 1.0 - dep / width
{INO}            exposed = (v if v > 0.0 else 0.0) * (0.4 if lat <= 8
{INO}                                                 else 1.0)
{INO}            ld_stall += exposed
{INO}            cyc += exposed
{DET}        memory_access(lat, is_write, dep)
    return (cyc, ld_stall, st_stall, hits, evics, l1_wb,
            wp_pred, wp_corr, wp_sec, walk_i)
"""

_LOOP_CACHE: dict = {}


def _compile_loop(kind: str, way_pred: bool) -> Callable:
    """The residue loop for one (core-kind, way-prediction) pair.

    ``kind`` is ``"ooo"``/``"ino"`` (analytic stall arithmetic inlined
    as literals) or ``"det"`` (the detailed core runs live inside the
    loop; translation, speculation, latency, and the L1 arrays still
    come from the precomputed streams).
    """
    key = (kind, way_pred)
    fn = _LOOP_CACHE.get(key)
    if fn is None:
        lines = []
        for line in _LOOP_TEMPLATE.splitlines():
            for marker, keep in (("{OOO}", kind == "ooo"),
                                 ("{INO}", kind == "ino"),
                                 ("{ANA}", kind != "det"),
                                 ("{DET}", kind == "det"),
                                 ("{WP}", way_pred),
                                 ("{NOWP}", not way_pred)):
                if line.startswith(marker):
                    line = line[len(marker):] if keep else None
                    break
            if line is not None:
                lines.append(line)
        namespace: dict = {}
        exec("\n".join(lines), namespace)  # noqa: S102 — own template
        fn = namespace["_loop"]
        _LOOP_CACHE[key] = fn
    return fn


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------

class KernelEngine:
    """Replays ranges of one context's trace via precomputed streams.

    Drop-in for ``driver._replay_range`` (same ``(ctx, start, end)``
    signature via :meth:`replay`). Built by :func:`make_engine`; holds
    the oracle callable and delegates to it permanently after any
    verification failure, reproducing the oracle's behaviour —
    including its exceptions — byte-for-byte.
    """

    def __init__(self, ctx, oracle, streams):
        self._ctx = ctx
        self._oracle = oracle
        self._tlb_stream = streams.ts
        self._spec_stream = streams.ss
        # columns: (gap, is_write, dep, pa, line, sidx, lat, fast) —
        # gap is width-scaled floats for the analytic cores, raw
        # instruction counts for the detailed core's live retire().
        self._row_cursor = RowCursor(streams.columns)
        self._walk_events = streams.walk_events
        self._walk_pos = streams.walk_pos
        self._conflict = streams.conflict
        self._extra = streams.extra
        self._mp = streams.mp
        self._walk, self._walk_sync = _walk_fn(ctx, streams.mp)
        self._detailed = streams.kind == "det"
        l1 = ctx.l1
        self._loop = _compile_loop(streams.kind,
                                   l1.way_predictor is not None)
        self._l1 = l1
        self._cache = l1.cache
        self._tlb = l1.tlb
        self._core = ctx.core
        self._synced: Optional[int] = None
        self._fallback = False

    # -- public protocol -------------------------------------------------
    def replay(self, ctx, start: int, end: int) -> None:
        """Replay accesses ``[start, end)``, chaining like the oracle."""
        if self._fallback:
            self._oracle(ctx, start, end)
            return
        if start != self._synced and not _state_matches(
                self._ctx, self._tlb_stream, self._spec_stream,
                self._extra, start):
            self._fallback = True
            self._oracle(ctx, start, end)
            return
        if end > start:
            self._run(start, end)
        self._synced = end

    # -- hot path --------------------------------------------------------
    def _run(self, start: int, end: int) -> None:
        ctx = self._ctx
        cache = self._cache
        core = self._core
        cursor = self._row_cursor
        rows = cursor.rows(start, end)
        if self._walk_sync is not None:
            self._walk_sync[0]()
        tlb = self._tlb
        walk_base = tlb.l1_latency + tlb.l2_latency
        wp = self._l1.way_predictor
        stats = core.stats
        if type(core) is OooCore:
            mlp = core.mlp
            rob_half = core._rob_cover * 0.5
        else:
            mlp = 1.0
            rob_half = 0.0
        mp = self._mp
        if mp is not None:
            miss_access, miss_writeback = mp[0], mp[1]
        else:
            miss_access = ctx._miss_access
            miss_writeback = ctx._miss_writeback
        (cyc, ld_stall, st_stall, hits, evics, l1_wb,
         wp_pred, wp_corr, wp_sec, _walk_i) = self._loop(
            rows,
            self._walk_events, bisect_left(self._walk_pos, start),
            self._walk, walk_base, ctx._page_table.asid,
            self._l1.hit_latency,
            cache._where, cache.policy._stacks, cache._dirty,
            cache._tags, cache.n_ways, miss_access, miss_writeback,
            ctx._line_shift,
            wp.mispredict_penalty if wp is not None else 0,
            mlp, rob_half, 1.0 / core.width, core.width,
            stats.cycles, stats.load_stall_cycles,
            stats.store_stall_cycles, ctx._retire, ctx._memory_access)
        if not self._detailed:
            # The detailed core updated its own stats live inside the
            # loop; the analytic cores' arithmetic ran on locals.
            stats.cycles = cyc
            stats.load_stall_cycles = ld_stall
            stats.store_stall_cycles = st_stall
        cursor.park(end)
        self._flush(start, end, hits, evics, l1_wb,
                    wp_pred, wp_corr, wp_sec)

    def _flush(self, start: int, end: int, hits: int, evics: int,
               l1_wb: int,
               wp_pred: int, wp_corr: int, wp_sec: int) -> None:
        """Fold the range's counter deltas in and sync structures."""
        if self._mp is not None:
            self._mp[2]()
        if self._walk_sync is not None:
            self._walk_sync[1]()
        # Every L1 miss fills, so the loop doesn't count fills.
        _fold_range(self._ctx, self._tlb_stream, self._spec_stream,
                    self._conflict, self._extra, start, end, hits,
                    wp_pred, wp_corr, wp_sec,
                    evics=evics, l1_wb=l1_wb,
                    fills=(end - start) - hits,
                    fold_instructions=not self._detailed)


def _state_matches(ctx, ts, ss, extra, start: int) -> bool:
    """Does the live context state match the streams at ``start``?

    Checked: TLB structural state, predictor weights/history/deltas,
    and the port-busy flag against the extra-access history. Stats are
    *not* checked — they are carried by the context and the kernel only
    ever adds deltas to them. The live L1 array, miss path, and walker
    are driven directly and carry no precomputed assumption. Used by
    :meth:`KernelEngine.replay` whenever it cannot prove continuity and
    by :func:`run_multicore_kernel` at every core's cold start.
    """
    l1 = ctx.l1
    try:
        if _snap_tlb(l1.tlb) != ts.snap_at(start):
            return False
        if ss is not None and _snap_spec(
                l1.perceptron, l1.idb) != ss.snap_at(start):
            return False
        expect_busy = bool(extra[start - 1]) if start else False
        return bool(ctx._port_busy) == expect_busy
    except Exception:  # noqa: BLE001 — any doubt means oracle
        return False


def _fold_range(ctx, ts, ss, conflict, extra,
                start: int, end: int, hits: int,
                wp_pred: int, wp_corr: int, wp_sec: int,
                evics: int = 0, l1_wb: int = 0, fills: int = 0,
                fold_instructions: bool = True) -> None:
    """Fold a replayed range's counter deltas in and sync structures.

    Shared by :meth:`KernelEngine._flush` (after every chunk) and the
    multicore engine (once per core when its first pass completes).
    The stream-side deltas are counts over the range's slice of the
    per-access columns (TLB class, outcome code, IDB route, perceptron
    correctness, port conflict, instruction gap).
    ``evics``/``l1_wb``/``fills`` come from the generated loop's
    inlined L1 fill; the multicore residue fills through the live
    ``_fill`` (which counts them itself) and passes zeros.
    ``fold_instructions`` is False when the core model ran live inside
    the loop (the detailed core, and every core under the multicore
    engine) and already counted its own instructions and cycles.
    """
    l1 = ctx.l1
    tlb = l1.tlb
    d = end - start
    tstats = tlb.stats
    tstats.accesses += d
    l1_hits, l2_hits, walks = np.bincount(ts.cls[start:end],
                                          minlength=3).tolist()
    tstats.l1_hits += l1_hits
    tstats.l2_hits += l2_hits
    tstats.walks += walks
    cstats = l1.cache.stats
    cstats.accesses += d
    cstats.hits += hits
    cstats.misses += d - hits
    cstats.evictions += evics
    cstats.writebacks += l1_wb
    cstats.fills += fills
    if fold_instructions:
        ctx.core.stats.instructions += d + int(
            ctx.trace.inst_gap[start:end].sum(dtype=np.int64))
    ctx.port_conflicts += int(np.count_nonzero(conflict[start:end]))
    ctx._port_busy = bool(extra[end - 1])
    sstats = l1.stats
    sstats.accesses += d
    if ss is not None:
        code = ss.code[start:end]
        via = ss.via[start:end]
        _, cs, cb, ol, ea, idb_hits = np.bincount(
            code, minlength=6).tolist()
        sstats.fast_accesses += cs + idb_hits
        sstats.slow_accesses += d - cs - idb_hits
        sstats.extra_l1_accesses += ea
        sstats.speculative_probes += d if ss.probes_all else cs + ea
        outcomes = l1.outcomes
        outcomes.correct_speculation += cs
        outcomes.correct_bypass += cb
        outcomes.opportunity_loss += ol
        outcomes.extra_access += ea
        outcomes.idb_hit += idb_hits
        outcomes.extra_access_after_idb += int(
            np.count_nonzero(code[via] == _EA))
        perc = l1.perceptron
        if perc is not None:
            perc.stats.predictions += d
            perc.stats.correct += int(
                np.count_nonzero(ss.correct[start:end]))
        idb = l1.idb
        if idb is not None:
            idb_d = int(np.count_nonzero(via))
            idb.stats.predictions += idb_d
            idb.stats.updates += idb_d
            idb.stats.hits += idb_hits
    elif l1._default_fast:
        sstats.fast_accesses += d
    else:
        sstats.slow_accesses += d
    wp = l1.way_predictor
    if wp is not None:
        wp.stats.predictions += wp_pred
        wp.stats.correct += wp_corr
        wp.stats.second_accesses += wp_sec
    # Structural sync: scratch streams to `end`, then copy onto the
    # live objects so state_dict()/checkpoints see oracle state.
    ts.advance(end)
    _copy_tlb(ts.scratch, tlb)
    if ss is not None and not ss.stateless:
        ss.advance(end)
        ss.copy_into(l1.perceptron, l1.idb)


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------

def make_engine(ctx, oracle) -> Optional[KernelEngine]:
    """Build a :class:`KernelEngine` for ``ctx``, or ``None``.

    ``oracle`` is the pure-python range replayer
    (``driver._replay_range``), kept as the permanent fallback.
    Returns ``None`` — meaning "use the oracle for everything" — for
    configurations the kernel does not model (subclassed cores,
    non-LRU replacement, PC way prediction, page-bound IDB) and for
    any trace whose streams fail to build (e.g. unmapped pages: the
    oracle then raises the same fault the python path would). Every
    ``None`` is counted under its reason in :data:`DECLINES`;
    ``REPRO_KERNEL_DEBUG=1`` re-raises swallowed build exceptions
    instead of declining, for diagnosis.
    """
    try:
        streams = _build_streams(ctx)
        if not isinstance(streams, str):
            return KernelEngine(ctx, oracle, streams)
    except Exception as exc:  # noqa: BLE001 — build failure means oracle
        if os.environ.get("REPRO_KERNEL_DEBUG"):
            raise
        _decline(f"build-error:{type(exc).__name__}")
        return None
    _decline(streams)
    return None


class _Streams:
    """One context's precomputed artifacts, shared by both engines."""

    __slots__ = ("kind", "ts", "ss", "columns", "walk_events",
                 "walk_pos", "conflict", "extra", "mp")


_CORE_KINDS = {OooCore: "ooo", InOrderCore: "ino",
               DetailedOooCore: "det"}


def _build_streams(ctx):
    """Gate a context and build its streams; a str is a decline reason.

    The shared front half of :func:`make_engine` (single-core) and
    :func:`run_multicore_kernel`: the configuration gates with their
    per-reason decline labels, then the memoized column/stream
    construction.
    """
    l1 = ctx.l1
    cache = l1.cache
    tlb = l1.tlb
    core = ctx.core
    kind = _CORE_KINDS.get(type(core))
    if kind is None:
        return "core-type"
    if type(cache.policy) is not LruPolicy:
        return "l1-replacement-policy"
    if type(tlb) is not TlbHierarchy:
        return "tlb-type"
    wp = l1.way_predictor
    if wp is not None and type(wp) is not WayPredictor:
        return "way-predictor-type"
    if l1.idb is not None and l1.idb.page_bound:
        return "idb-page-bound"
    n = ctx._len
    if n == 0:
        return "empty-trace"
    trace = ctx.trace
    page_table = ctx._page_table
    gap_arr = np.asarray(trace.inst_gap, dtype=np.int64)
    if int(gap_arr.min()) < 0:
        return "negative-gap"   # the oracle raises the retire() ValueError
    cols = columns_for(trace)
    memo = cols.kernel_memo()
    asid = page_table.asid

    pa_list = memo.get("pa")
    if pa_list is None:
        pa_list = memo["pa"] = _pa_column(cols, trace).tolist()

    addr_key = ("addr", cache.line_shift, cache.index_mask)
    addr = memo.get(addr_key)
    if addr is None:
        line_arr = _pa_column(cols, trace) >> cache.line_shift
        addr = memo[addr_key] = (line_arr.tolist(),
                                 (line_arr & cache.index_mask).tolist())
    line_list, sidx_list = addr

    tlb_key = ("tlb", asid, tlb.l1_latency, tlb.l2_latency,
               tlb._l1_4k.n_sets, tlb._l1_4k.n_ways,
               tlb._l1_2m.n_sets, tlb._l1_2m.n_ways,
               tlb._l2.n_sets, tlb._l2.n_ways)
    ts = memo.get(tlb_key)
    if ts is None:
        params = dict(
            l1_4k_entries=tlb._l1_4k.n_sets * tlb._l1_4k.n_ways,
            l1_4k_ways=tlb._l1_4k.n_ways,
            l1_2m_entries=tlb._l1_2m.n_sets * tlb._l1_2m.n_ways,
            l1_2m_ways=tlb._l1_2m.n_ways,
            l2_entries=tlb._l2.n_sets * tlb._l2.n_ways,
            l2_ways=tlb._l2.n_ways,
            l1_latency=tlb.l1_latency, l2_latency=tlb.l2_latency,
            walk_latency=tlb.walk_latency)
        ts = memo[tlb_key] = _TlbStream(ctx._va, page_table, params)

    if l1._is_sipt:
        perc = l1.perceptron
        perc_params = ((perc.n_entries, perc.history_length,
                        perc.weight_bits) if perc is not None else None)
        idb = l1.idb
        idb_params = ((idb.n_bits, idb.n_entries)
                      if idb is not None else None)
        spec_key = ("spec", l1.n_spec_bits, l1._is_naive, l1._is_bypass,
                    perc_params, idb_params)
        ss = memo.get(spec_key)
        if ss is None:
            ss = memo[spec_key] = _SpecStream(
                ctx._pc, ctx._va, pa_list,
                (l1.n_spec_bits, l1._is_naive, l1._is_bypass,
                 perc_params, idb_params))
    else:
        spec_key = ("nospec", l1._default_fast)
        ss = None

    if kind == "det":
        # The detailed core issues instructions live inside the loop:
        # the gap column stays raw counts for retire(), and there is
        # no instruction fold.
        gapcol = ctx._gap
    else:
        gapw_key = ("gapw", core.width)
        gapcol = memo.get(gapw_key)
        if gapcol is None:
            width = core.width
            seen: dict = {}
            gapcol = []
            for g in ctx._gap:
                w = seen.get(g)
                if w is None:
                    w = seen[g] = g / width
                gapcol.append(w)
            memo[gapw_key] = gapcol

    lat_key = ("lat", tlb_key, spec_key, l1.hit_latency,
               ctx._conflict_window, ctx._conflict_cycles)
    lat_bundle = memo.get(lat_key)
    if lat_bundle is None:
        cls = ts.cls
        l1l, l2l = tlb.l1_latency, tlb.l2_latency
        tlat = np.where(cls == 0, l1l,
                        np.where(cls == 1, l1l + l2l,
                                 -1)).astype(np.int64)
        if ss is not None:
            fast_arr = ss.fast
            extra_arr = ss.extra
        else:
            fast_arr = np.full(n, 1 if l1._default_fast else 0,
                               dtype=np.uint8)
            extra_arr = np.zeros(n, dtype=np.uint8)
        hit_lat = l1.hit_latency
        base = np.where(fast_arr != 0, np.maximum(hit_lat, tlat),
                        tlat + hit_lat)
        prev_extra = np.empty(n, dtype=np.uint8)
        prev_extra[0] = 0
        prev_extra[1:] = extra_arr[:-1]
        conflict = (prev_extra != 0) & (gap_arr < ctx._conflict_window)
        lat_arr = np.where(
            tlat < 0, -1,
            base + conflict.astype(np.int64) * ctx._conflict_cycles)
        va_list = ctx._va
        walk_events = [(va_list[i],
                        int(conflict[i]) * ctx._conflict_cycles)
                       for i in ts.walk_pos]
        lat_bundle = memo[lat_key] = (
            lat_arr.tolist(), fast_arr.tolist(), walk_events, conflict,
            extra_arr)
    lat_list, fast_list, walk_events, conflict, extra_arr = lat_bundle

    streams = _Streams()
    streams.kind = kind
    streams.ts = ts
    streams.ss = ss
    streams.columns = (gapcol, ctx._is_write, ctx._dep, pa_list,
                       line_list, sidx_list, lat_list, fast_list)
    streams.walk_events = walk_events
    streams.walk_pos = ts.walk_pos
    streams.conflict = conflict
    streams.extra = extra_arr
    streams.mp = _compile_miss_path(ctx.miss_path)
    if streams.mp is None:
        # Not a decline — the engine still runs, servicing misses
        # through the live python hierarchy — but counted so a
        # silently-slower configuration can be diagnosed.
        _decline("miss-path-live")
    return streams


def _pa_column(cols, trace) -> np.ndarray:
    """Per-access physical address: ``ppn`` over ``va``'s page offset.
    Built where a stream needs it and not kept; the memo holds only
    the list form replay indexes."""
    return ((cols.ppn << PAGE_SHIFT)
            | (np.asarray(trace.va, dtype=np.int64) & _PAGE_OFF_MASK))


# ----------------------------------------------------------------------
# multicore engine
# ----------------------------------------------------------------------

class _McCore:
    """One core's stream state inside the multicore engine.

    The multicore residue keeps every core's *model* live
    (``retire``/``memory_access`` — the analytic cores are cheap and
    the detailed one is real recurrence state) and streams everything
    else: precomputed translation/speculation/latency columns, array
    L1 probes, and the compiled miss path over the shared LLC/DRAM
    containers. A core that finishes its first pass is folded (stats
    deltas plus structural sync) and demoted to the oracle's
    ``ctx.step()`` for its recycled passes, so unequal trace lengths
    degrade gracefully instead of declining the whole run.
    """

    __slots__ = ("ctx", "streams", "pos", "n", "walk_i", "hits",
                 "wp_pred", "wp_corr", "wp_sec", "live",
                 "gap", "is_write", "dep", "pa", "line", "sidx",
                 "lat", "fast", "wheres", "stacks", "dirty", "fill",
                 "miss_access", "miss_writeback", "line_shift",
                 "retire", "memory_access", "walker_walk", "walk_sync",
                 "walk_base",
                 "asid", "hit_lat", "wp_on", "wp_penalty")

    def __init__(self, ctx, streams):
        self.ctx = ctx
        self.streams = streams
        self.pos = 0
        self.n = ctx._len
        self.walk_i = 0
        self.hits = 0
        self.wp_pred = 0
        self.wp_corr = 0
        self.wp_sec = 0
        self.live = False
        (_, self.is_write, self.dep, self.pa, self.line,
         self.sidx, self.lat, self.fast) = streams.columns
        self.gap = ctx._gap
        cache = ctx.l1.cache
        self.wheres = cache._where
        self.stacks = cache.policy._stacks
        self.dirty = cache._dirty
        self.fill = cache._fill
        mp = streams.mp
        if mp is not None:
            self.miss_access, self.miss_writeback = mp[0], mp[1]
        else:
            self.miss_access = ctx._miss_access
            self.miss_writeback = ctx._miss_writeback
        self.line_shift = ctx._line_shift
        self.retire = ctx._retire
        self.memory_access = ctx._memory_access
        tlb = ctx.l1.tlb
        self.walker_walk, self.walk_sync = _walk_fn(ctx, mp)
        if self.walk_sync is not None:
            self.walk_sync[0]()
        self.walk_base = tlb.l1_latency + tlb.l2_latency
        self.asid = ctx._page_table.asid
        self.hit_lat = ctx.l1.hit_latency
        wp = ctx.l1.way_predictor
        self.wp_on = wp is not None
        self.wp_penalty = wp.mispredict_penalty if wp is not None else 0

    def step_stream(self) -> None:
        """One access via the streams (mirror of ``_CoreContext.step``)."""
        i = self.pos
        gap = self.gap[i]
        is_write = self.is_write[i]
        self.retire(gap)
        lat = self.lat[i]
        fast = self.fast[i]
        if lat < 0:
            ev = self.streams.walk_events[self.walk_i]
            self.walk_i += 1
            t = self.walk_base + self.walker_walk(ev[0], self.asid)
            hit_lat = self.hit_lat
            lat = ((hit_lat if hit_lat > t else t) if fast
                   else t + hit_lat) + ev[1]
        line = self.line[i]
        sidx = self.sidx[i]
        st = self.stacks[sidx]
        predicted = (st[0] if fast else -1) if self.wp_on else -1
        way = self.wheres[sidx].get(line, -1)
        if way >= 0:
            self.hits += 1
            if st[0] != way:
                st.remove(way)
                st.insert(0, way)
            if is_write:
                self.dirty[sidx][way] = 1
            if predicted >= 0:
                self.wp_pred += 1
                if predicted == way:
                    self.wp_corr += 1
                else:
                    self.wp_sec += 1
                    lat += self.wp_penalty
        else:
            res = self.fill(sidx, line, is_write)
            lat += self.miss_access(self.pa[i], is_write)
            wb = res.writeback_line
            if wb is not None:
                self.miss_writeback(wb, self.line_shift)
        self.memory_access(lat, is_write, self.dep[i])
        self.pos = i + 1
        if self.pos == self.n:
            self._graduate()

    def _graduate(self) -> None:
        """First pass done: fold stats, sync state, go live (step())."""
        s = self.streams
        if s.mp is not None:
            s.mp[2]()
        if self.walk_sync is not None:
            self.walk_sync[1]()
        _fold_range(self.ctx, s.ts, s.ss, s.conflict, s.extra, 0, self.n,
                    self.hits, self.wp_pred, self.wp_corr, self.wp_sec,
                    fold_instructions=False)
        ctx = self.ctx
        ctx.position = 0
        ctx.completed_once = True
        self.live = True


def run_multicore_kernel(contexts: Sequence) -> bool:
    """Drive a whole multicore run through per-core streams.

    Returns True when the run completed — every context then holds its
    finished state, exactly as the oracle loop would have left it —
    and False to decline, in which case nothing was mutated and the
    caller falls back to the oracle loop from cold state. Cores share
    the LLC and DRAM through their compiled miss paths (the same live
    containers), the TLB/speculation streams are per-core (private
    state), and the round-robin interleaving is the oracle's, so
    shared-state evolution is byte-identical. Declines are counted
    under ``multicore:``-prefixed reasons in :data:`DECLINES`.
    """
    cores = []
    try:
        for ctx in contexts:
            streams = _build_streams(ctx)
            if isinstance(streams, str):
                _decline("multicore:" + streams)
                return False
            if not _state_matches(ctx, streams.ts, streams.ss,
                                  streams.extra, 0):
                _decline("multicore:start-state")
                return False
            cores.append(_McCore(ctx, streams))
    except Exception as exc:  # noqa: BLE001 — build failure means oracle
        if os.environ.get("REPRO_KERNEL_DEBUG"):
            raise
        _decline(f"multicore:build-error:{type(exc).__name__}")
        return False
    # Mirror of simulate_multicore's oracle loop: full rounds with the
    # completion check between them, so shared LLC/DRAM state evolves
    # in exactly the oracle's interleaving.
    while not all(ctx.completed_once for ctx in contexts):
        for core in cores:
            if core.live:
                core.ctx.step()
            else:
                core.step_stream()
    return True
