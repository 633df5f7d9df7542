"""Property tests pinning the kernel's precomputed streams to the live models.

``repro.sim.kernel`` builds two per-trace streams before replay: the
TLB classification stream (:class:`~repro.sim.kernel._TlbStream`) and
the speculation-outcome stream (:class:`~repro.sim.kernel._SpecStream`).
Whatever code builds them, every column, every strided snapshot, and
the final structural state must equal what the *live* models produce
when driven one access at a time. The reference loops here do exactly
that: ``TlbHierarchy.translate`` and ``SiptL1Cache._speculate`` on real
instances, per access, snapshotting every :data:`~repro.sim.kernel.
STRIDE` accesses.

The space covers the three SIPT variants, 1-3 speculative bits, the
combined variant with and without an IDB, several perceptron sizings,
walk-heavy (graph500) and same-page-heavy (libquantum) apps, every
:class:`~repro.workloads.trace.MemoryCondition`, and trace lengths
below, at, and between multiples of ``STRIDE``; plus a multicore case
that builds each core's streams from its context over a shared LLC.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.tlb import TlbHierarchy
from repro.core.indexing import SiptVariant
from repro.core.outcomes import SpeculationOutcome
from repro.core.perceptron import PerceptronPredictor
from repro.sim import SIPT_GEOMETRIES, TraceCache, ooo_system
from repro.sim import kernel as kernel_mod
from repro.sim.driver import _build_l1, _CoreContext
from repro.sim.kernel import STRIDE, _snap_spec, _snap_tlb
from repro.workloads.trace import MemoryCondition

CACHE = TraceCache()

_CODE = {
    SpeculationOutcome.CORRECT_SPECULATION: 1,
    SpeculationOutcome.CORRECT_BYPASS: 2,
    SpeculationOutcome.OPPORTUNITY_LOSS: 3,
    SpeculationOutcome.EXTRA_ACCESS: 4,
    SpeculationOutcome.IDB_HIT: 5,
}

#: Geometry per speculative-bit count (capacity / ways / 4 KiB).
_GEOMETRY_FOR_BITS = {1: "32K_4w", 2: "32K_2w", 3: "128K_4w"}

#: Below STRIDE, exactly k * STRIDE, and ragged.
_LENGTHS = [300, STRIDE, 2 * STRIDE, 2 * STRIDE + 517]


def _tlb_params(tlb):
    return dict(
        l1_4k_entries=tlb._l1_4k.n_sets * tlb._l1_4k.n_ways,
        l1_4k_ways=tlb._l1_4k.n_ways,
        l1_2m_entries=tlb._l1_2m.n_sets * tlb._l1_2m.n_ways,
        l1_2m_ways=tlb._l1_2m.n_ways,
        l2_entries=tlb._l2.n_sets * tlb._l2.n_ways,
        l2_ways=tlb._l2.n_ways,
        l1_latency=tlb.l1_latency, l2_latency=tlb.l2_latency,
        walk_latency=tlb.walk_latency)


def _reference_tlb(va, page_table, params):
    """Drive a live hierarchy per access: (cls, snaps, final, pa)."""
    tlb = TlbHierarchy(**params)
    cls = np.empty(len(va), dtype=np.int8)
    pa = []
    snaps = [_snap_tlb(tlb)]
    for i, v in enumerate(va):
        tr = tlb.translate(v, page_table)
        cls[i] = 0 if tr.l1_hit else (2 if tr.walked else 1)
        pa.append(tr.pa)
        if (i + 1) % STRIDE == 0:
            snaps.append(_snap_tlb(tlb))
    return cls, snaps, _snap_tlb(tlb), pa


def _reference_spec(l1, pc, va, pa):
    """Drive a live ``SiptL1Cache._speculate`` per access."""
    n = len(pc)
    fast = np.zeros(n, dtype=np.int64)
    extra = np.zeros(n, dtype=np.int64)
    code = np.zeros(n, dtype=np.int64)
    via = np.zeros(n, dtype=bool)
    correct = np.zeros(n, dtype=bool)
    perc = l1.perceptron
    snaps = [_snap_spec(perc, l1.idb)]
    for i in range(n):
        before = perc.stats.correct if perc is not None else 0
        f, e, outcome, v = l1._speculate(pc[i], va[i], pa[i])
        fast[i], extra[i], code[i], via[i] = f, e, _CODE[outcome], v
        if perc is not None:
            correct[i] = perc.stats.correct > before
        if (i + 1) % STRIDE == 0:
            snaps.append(_snap_spec(perc, l1.idb))
    return (fast, extra, code, via, correct, snaps,
            _snap_spec(perc, l1.idb))


def _check_tlb_stream(ts, va, page_table, params, fresh=True):
    cls, snaps, final, pa = _reference_tlb(va, page_table, params)
    n = len(va)
    assert np.array_equal(ts.cls, cls)
    assert list(ts.walk_pos) == np.nonzero(cls == 2)[0].tolist()
    assert len(ts.snaps) == len(snaps)
    for got, want in zip(ts.snaps, snaps):
        assert got == want
    if fresh:
        # The builder leaves its scratch hierarchy at the end state.
        assert ts.pos == n
        assert _snap_tlb(ts.scratch) == final
    assert ts.snap_at(n) == final
    return pa


def _check_spec_stream(ss, l1, pc, va, pa, fresh=True):
    fast, extra, code, via, correct, snaps, final = _reference_spec(
        l1, pc, va, pa)
    n = len(pc)
    assert np.array_equal(ss.fast, fast)
    assert np.array_equal(ss.extra, extra)
    assert np.array_equal(ss.code, code)
    assert np.array_equal(ss.via, via)
    if l1.perceptron is not None:
        assert np.array_equal(ss.correct, correct)
    else:
        assert ss.correct is None
    assert ss.probes_all == (not l1._is_bypass)
    if not ss.stateless:
        assert len(ss.snaps) == len(snaps)
        for got, want in zip(ss.snaps, snaps):
            assert got == want
        if fresh:
            assert ss.pos == n
            assert _snap_spec(ss.shim.perceptron, ss.shim.idb) == final
    assert ss.snap_at(n) == final


def _shim_args(l1):
    perc = l1.perceptron
    idb = l1.idb
    return (l1.n_spec_bits, l1._is_naive, l1._is_bypass,
            (perc.n_entries, perc.history_length, perc.weight_bits)
            if perc is not None else None,
            (idb.n_bits, idb.n_entries) if idb is not None else None)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["mcf", "graph500", "libquantum", "perlbench",
                        "gamess"]),
       st.sampled_from(list(MemoryCondition)),
       st.sampled_from(_LENGTHS),
       st.sampled_from(["naive", "bypass", "combined",
                        "combined-no-idb"]),
       st.sampled_from([1, 2, 3]),
       st.sampled_from([(64, 12), (16, 5), (8, 1)]),
       st.integers(min_value=0, max_value=STRIDE * 3))
def test_streams_match_live_models(app, condition, n, variant, bits,
                                   perc_shape, probe):
    """Columns, strided snapshots, and end state equal the live models."""
    trace = CACHE.get(app, n, condition=condition)
    cfg = SIPT_GEOMETRIES[_GEOMETRY_FOR_BITS[bits]]
    cfg = replace(cfg, variant={
        "naive": SiptVariant.NAIVE,
        "bypass": SiptVariant.BYPASS,
    }.get(variant, SiptVariant.COMBINED))
    l1 = _build_l1(ooo_system(cfg))
    if l1.perceptron is not None:
        l1.perceptron = PerceptronPredictor(*perc_shape)
        l1._predict_train = l1.perceptron.predict_train
    if variant == "combined-no-idb":
        l1.idb = None
        l1._idb_predict_update = None
    page_table = trace.process.page_table
    va = [int(v) for v in trace.va]
    pc = [int(p) for p in trace.pc]
    params = _tlb_params(l1.tlb)

    ts = kernel_mod._TlbStream(va, page_table, params)
    pa = _check_tlb_stream(ts, va, page_table, params)
    # Reconstruction from the nearest snapshot lands on the same state.
    target = min(probe, n)
    ref = TlbHierarchy(**params)
    for v in va[:target]:
        ref.translate(v, page_table)
    assert ts.snap_at(target) == _snap_tlb(ref)

    ss = kernel_mod._SpecStream(pc, va, pa, _shim_args(l1))
    _check_spec_stream(ss, l1, pc, va, pa)


def test_multicore_streams_match_live_models():
    """Each core's streams, built from its context, match its models."""
    system = ooo_system(SIPT_GEOMETRIES["32K_2w"])
    traces = [CACHE.get("graph500", 2 * STRIDE + 100, seed=1),
              CACHE.get("libquantum", STRIDE, seed=2),
              CACHE.get("mcf", 700, seed=3),
              CACHE.get("perlbench", 1500, seed=4)]
    from repro.cache.set_assoc import SetAssociativeCache
    from repro.timing.dram import DramModel
    llc = SetAssociativeCache(system.llc_capacity * len(traces),
                              system.l1.line_size, system.llc_ways,
                              name="LLC")
    dram = DramModel()
    contexts = [_CoreContext(system, trace, llc, dram) for trace in traces]
    for ctx in contexts:
        streams = kernel_mod._build_streams(ctx)
        assert not isinstance(streams, str), streams
        page_table = ctx._page_table
        params = _tlb_params(ctx.l1.tlb)
        pa = _check_tlb_stream(streams.ts, ctx._va, page_table, params,
                               fresh=False)
        l1 = _build_l1(system)
        _check_spec_stream(streams.ss, l1, ctx._pc, ctx._va, pa,
                           fresh=False)


def test_an_interrupted_advance_leaves_no_stale_position():
    """A cell deadline can stop a memoized stream's advance halfway;
    the next cell sharing the stream must not trust that state."""
    trace = CACHE.get("graph500", 2 * STRIDE + 517)
    l1 = _build_l1(ooo_system(SIPT_GEOMETRIES["32K_2w"]))
    va = [int(v) for v in trace.va]
    ts = kernel_mod._TlbStream(va, trace.process.page_table,
                               _tlb_params(l1.tlb))
    n, mid = len(va), 2 * STRIDE + 10
    want = ts.snap_at(mid)
    replay = ts._replay

    def interrupted(start, stop):
        replay(start, (start + stop) // 2)
        raise KeyboardInterrupt

    ts._replay = interrupted
    try:
        ts.advance(n)
    except KeyboardInterrupt:
        pass
    del ts._replay
    assert ts.snap_at(mid) == want
