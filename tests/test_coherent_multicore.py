"""Tests for the coherent shared-memory multicore simulation."""

import pytest

from repro.sim import SIPT_GEOMETRIES, ooo_system, simulate_coherent
from repro.sim.checkpoint import trace_identity
from repro.workloads import SharedWorkload, generate_shared_traces
from repro.workloads.trace import MemoryCondition

N = 2500
SIPT = SIPT_GEOMETRIES["32K_2w"]


def run(kind, **kw):
    workload = SharedWorkload(kind=kind, **kw)
    traces = generate_shared_traces(workload, N, seed=1)
    return simulate_coherent(traces, ooo_system(SIPT))


def test_workload_validation():
    with pytest.raises(ValueError):
        SharedWorkload(kind="pipelined")
    with pytest.raises(ValueError):
        SharedWorkload(kind="contended", shared_frac=1.5)
    with pytest.raises(ValueError):
        SharedWorkload(kind="contended", n_threads=0)
    with pytest.raises(ValueError):
        generate_shared_traces(SharedWorkload(kind="contended"), 0)


def test_threads_share_one_address_space():
    traces = generate_shared_traces(SharedWorkload(kind="partitioned"),
                                    N, seed=0)
    assert len(traces) == 4
    assert all(t.process is traces[0].process for t in traces)
    # Shared VAs appear in more than one thread's stream.
    sets = [set(int(v) >> 12 for v in t.va) for t in traces]
    assert sets[0] & sets[1]


@pytest.mark.parametrize("condition", list(MemoryCondition),
                         ids=lambda c: c.value)
def test_threads_carry_the_requested_condition(condition):
    """The condition label feeds trace identities and store digests, so
    it must name the memory the threads were really built in."""
    traces = generate_shared_traces(SharedWorkload(kind="contended"),
                                    200, condition=condition, seed=0)
    assert {t.condition for t in traces} == {condition}
    assert {trace_identity(t)["condition"] for t in traces} == {
        condition.value}


def test_coherent_run_completes_with_invariants():
    result = run("partitioned")
    assert len(result) == 4
    assert all(core.ipc > 0 for core in result)
    assert result.sum_ipc > 0
    result.bus.check_invariants()  # holds at end of run


def test_contended_generates_coherence_traffic():
    partitioned = run("partitioned")
    contended = run("contended", shared_frac=0.5)
    assert (contended.bus.stats.invalidations_sent
            > 4 * partitioned.bus.stats.invalidations_sent)
    assert contended.bus.stats.interventions > 0


def test_producer_consumer_forwards_dirty_data():
    result = run("producer_consumer", shared_frac=0.4)
    assert result.bus.stats.interventions > 0
    # The producer (core 0) writes; consumers mostly read.
    assert result.cores[0].app.endswith("t0")


def test_true_sharing_costs_throughput_at_equal_footprint():
    """Controlled comparison: same per-thread hot footprint (16 lines),
    same access/write fractions; only the sharing idiom differs.
    Ping-ponging ownership costs both bus traffic and throughput."""
    partitioned = run("partitioned", shared_frac=0.6, write_frac=0.3,
                      shared_bytes=4096)
    contended = run("contended", shared_frac=0.6, write_frac=0.3,
                    hot_lines=16)
    assert (contended.bus.stats.invalidations_sent
            > 3 * max(1, partitioned.bus.stats.invalidations_sent))
    assert contended.sum_ipc < partitioned.sum_ipc


def test_read_only_sharing_is_bus_silent_after_warmup():
    result = run("contended", shared_frac=0.6, write_frac=0.0)
    assert result.bus.stats.invalidations_sent == 0
    assert result.bus.stats.upgrades == 0


def test_sipt_speculation_unaffected_by_sharing():
    """The paper's Section IV claim, executed: speculation accuracy is a
    property of the VA->PA mapping, not of coherence traffic."""
    light = run("partitioned", shared_frac=0.1)
    heavy = run("contended", shared_frac=0.6)
    for result in (light, heavy):
        for core in result:
            # One shared address space, bursty allocation: speculation
            # works exactly as in the single-core runs.
            assert core.fast_fraction > 0.9
    # And no extra invalidations were caused by misspeculation: the
    # invalidation count matches sharing behaviour, not SIPT behaviour.
    assert light.bus.stats.invalidations_sent < \
        heavy.bus.stats.invalidations_sent


def test_empty_traces_rejected():
    with pytest.raises(ValueError):
        simulate_coherent([], ooo_system(SIPT))
