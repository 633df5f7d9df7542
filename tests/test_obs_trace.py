"""Tests for the decision-trace ring buffer (``repro.obs.tracelog``).

Contracts: bounded memory (``capacity`` caps the buffer no matter how
long the run), deterministic index-based sampling, non-interference
(the traced range replayer steps one access at a time and must produce
the exact same simulation results as the fused hot loop under the same
chunk scheduler — these tests pin the two together), and a
self-describing JSONL dump.
"""

import json

import pytest

from repro.errors import ConfigError
from repro.obs import DecisionTrace
from repro.obs.tracelog import SCHEMA
from repro.sim import SIPT_GEOMETRIES, ooo_system, simulate
from repro.sim.experiment import SHARED_TRACES
from repro.sim.warmstate import WarmStateCache

APP, N = "mcf", 6000


def _traced_run(trace_buf, app=APP, n=N, interval=None):
    trace = SHARED_TRACES.get(app, n, seed=0)
    return simulate(trace, ooo_system(SIPT_GEOMETRIES["32K_2w"]),
                    interval=interval, decision_trace=trace_buf)


# ---------------------------------------------------------------------
# Construction and bounds
# ---------------------------------------------------------------------

def test_invalid_parameters_rejected():
    with pytest.raises(ConfigError):
        DecisionTrace(capacity=0)
    with pytest.raises(ConfigError):
        DecisionTrace(sample=0)


def test_ring_buffer_bounded():
    buf = DecisionTrace(capacity=100, sample=1)
    _traced_run(buf)
    assert len(buf) == 100                      # capped at capacity
    assert buf.recorded == N                    # but every access seen
    # The ring keeps the most recent records.
    assert buf.to_records()[-1]["index"] == N - 1


def test_sampling_every_kth_access():
    buf = DecisionTrace(capacity=100_000, sample=16)
    _traced_run(buf)
    indices = [r["index"] for r in buf.to_records()]
    assert indices == list(range(0, N, 16))
    assert buf.recorded == len(indices)


def test_records_carry_decision_fields():
    buf = DecisionTrace(capacity=8, sample=1)
    _traced_run(buf)
    record = buf.to_records()[0]
    assert set(record) == {"index", "pc", "va", "outcome", "hit", "fast",
                           "extra_l1_access", "latency", "way_penalty"}
    assert record["outcome"] in ("correct_speculation", "correct_bypass",
                                 "opportunity_loss", "extra_access",
                                 "idb_hit", None)


def test_tail():
    buf = DecisionTrace(capacity=50, sample=1)
    _traced_run(buf)
    tail = buf.tail(5)
    assert len(tail) == 5
    assert tail == buf.to_records()[-5:]
    assert buf.tail(0) == []


# ---------------------------------------------------------------------
# Non-interference: traced replay == fused replay
# ---------------------------------------------------------------------

def test_traced_run_matches_plain_run():
    plain = simulate(SHARED_TRACES.get(APP, N, seed=0),
                     ooo_system(SIPT_GEOMETRIES["32K_2w"]))
    traced = _traced_run(DecisionTrace(capacity=64, sample=32))
    assert traced.ipc == plain.ipc
    assert traced.metrics == plain.metrics


@pytest.mark.parametrize("interval", [2000, 2500])
def test_traced_run_with_intervals(interval):
    # 2500 does not divide N: the trailing partial window must be
    # sampled under tracing exactly as on the fused path.
    buf = DecisionTrace(capacity=64, sample=8)
    result = _traced_run(buf, interval=interval)
    plain = simulate(SHARED_TRACES.get(APP, N, seed=0),
                     ooo_system(SIPT_GEOMETRIES["32K_2w"]),
                     interval=interval)
    assert result.intervals == plain.intervals
    assert len(buf) == 64


def test_kernel_engine_traced_run_matches_python():
    python_buf = DecisionTrace(capacity=100_000, sample=7)
    kernel_buf = DecisionTrace(capacity=100_000, sample=7)
    trace = SHARED_TRACES.get(APP, N, seed=0)
    system = ooo_system(SIPT_GEOMETRIES["32K_2w"])
    python = simulate(trace, system, decision_trace=python_buf)
    kernel = simulate(trace, system, decision_trace=kernel_buf,
                      engine="kernel")
    assert kernel_buf.to_records() == python_buf.to_records()
    assert kernel.ipc == python.ipc
    assert kernel.metrics == python.metrics


# ---------------------------------------------------------------------
# Dispatch rules: tracing vs checkpointing and warm-state reuse
# ---------------------------------------------------------------------

def test_tracing_rejects_checkpoint_and_resume(tmp_path):
    trace = SHARED_TRACES.get(APP, N, seed=0)
    system = ooo_system(SIPT_GEOMETRIES["32K_2w"])
    with pytest.raises(ConfigError, match="decision tracing"):
        simulate(trace, system, decision_trace=DecisionTrace(),
                 checkpoint_every=1000,
                 checkpoint_path=tmp_path / "ckpt.json")
    with pytest.raises(ConfigError, match="decision tracing"):
        simulate(trace, system, decision_trace=DecisionTrace(),
                 resume_checkpoint=tmp_path / "missing.json")


def test_warm_hit_never_bypasses_sampling_or_tracing():
    trace = SHARED_TRACES.get(APP, N, seed=0)
    system = ooo_system(SIPT_GEOMETRIES["32K_2w"])
    cache = WarmStateCache()
    simulate(trace, system, warm_state=cache)
    assert cache.fetch(trace, system) is not None   # primed
    cold = simulate(trace, system, interval=500)
    warm = simulate(trace, system, interval=500, warm_state=cache)
    assert len(cold.intervals) == N // 500
    assert warm.intervals == cold.intervals
    buf = DecisionTrace(capacity=100_000, sample=16)
    simulate(trace, system, decision_trace=buf, warm_state=cache)
    assert [r["index"] for r in buf.to_records()] == list(range(0, N, 16))


def test_same_seed_same_trace():
    first = DecisionTrace(capacity=256, sample=8)
    second = DecisionTrace(capacity=256, sample=8)
    _traced_run(first)
    _traced_run(second)
    assert first.to_records() == second.to_records()


# ---------------------------------------------------------------------
# Summary and JSONL dump
# ---------------------------------------------------------------------

def test_summary_histogram():
    buf = DecisionTrace(capacity=1000, sample=4)
    _traced_run(buf)
    summary = buf.summary()
    assert summary["sample"] == 4
    assert summary["capacity"] == 1000
    assert summary["buffered"] == len(buf)
    assert sum(summary["outcomes"].values()) == summary["buffered"]


def test_write_jsonl(tmp_path):
    buf = DecisionTrace(capacity=32, sample=64)
    _traced_run(buf)
    path = buf.write_jsonl(tmp_path / "trace.jsonl", meta={"app": APP})
    lines = path.read_text().strip().splitlines()
    header = json.loads(lines[0])
    assert header["schema"] == SCHEMA
    assert header["meta"]["app"] == APP
    assert len(lines) == 1 + len(buf)
    assert json.loads(lines[1]) == buf.to_records()[0]
