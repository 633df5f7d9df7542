"""Tests for the experiment harness (trace cache, env sizing)."""

import os

import pytest

from repro.sim import BASELINE_L1, TraceCache, default_accesses, ooo_system
from repro.sim.experiment import run_app
from repro.workloads import MemoryCondition


def test_default_accesses_env_override(monkeypatch):
    monkeypatch.delenv("REPRO_ACCESSES", raising=False)
    assert default_accesses() == 50000
    monkeypatch.setenv("REPRO_ACCESSES", "1234")
    assert default_accesses() == 1234


def test_trace_cache_memoizes():
    cache = TraceCache()
    a = cache.get("povray", 1000)
    b = cache.get("povray", 1000)
    assert a is b
    c = cache.get("povray", 1000, seed=1)
    assert c is not a
    d = cache.get("povray", 1000, condition=MemoryCondition.THP_OFF)
    assert d is not a


def test_trace_cache_clear():
    cache = TraceCache()
    a = cache.get("povray", 1000)
    cache.clear()
    assert cache.get("povray", 1000) is not a


def test_run_app_uses_provided_cache():
    cache = TraceCache()
    run_app("povray", ooo_system(BASELINE_L1), n_accesses=1000,
            cache=cache)
    assert cache.get("povray", 1000) is not None
    assert len(cache._traces) == 1
