"""Shared-memory multithreaded workload synthesis.

The paper evaluates SIPT on multiprogrammed quad cores ("there is no
sharing and no contention in this multiprogrammed environment",
Section VI-B) and argues separately that SIPT is coherence-safe
(Section IV). This module provides the workloads to exercise the
*shared* case the paper reasons about but does not simulate: threads of
one process with private data plus a shared segment, in three sharing
idioms:

* ``partitioned``       threads mostly touch disjoint slices of the
  shared data (data-parallel loops); little coherence traffic.
* ``producer_consumer`` a hot exchange buffer written by one thread and
  read by the others; lines migrate and ping-pong.
* ``contended``         all threads read *and* write a small hot region
  (locks, shared counters); heavy invalidation traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..mem.address import PAGE_SIZE
from ..mem.address_space import PhysicalMemory, Process
from .trace import DEFAULT_PHYS_BYTES, MemoryCondition, Trace, \
    _condition_memory, stable_hash

SHARING_KINDS = ("partitioned", "producer_consumer", "contended")


@dataclass(frozen=True)
class SharedWorkload:
    """Shape of one multithreaded workload."""

    kind: str                       # one of SHARING_KINDS
    n_threads: int = 4
    shared_bytes: int = 256 * 1024
    private_bytes: int = 2 * 1024 * 1024
    shared_frac: float = 0.3        # accesses targeting shared data
    write_frac: float = 0.3
    hot_lines: int = 16             # contended hot region, in lines

    def __post_init__(self):
        if self.kind not in SHARING_KINDS:
            raise ValueError(f"kind must be one of {SHARING_KINDS}")
        if not 0 <= self.shared_frac <= 1:
            raise ValueError("shared_frac must be in [0, 1]")
        if self.n_threads < 1:
            raise ValueError("need at least one thread")


def generate_shared_traces(workload: SharedWorkload, n_accesses: int,
                           condition: MemoryCondition = MemoryCondition.NORMAL,
                           seed: int = 0,
                           phys_bytes: int = DEFAULT_PHYS_BYTES
                           ) -> List[Trace]:
    """One trace per thread, all over a single shared address space."""
    if n_accesses <= 0:
        raise ValueError("n_accesses must be positive")
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, stable_hash(workload.kind)]))
    memory = _condition_memory(condition, phys_bytes, rng)
    process = Process(memory, asid=1)
    shared = process.mmap(workload.shared_bytes, thp_eligible=False,
                          align=PAGE_SIZE)
    process.populate(shared)
    privates = []
    for _ in range(workload.n_threads):
        region = process.mmap(workload.private_bytes, thp_eligible=False,
                              align=PAGE_SIZE)
        process.populate(region)
        privates.append(region)

    traces = []
    for thread in range(workload.n_threads):
        traces.append(_thread_trace(workload, thread, shared,
                                    privates[thread], process,
                                    n_accesses, condition, rng))
    return traces


def _shared_offset(workload: SharedWorkload, thread: int,
                   rng: np.random.Generator) -> int:
    """One shared-data offset according to the sharing idiom."""
    if workload.kind == "partitioned":
        slice_bytes = workload.shared_bytes // workload.n_threads
        base = thread * slice_bytes
        # Mostly the thread's slice, with occasional boundary crossing.
        if rng.random() < 0.9:
            return base + int(rng.integers(slice_bytes)) & ~0x7
        return int(rng.integers(workload.shared_bytes)) & ~0x7
    if workload.kind == "producer_consumer":
        # A hot exchange buffer at the start of the segment.
        buffer_bytes = workload.hot_lines * 64
        return int(rng.integers(buffer_bytes)) & ~0x7
    # contended: a tiny hot region everyone hammers.
    return int(rng.integers(workload.hot_lines * 64)) & ~0x7


def _is_shared_write(workload: SharedWorkload, thread: int,
                     rng: np.random.Generator) -> bool:
    if workload.kind == "producer_consumer":
        # Thread 0 produces (mostly writes); the rest consume (read).
        return (rng.random() < 0.8) if thread == 0 else \
            (rng.random() < 0.02)
    return rng.random() < workload.write_frac


def _thread_trace(workload, thread, shared, private, process,
                  n_accesses, condition, rng) -> Trace:
    va = np.empty(n_accesses, dtype=np.int64)
    is_write = np.empty(n_accesses, dtype=bool)
    pc = np.empty(n_accesses, dtype=np.int64)
    shared_draw = rng.random(n_accesses) < workload.shared_frac
    private_offsets = rng.integers(0, workload.private_bytes,
                                   size=n_accesses)
    private_writes = rng.random(n_accesses) < workload.write_frac
    for i in range(n_accesses):
        if shared_draw[i]:
            offset = _shared_offset(workload, thread, rng)
            va[i] = shared.start + offset
            is_write[i] = _is_shared_write(workload, thread, rng)
            pc[i] = 0x600000 + 4 * ((offset >> 6) % 64)
        else:
            va[i] = private.start + (int(private_offsets[i]) & ~0x7)
            is_write[i] = private_writes[i]
            pc[i] = 0x400000 + 4 * ((int(private_offsets[i]) >> 15) % 64)
    return Trace(
        app=f"{workload.kind}/t{thread}",
        condition=condition,
        process=process,
        pc=pc,
        va=va,
        is_write=is_write,
        inst_gap=rng.poisson(2.0, size=n_accesses).astype(np.int32),
        dep_dist=rng.poisson(3.0, size=n_accesses).astype(np.int32),
        mlp=3.0,
        huge_fraction=0.0,
    )
