"""Trace generation: run an app profile through the OS memory model.

A trace is the unit of simulation input, mirroring what the paper's
modified Macsim trace generator captures: for every memory access the
virtual address, the physical mapping (via the model page table rather
than Linux pagemap), and page flags (huge or not). We additionally carry
per-access pipeline hints (instruction gap, dependence distance) for the
timing models.

The decisive part is :func:`build_memory_image`: allocations are made
through the buddy allocator with per-profile noise interleaving, so the
VA->PA delta structure the SIPT predictors exploit *emerges* from the OS
model rather than being scripted.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from ..errors import TraceError
from ..mem.address import PAGE_SIZE
from ..mem.address_space import PhysicalMemory, Process, VmRegion
from ..mem.fragmentation import fragment_memory
from .patterns import make_pattern
from .spec import AppProfile, get_profile

#: Canonical virtual addresses fit in 48 bits on the modelled machine.
VA_BITS = 48


def stable_hash(text: str) -> int:
    """Process-independent 32-bit hash for RNG seeding.

    Python's ``hash(str)`` varies with ``PYTHONHASHSEED``, which made
    traces differ between processes — fatal for journal/resume, where
    cells recomputed after a crash must match the rows the dead run
    journaled. CRC32 is stable everywhere.
    """
    return zlib.crc32(text.encode("utf-8")) & 0x7FFFFFFF

#: Default modelled physical memory; small enough to simulate quickly,
#: large enough that no experiment approaches out-of-memory.
DEFAULT_PHYS_BYTES = 512 * 1024 * 1024


class MemoryCondition(enum.Enum):
    """Operating conditions of Section VII-B's sensitivity studies."""

    NORMAL = "normal"          # regularly used machine, THP on
    FRAGMENTED = "fragmented"  # Fu(9) > 0.95, THP mostly defeated
    THP_OFF = "thp_off"        # transparent huge pages disabled


#: Bump with any change to what ``generate_trace`` produces: every
#: journal, checkpoint and store entry keyed by an older recipe then
#: stops matching (``tests/test_trace_golden.py`` pins it).
GENERATOR_VERSION = 1


class TraceRecipe(NamedTuple):
    """Everything that determines a :func:`generate_trace` trace; it
    names the trace without generating it."""

    app: str
    accesses: int
    condition: MemoryCondition
    seed: int
    version: int = GENERATOR_VERSION


@dataclass
class Trace:
    """One application's memory-access trace plus its address space."""

    app: str
    condition: MemoryCondition
    process: Process
    pc: np.ndarray          # int64, per access
    va: np.ndarray          # int64
    is_write: np.ndarray    # bool
    inst_gap: np.ndarray    # int32: non-mem instructions before access
    dep_dist: np.ndarray    # int32: distance to first consumer
    mlp: float
    huge_fraction: float    # fraction of accesses landing on huge pages
    # Set only by generate_trace in its own default-sized memory; a
    # trace without one never enters the warm memo or the store.
    recipe: Optional[TraceRecipe] = None

    def __len__(self) -> int:
        return len(self.va)

    @property
    def total_instructions(self) -> int:
        """Instructions the trace represents: memory ops plus gaps."""
        return int(self.inst_gap.sum()) + len(self.va)

    def columns(self):
        """This trace's derived-column store (lazy, computed once).

        Convenience for :func:`repro.workloads.substrate.columns_for`;
        the store memoizes the hot-loop list views, the vectorized
        page-number columns, and the content fingerprint on this
        instance, so repeated calls are free.
        """
        from .substrate import columns_for
        return columns_for(self)

    def validate(self) -> None:
        """Reject corrupt records before replay.

        Raises :class:`TraceError` on impossible values — negative or
        non-canonical VAs/PCs, negative instruction gaps, or arrays of
        mismatched length. Cheap (a few vectorized reductions), so the
        driver runs it on every ``simulate`` call; corrupted trace
        files or injected faults surface as a typed, per-cell error
        instead of garbage IPC.
        """
        n = len(self.va)
        lengths = {"pc": len(self.pc), "is_write": len(self.is_write),
                   "inst_gap": len(self.inst_gap),
                   "dep_dist": len(self.dep_dist)}
        bad = {name: ln for name, ln in lengths.items() if ln != n}
        if bad:
            raise TraceError(
                f"trace arrays of mismatched length vs {n} accesses: "
                f"{bad}", app=self.app)
        if n == 0:
            raise TraceError("trace is empty", app=self.app)
        if int(self.va.min()) < 0 or int(self.va.max()) >= (1 << VA_BITS):
            raise TraceError(
                "trace contains non-canonical virtual addresses "
                f"(min {int(self.va.min())}, max {int(self.va.max())}); "
                "corrupt records?", app=self.app)
        if int(self.pc.min()) < 0:
            raise TraceError("trace contains negative PCs", app=self.app)
        if int(self.inst_gap.min()) < 0:
            raise TraceError("trace contains negative instruction gaps",
                             app=self.app)


def _condition_memory(condition: MemoryCondition,
                      phys_bytes: int,
                      rng: np.random.Generator) -> PhysicalMemory:
    """Create physical memory in the requested operating condition."""
    thp = condition is not MemoryCondition.THP_OFF
    memory = PhysicalMemory(phys_bytes, thp_enabled=thp)
    if condition is MemoryCondition.FRAGMENTED:
        fragment_memory(memory.buddy, target_fu=0.95, rng=rng)
    else:
        # A long-uptime machine: some of memory is already in use, so
        # fresh allocations rarely start at frame 0, but large contiguous
        # blocks still exist.
        _light_preuse(memory, rng)
    return memory


def _light_preuse(memory: PhysicalMemory,
                  rng: np.random.Generator) -> None:
    """Displace the allocation frontier (uptime-of-weeks machine state).

    A varying slice of memory is held by "other processes" in block-sized
    allocations, so fresh workloads never start at frame 0 — but the
    frontier stays block-aligned and large contiguous free blocks remain,
    as on a healthy long-running system.
    """
    buddy = memory.buddy
    target = int(buddy.total_frames * float(rng.uniform(0.08, 0.20)))
    taken = 0
    while taken < target:
        order = int(rng.choice([3, 4, 5, 6, 8, 10]))
        base = buddy.try_allocate(order)
        if base is None:
            break
        taken += 1 << order
    # The held blocks are deliberately leaked: they model resident memory
    # of the rest of the system, pinning the frontier in place.


def build_memory_image(profile: AppProfile, memory: PhysicalMemory,
                       rng: np.random.Generator) -> Tuple[Process, List[VmRegion]]:
    """Allocate and populate the app's footprint per its allocation style.

    Returns the process and the regions backing the data footprint.
    ``noise_pages`` odd-sized allocations from a separate noise process
    are interleaved between the app's chunks for the ``offset`` and
    ``scattered`` styles, displacing subsequent frames by a constant
    amount and breaking VA==PA bit equality without destroying the
    constant-delta structure the IDB learns.
    """
    process = Process(memory, asid=1)
    noise = Process(memory, asid=99)
    regions: List[VmRegion] = []
    if profile.alloc_style == "thp_big":
        region = process.mmap(profile.footprint, thp_eligible=True)
        process.populate(region)
        regions.append(region)
        return process, regions

    if profile.initial_noise_pages:
        noise_region = noise.mmap(profile.initial_noise_pages * PAGE_SIZE,
                                  thp_eligible=False)
        noise.populate(noise_region)

    thp_eligible = False  # chunked/offset/scattered model sub-2MiB chunks
    remaining = profile.footprint
    chunk = profile.chunk_bytes
    while remaining > 0:
        size = min(chunk, remaining)
        fire_noise = (profile.noise_pages > 0
                      and rng.random() < profile.noise_prob)
        if fire_noise:
            noise_region = noise.mmap(profile.noise_pages * PAGE_SIZE,
                                      thp_eligible=False)
            noise.populate(noise_region)
        region = process.mmap(size, thp_eligible=thp_eligible,
                              align=PAGE_SIZE)
        process.populate(region)
        regions.append(region)
        remaining -= size
    return process, regions


def _offsets_to_va(regions: List[VmRegion],
                   offsets: np.ndarray) -> np.ndarray:
    """Map flat footprint offsets onto the (possibly split) regions.

    Each offset's region is found by a binary search of the regions'
    prefix lengths.
    """
    starts = np.array([region.start for region in regions], dtype=np.int64)
    lengths = np.array([region.length for region in regions],
                       dtype=np.int64)
    ends = np.cumsum(lengths)
    i = np.searchsorted(ends, offsets, side="right")
    inside = np.minimum(i, len(regions) - 1)
    va = starts[inside] + offsets - (ends[inside] - lengths[inside])
    # Wrap (patterns yield offsets modulo the footprint already, but a
    # final partial chunk can make the region sum slightly larger).
    wrapped = starts[-1] + (offsets - ends[-1]) % lengths[-1]
    return np.where(i < len(regions), va, wrapped)


def generate_trace(app: str, n_accesses: int,
                   condition: MemoryCondition = MemoryCondition.NORMAL,
                   seed: int = 0,
                   phys_bytes: int = DEFAULT_PHYS_BYTES,
                   memory: Optional[PhysicalMemory] = None) -> Trace:
    """Synthesize a trace of ``n_accesses`` memory references for ``app``.

    Deterministic for a given (app, condition, seed). Pass ``memory`` to
    allocate several apps in one shared physical memory (multicore runs).
    """
    if n_accesses <= 0:
        raise TraceError(f"n_accesses must be positive, got {n_accesses}",
                         app=app)
    profile = get_profile(app)
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, stable_hash(app),
                                stable_hash(condition.value)]))
    recipe = (TraceRecipe(app, n_accesses, condition, seed)
              if memory is None and phys_bytes == DEFAULT_PHYS_BYTES
              else None)
    if memory is None:
        memory = _condition_memory(condition, phys_bytes, rng)
    process, regions = build_memory_image(profile, memory, rng)

    patterns = []
    pc_bases = []
    weights = []
    dep_means = []
    for i, spec in enumerate(profile.patterns):
        params = {}
        if spec.working_set:
            params["working_set"] = spec.working_set
        if spec.stride:
            params["stride"] = spec.stride
        if spec.alpha:
            params["alpha"] = spec.alpha
        kind_rng = np.random.default_rng(rng.integers(2 ** 31))
        patterns.append(make_pattern(spec.kind, profile.footprint,
                                     kind_rng, **params))
        pc_bases.append(0x400000 + i * 0x100000)
        weights.append(spec.weight)
        dep_means.append(spec.dep_dist_mean)
    weights = np.asarray(weights)
    weights = weights / weights.sum()

    # Pre-draw all randomness in bulk for speed.
    component = rng.choice(len(patterns), size=n_accesses, p=weights)
    writes = rng.random(n_accesses) < profile.write_frac
    gap_mean = max(0.0, 1.0 / profile.mem_per_inst - 1.0)
    inst_gap = rng.poisson(gap_mean, size=n_accesses).astype(np.int32)
    dep_draw = rng.exponential(1.0, size=n_accesses)
    repeats = rng.random(n_accesses) < profile.repeat_frac
    line_offsets = rng.integers(0, 8, size=n_accesses) * 8

    # Work component by component: ``by_comp`` lists the accesses grouped
    # by component, in trace order within each group. An access draws
    # the next offset of its component's pattern unless it repeats:
    # temporal line reuse, where the same static load re-touches its
    # current line (loop iteration, adjacent struct fields). A
    # component's first access has no line yet, so it always draws.
    by_comp = np.argsort(component, kind="stable")
    comp = component[by_comp]
    firsts = np.flatnonzero(np.r_[True, comp[1:] != comp[:-1]])
    draws = ~repeats[by_comp]
    draws[firsts] = True
    counts = np.add.reduceat(draws.astype(np.int64), firsts)
    drawn = np.zeros(n_accesses, dtype=np.int64)
    drawn[draws] = _offsets_to_va(regions, np.concatenate([
        patterns[c].take(int(k)) for c, k in zip(comp[firsts], counts)]))
    # A repeat's line is its component's latest draw's line; groups
    # start with a draw, so the running maximum never crosses groups.
    latest = np.maximum.accumulate(
        np.where(draws, np.arange(n_accesses), 0))
    va = np.empty(n_accesses, dtype=np.int64)
    va[by_comp] = np.where(draws, drawn, (drawn[latest] & ~63)
                           | line_offsets[by_comp])

    # Static loads have region affinity: every 32 KiB block of each
    # component gets its own PC, as if a distinct static load walks
    # each data structure. Each PC therefore sees a stable VA->PA
    # delta when the underlying mapping is stable — the property
    # that makes PC-indexed predictors (Sections V-VI) work. Having
    # more PCs than predictor entries is normal; the tables alias
    # exactly as they would on real code.
    pc = (np.asarray(pc_bases, dtype=np.int64)[component]
          + 4 * ((va - Process.HEAP_BASE) >> 15))
    dep_dist = (dep_draw * np.asarray(dep_means)[component]).astype(np.int32)
    pages, per_page = np.unique(va >> 12, return_counts=True)
    lookup = process.page_table.lookup
    huge = [getattr(lookup(vpn), "huge", False) for vpn in pages.tolist()]
    huge_hits = int(per_page[np.asarray(huge, dtype=bool)].sum())

    return Trace(
        app=app,
        condition=condition,
        process=process,
        pc=pc,
        va=va,
        is_write=writes,
        inst_gap=inst_gap,
        dep_dist=dep_dist,
        mlp=profile.mlp,
        huge_fraction=huge_hits / n_accesses,
        recipe=recipe,
    )
