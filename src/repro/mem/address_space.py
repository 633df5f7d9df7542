"""Process address spaces with demand paging and transparent huge pages.

This is the OS memory-management substrate the paper's traces were captured
on. A :class:`PhysicalMemory` owns a buddy allocator; each :class:`Process`
owns a page table and a heap of virtual regions. Pages are mapped on first
touch (demand paging), and — like Linux with THP enabled — a fault in an
anonymous region is promoted to a 2 MiB huge page when the faulting virtual
chunk is 2 MiB-aligned within the region and the buddy allocator can supply
an order-9 block.

The VA->PA contiguity that SIPT's index delta buffer exploits *emerges*
from this machinery: sequential faults drawing from a large free block get
consecutive frames, so whole runs of pages share one index delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .address import (
    HUGE_PAGE_SHIFT,
    HUGE_PAGE_SIZE,
    PAGE_SHIFT,
    PAGE_SIZE,
    PAGES_PER_HUGE_PAGE,
    page_number,
)
from .buddy import HUGE_PAGE_ORDER, BuddyAllocator, OutOfMemoryError
from .page_table import PageTable


@dataclass
class VmStats:
    """Fault accounting for one process."""

    minor_faults: int = 0
    huge_page_faults: int = 0
    base_page_faults: int = 0
    #: Page-coloring outcomes (only populated when coloring is on).
    colored_faults: int = 0
    uncolored_faults: int = 0

    @property
    def huge_fault_fraction(self) -> float:
        """Faults satisfied by a huge page, over all faults."""
        total = self.huge_page_faults + self.base_page_faults
        return self.huge_page_faults / total if total else 0.0

    @property
    def coloring_success_rate(self) -> float:
        """Faults whose frame matched the requested color, over all."""
        total = self.colored_faults + self.uncolored_faults
        return self.colored_faults / total if total else 0.0


@dataclass(eq=False)
class VmRegion:
    """One contiguous virtual region created by :meth:`Process.mmap`.

    Regions compare by identity: every process's heap starts at the same
    base, so two processes' regions can cover the same range, and
    ownership checks must not mistake one for the other.
    """

    start: int
    length: int
    thp_eligible: bool = True
    #: Shared regions are backed by a SharedSegment; unmapping them does
    #: not free the frames (other mappings may still reference them).
    shared: bool = False

    @property
    def end(self) -> int:
        """One past the region's last virtual address."""
        return self.start + self.length

    def __contains__(self, va: int) -> bool:
        return self.start <= va < self.end


@dataclass
class SharedSegment:
    """Physical frames backing a shared mapping (tmpfs/SysV-shm-like).

    Mapping the same segment at two virtual addresses — in one process
    or in two — creates *synonyms*: distinct VAs that translate to the
    same PA. Synonyms are the reason VIVT caches are complex (Section
    II-B) and the case SIPT handles for free: lines are always filled at
    their physical index with full physical tags, so all synonyms find
    the same copy.
    """

    frames: List[int]

    @property
    def length(self) -> int:
        """The segment's size in bytes (frames x page size)."""
        return len(self.frames) * PAGE_SIZE


class PhysicalMemory:
    """System physical memory: a buddy allocator plus global THP policy."""

    def __init__(self, total_bytes: int, thp_enabled: bool = True):
        if total_bytes % PAGE_SIZE:
            raise ValueError("total_bytes must be page aligned")
        self.total_bytes = total_bytes
        self.thp_enabled = thp_enabled
        self.buddy = BuddyAllocator(total_bytes // PAGE_SIZE)

    @property
    def total_frames(self) -> int:
        """Physical frames managed by the buddy allocator."""
        return self.buddy.total_frames

    def free_bytes(self) -> int:
        """Unallocated physical memory, in bytes."""
        return self.buddy.free_frames() * PAGE_SIZE

    def create_shared_segment(self, length: int) -> SharedSegment:
        """Allocate frames for a shared mapping (shm/tmpfs object)."""
        if length <= 0:
            raise ValueError("length must be positive")
        n_pages = -(-length // PAGE_SIZE)
        frames = self.buddy.allocate_pages(n_pages)
        if len(frames) < n_pages:
            for frame in frames:
                self.buddy.free(frame, 0)
            raise MemoryError("physical memory exhausted")
        return SharedSegment(frames=frames)

    def destroy_shared_segment(self, segment: SharedSegment) -> None:
        """Return a segment's frames; caller must have unmapped it."""
        for frame in segment.frames:
            self.buddy.free(frame, 0)
        segment.frames.clear()


class Process:
    """One simulated process: VA allocation, demand paging, THP promotion.

    Virtual regions are handed out by a bump allocator starting at
    ``HEAP_BASE``, aligned to 2 MiB so any region can hold huge pages —
    matching how glibc's mmap-based large allocations behave in practice.
    """

    HEAP_BASE = 0x5555_0000_0000

    def __init__(self, memory: PhysicalMemory, asid: int = 0,
                 coloring_bits: int = 0):
        self.memory = memory
        self.page_table = PageTable(asid=asid)
        self.regions: List[VmRegion] = []
        #: The same regions as a set: ownership checks in O(1).
        self._owned: Set[VmRegion] = set()
        self.stats = VmStats()
        #: With ``coloring_bits > 0`` the fault handler implements
        #: software page coloring: it tries to give each page a frame
        #: whose low frame-number bits equal the VPN's (Section II-D).
        self.coloring_bits = coloring_bits
        self._next_va = self.HEAP_BASE

    # ------------------------------------------------------------------
    # virtual allocation
    # ------------------------------------------------------------------
    def mmap(self, length: int, thp_eligible: bool = True,
             align: int = HUGE_PAGE_SIZE) -> VmRegion:
        """Reserve a new virtual region of ``length`` bytes (no frames yet)."""
        if length <= 0:
            raise ValueError("length must be positive")
        length = -(-length // PAGE_SIZE) * PAGE_SIZE
        start = -(-self._next_va // align) * align
        region = VmRegion(start=start, length=length,
                          thp_eligible=thp_eligible)
        self.regions.append(region)
        self._owned.add(region)
        self._next_va = region.end
        return region

    def map_shared(self, segment: "SharedSegment",
                   align: int = HUGE_PAGE_SIZE) -> VmRegion:
        """Map a shared segment into this address space (eagerly).

        Mapping the same segment twice — here or in another process —
        creates synonyms: different VAs backed by the same frames.
        """
        region = self.mmap(segment.length, thp_eligible=False,
                           align=align)
        region.shared = True
        self.page_table.map_run(page_number(region.start), segment.frames)
        return region

    def munmap(self, region: VmRegion) -> None:
        """Unmap a region, freeing every mapped frame back to the buddy.

        Frames of shared regions are left alone — they belong to their
        :class:`SharedSegment` until it is destroyed.
        """
        if region not in self._owned:
            raise ValueError("region does not belong to this process")
        self._owned.remove(region)
        self.regions.remove(region)
        vpn = page_number(region.start)
        end_vpn = page_number(region.end - 1)
        if region.shared:
            while vpn <= end_vpn:
                if vpn in self.page_table:
                    self.page_table.unmap_page(vpn)
                vpn += 1
            return
        freed_huge_bases = set()
        while vpn <= end_vpn:
            entry = self.page_table.lookup(vpn)
            if entry is None:
                vpn += 1
                continue
            self.page_table.unmap_page(vpn)
            if entry.huge:
                base = entry.pfn - (entry.pfn % PAGES_PER_HUGE_PAGE)
                if base not in freed_huge_bases:
                    self.memory.buddy.free(base, HUGE_PAGE_ORDER)
                    freed_huge_bases.add(base)
            else:
                self.memory.buddy.free(entry.pfn, 0)
            vpn += 1

    # ------------------------------------------------------------------
    # demand paging
    # ------------------------------------------------------------------
    def touch(self, va: int) -> int:
        """Ensure ``va`` is mapped (faulting it in if needed); return its PA."""
        entry = self.page_table.lookup(page_number(va))
        if entry is not None:
            return (entry.pfn << PAGE_SHIFT) | (va & (PAGE_SIZE - 1))
        self._fault(va, self._region_of(va))
        return self.page_table.translate(va)

    def translate(self, va: int) -> int:
        """Translate without faulting; raises on unmapped pages."""
        return self.page_table.translate(va)

    def _region_of(self, va: int) -> VmRegion:
        for region in self.regions:
            if va in region:
                return region
        raise MemoryError(f"segfault: VA {va:#x} is outside every region")

    def _fault(self, va: int, region: VmRegion) -> None:
        """Map the unmapped page containing ``va``, which is in ``region``."""
        self.stats.minor_faults += 1
        if self._try_huge_fault(va, region):
            self.stats.huge_page_faults += 1
        else:
            self._base_fault(va)
            self.stats.base_page_faults += 1

    def _try_huge_fault(self, va: int, region: VmRegion) -> bool:
        """Attempt THP promotion for the 2 MiB chunk containing ``va``."""
        if not (self.memory.thp_enabled and region.thp_eligible):
            return False
        chunk_start = va & ~(HUGE_PAGE_SIZE - 1)
        if chunk_start < region.start or chunk_start + HUGE_PAGE_SIZE > region.end:
            return False
        # Linux refuses to collapse a chunk in which some 4 KiB pages are
        # already mapped, so every VPN of the chunk must be unmapped.
        first_vpn = page_number(chunk_start)
        if self.page_table.any_mapped(first_vpn, PAGES_PER_HUGE_PAGE):
            return False
        base = self.memory.buddy.try_allocate(HUGE_PAGE_ORDER)
        if base is None:
            return False
        self.page_table.map_run(
            first_vpn, range(base, base + PAGES_PER_HUGE_PAGE), huge=True)
        return True

    def _base_fault(self, va: int) -> None:
        vpn = page_number(va)
        pfn = None
        if self.coloring_bits > 0:
            pfn = self.memory.buddy.allocate_colored(vpn,
                                                     self.coloring_bits)
            if pfn is not None:
                self.stats.colored_faults += 1
            else:
                self.stats.uncolored_faults += 1
        if pfn is None:
            try:
                pfn = self.memory.buddy.allocate(0)
            except OutOfMemoryError:
                raise MemoryError("physical memory exhausted") from None
        self.page_table.map_page(vpn, pfn, huge=False)

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def populate(self, region: VmRegion) -> None:
        """Fault in every unmapped page of ``region`` (eager paging).

        The end state is that of faulting each unmapped page in address
        order, but THP is decided once per 2 MiB chunk and each run of
        unmapped base pages takes one bulk allocation and one page-table
        insert. Running out of memory raises :class:`MemoryError` with
        the pages before the failing one mapped.
        """
        if region not in self._owned:
            raise ValueError("region does not belong to this process")
        stats = self.stats
        vpn = page_number(region.start)
        end = vpn + region.length // PAGE_SIZE
        thp = self.memory.thp_enabled and region.thp_eligible
        while vpn < end:
            stop = (min((vpn | (PAGES_PER_HUGE_PAGE - 1)) + 1, end)
                    if thp else end)
            if thp and self._try_huge_fault(vpn << PAGE_SHIFT, region):
                stats.minor_faults += 1
                stats.huge_page_faults += 1
            else:
                for first, count in self._unmapped_runs(vpn, stop):
                    self._base_fault_run(first, count)
            vpn = stop

    def _unmapped_runs(self, vpn: int, stop: int) -> List[Tuple[int, int]]:
        """(first VPN, page count) of each unmapped run in ``[vpn, stop)``."""
        if not self.page_table.any_mapped(vpn, stop - vpn):
            return [(vpn, stop - vpn)]
        runs = []
        start = vpn
        for page in [page for page in range(vpn, stop)
                     if page in self.page_table] + [stop]:
            if page > start:
                runs.append((start, page - start))
            start = page + 1
        return runs

    def _base_fault_run(self, vpn: int, count: int) -> None:
        """Map ``count`` unmapped pages from ``vpn`` to base frames.

        Same as :meth:`_base_fault` on each page in turn; a coloured
        process still takes them one by one, since each page wants its
        own colour.
        """
        stats = self.stats
        if self.coloring_bits > 0:
            for page in range(vpn, vpn + count):
                stats.minor_faults += 1
                self._base_fault(page << PAGE_SHIFT)
                stats.base_page_faults += 1
            return
        frames = self.memory.buddy.allocate_pages(count)
        self.page_table.map_run(vpn, frames)
        stats.minor_faults += len(frames)
        stats.base_page_faults += len(frames)
        if len(frames) < count:
            stats.minor_faults += 1     # the fault that found no frame
            raise MemoryError("physical memory exhausted")

    def mapped_bytes(self) -> int:
        """Bytes of this process's VA space with present mappings."""
        return self.page_table.mapped_bytes()
