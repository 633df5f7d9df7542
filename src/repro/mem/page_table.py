"""Per-process page tables mapping virtual pages to physical frames.

The table stores 4 KiB mappings plus a huge-page flag per entry, mirroring
what the paper extracts from Linux's ``pagemap`` and ``kpageflags``
interfaces (whether each access hit a transparently-mapped huge page).
"""

from __future__ import annotations

from itertools import repeat
from operator import attrgetter
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from .address import (
    PAGE_SHIFT,
    PAGE_SIZE,
    page_number,
    page_offset,
)


class TranslationFault(Exception):
    """Raised when a virtual address has no mapping (a page fault)."""

    def __init__(self, va: int):
        super().__init__(f"no translation for VA {va:#x}")
        self.va = va


class PageTableEntry:
    """One immutable 4 KiB translation.

    ``huge`` marks entries that belong to a 2 MiB transparent huge page;
    the simulator still tracks them at 4 KiB granularity but the TLB and
    the Fig. 5 "hugepage" category use the flag.

    Every mapped page holds one, so entries live in slots: about half
    the memory of a dataclass instance, with attribute reads as fast.
    Entries compare and hash by value.
    """

    __slots__ = ("pfn", "huge", "writable")

    def __init__(self, pfn: int, huge: bool = False, writable: bool = True):
        _set_pfn(self, pfn)
        _set_huge(self, huge)
        _set_writable(self, writable)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self):
        return (self.pfn, self.huge, self.writable)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return (PageTableEntry, self._values())

    def __repr__(self):
        return (f"PageTableEntry(pfn={self.pfn!r}, huge={self.huge!r}, "
                f"writable={self.writable!r})")


# The slots' own setters: they fill a new entry past ``__setattr__``.
_set_pfn = PageTableEntry.pfn.__set__
_set_huge = PageTableEntry.huge.__set__
_set_writable = PageTableEntry.writable.__set__


class PageTable:
    """A flat VPN -> :class:`PageTableEntry` map for one address space.

    A radix-tree page table would translate identically; a flat dict keeps
    the simulator fast while `walk_latency` models the lookup cost of the
    real 4-level walk on a TLB miss.
    """

    def __init__(self, asid: int = 0):
        self.asid = asid
        self._entries: Dict[int, PageTableEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._entries

    def map_page(self, vpn: int, pfn: int, huge: bool = False,
                 writable: bool = True) -> None:
        """Install a 4 KiB translation; remapping an existing VPN is an error."""
        if vpn in self._entries:
            raise ValueError(f"VPN {vpn:#x} already mapped")
        self._entries[vpn] = PageTableEntry(pfn=pfn, huge=huge,
                                            writable=writable)

    def map_run(self, first_vpn: int, pfns: Sequence[int],
                huge: bool = False) -> None:
        """Install ``first_vpn + i -> pfns[i]`` for every ``i``.

        Same table as :meth:`map_page` on each page in turn, except that
        a run overlapping an existing mapping is rejected before any of
        it is installed.
        """
        vpns = range(first_vpn, first_vpn + len(pfns))
        if self.any_mapped(first_vpn, len(pfns)):
            vpn = next(vpn for vpn in vpns if vpn in self._entries)
            raise ValueError(f"VPN {vpn:#x} already mapped")
        self._entries.update(
            zip(vpns, map(PageTableEntry, pfns, repeat(huge))))

    def any_mapped(self, first_vpn: int, count: int) -> bool:
        """True if any of ``count`` pages from ``first_vpn`` is mapped."""
        return not self._entries.keys().isdisjoint(
            range(first_vpn, first_vpn + count))

    def unmap_page(self, vpn: int) -> PageTableEntry:
        """Remove and return the translation for ``vpn``."""
        try:
            return self._entries.pop(vpn)
        except KeyError:
            raise TranslationFault(vpn << PAGE_SHIFT) from None

    def lookup(self, vpn: int) -> Optional[PageTableEntry]:
        """Return the entry for ``vpn`` or ``None`` if unmapped."""
        return self._entries.get(vpn)

    def translate(self, va: int) -> int:
        """Translate a virtual address to a physical address.

        Raises :class:`TranslationFault` if the page is unmapped.
        """
        entry = self._entries.get(page_number(va))
        if entry is None:
            raise TranslationFault(va)
        return (entry.pfn << PAGE_SHIFT) | page_offset(va)

    def translate_entry(self, va: int) -> Tuple[int, PageTableEntry]:
        """Translate ``va`` and also return its page table entry."""
        entry = self._entries.get(page_number(va))
        if entry is None:
            raise TranslationFault(va)
        return (entry.pfn << PAGE_SHIFT) | page_offset(va), entry

    def is_mapped(self, va: int) -> bool:
        """True if the page containing ``va`` has a translation."""
        return page_number(va) in self._entries

    def pfns_of(self, vpns: np.ndarray) -> np.ndarray:
        """The frame of each page in ``vpns`` (all mapped), as int64."""
        lookup = self.lookup
        return np.fromiter((lookup(vpn).pfn for vpn in vpns.tolist()),
                           dtype=np.int64, count=len(vpns))

    def entries(self) -> Iterator[Tuple[int, PageTableEntry]]:
        """Iterate over (vpn, entry) pairs in arbitrary order."""
        return iter(self._entries.items())

    def mapped_bytes(self) -> int:
        """Total bytes of mapped virtual memory."""
        return len(self._entries) * PAGE_SIZE


class ArrayPageTable(PageTable):
    """A read-only :class:`PageTable` over flattened, vpn-sorted arrays.

    The form a trace keeps for replay (see
    ``repro.workloads.storage.freeze_trace``): about 17 bytes per mapped
    page, where the dict table costs one :class:`PageTableEntry` and a
    dict slot per page. Replay only ever *looks up* the pages the TLB
    walks on, so lookups binary-search the arrays and construct entries
    lazily, memoizing each in the inherited ``_entries`` dict so a given
    page's entry is built at most once. Lookups return values identical
    to the dict table's, keeping replay byte-identical. The arrays may
    be views over shared memory (``repro.workloads.substrate``).
    """

    def __init__(self, vpns: np.ndarray, pfns: np.ndarray,
                 flags: np.ndarray, asid: int = 0):
        super().__init__(asid=asid)
        if len(vpns) > 1 and not bool(np.all(vpns[:-1] < vpns[1:])):
            order = np.argsort(vpns, kind="stable")
            vpns, pfns, flags = vpns[order], pfns[order], flags[order]
        self._vpns = vpns
        self._pfns = pfns
        self._flags = flags

    def __len__(self) -> int:
        return int(self._vpns.shape[0])

    def __contains__(self, vpn: int) -> bool:
        return self._find(vpn) >= 0

    def _find(self, vpn: int) -> int:
        index = int(np.searchsorted(self._vpns, vpn))
        if (index < self._vpns.shape[0]
                and int(self._vpns[index]) == vpn):
            return index
        return -1

    def map_page(self, vpn: int, pfn: int, huge: bool = False,
                 writable: bool = True) -> None:
        raise ValueError("array page tables are read-only")

    def map_run(self, first_vpn: int, pfns, huge: bool = False) -> None:
        raise ValueError("array page tables are read-only")

    def any_mapped(self, first_vpn: int, count: int) -> bool:
        index = int(np.searchsorted(self._vpns, first_vpn))
        return (index < self._vpns.shape[0]
                and int(self._vpns[index]) < first_vpn + count)

    def unmap_page(self, vpn: int) -> PageTableEntry:
        raise ValueError("array page tables are read-only")

    def lookup(self, vpn: int) -> Optional[PageTableEntry]:
        """Return the entry for ``vpn`` or ``None`` if unmapped."""
        entry = self._entries.get(vpn)
        if entry is None:
            index = self._find(vpn)
            if index < 0:
                return None
            flag = int(self._flags[index])
            entry = PageTableEntry(pfn=int(self._pfns[index]),
                                   huge=bool(flag & 1),
                                   writable=bool(flag & 2))
            self._entries[vpn] = entry
        return entry

    def translate(self, va: int) -> int:
        entry = self.lookup(page_number(va))
        if entry is None:
            raise TranslationFault(va)
        return (entry.pfn << PAGE_SHIFT) | page_offset(va)

    def translate_entry(self, va: int) -> Tuple[int, PageTableEntry]:
        entry = self.lookup(page_number(va))
        if entry is None:
            raise TranslationFault(va)
        return (entry.pfn << PAGE_SHIFT) | page_offset(va), entry

    def is_mapped(self, va: int) -> bool:
        return page_number(va) in self

    def pfns_of(self, vpns: np.ndarray) -> np.ndarray:
        """The frame of each page in ``vpns``, by one binary search of
        the arrays (no entries are built)."""
        index = np.minimum(np.searchsorted(self._vpns, vpns),
                           max(len(self) - 1, 0))
        if len(self) and np.array_equal(self._vpns[index], vpns):
            return self._pfns[index].astype(np.int64, copy=False)
        return super().pfns_of(vpns)   # raises as the dict table does

    def entries(self) -> Iterator[Tuple[int, PageTableEntry]]:
        """Iterate (vpn, entry) pairs — materializes lazily once."""
        for index in range(len(self)):
            vpn = int(self._vpns[index])
            yield vpn, self.lookup(vpn)

    def mapped_bytes(self) -> int:
        return len(self) * PAGE_SIZE


def flatten_page_table(table: PageTable
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten a page table to ``(vpns, pfns, flags)`` numpy arrays.

    Flag bits: 1 = huge, 2 = writable. This is the interchange format
    of the ``.npz`` trace files, the shared-memory substrate and
    :class:`ArrayPageTable`. The arrays are sorted by vpn: a canonical
    order (independent of page fault order) that lets readers
    binary-search instead of building a dict. An :class:`ArrayPageTable`
    returns its own arrays, building no entry.
    """
    if isinstance(table, ArrayPageTable):
        return table._vpns, table._pfns, table._flags
    entries = table._entries
    n = len(entries)
    values = entries.values()
    vpns = np.fromiter(entries.keys(), dtype=np.int64, count=n)
    pfns = np.fromiter(map(attrgetter("pfn"), values), dtype=np.int64,
                       count=n)
    flags = (np.fromiter(map(attrgetter("huge"), values), dtype=np.int8,
                         count=n)
             | np.fromiter(map(attrgetter("writable"), values),
                           dtype=np.int8, count=n) << 1)
    order = np.argsort(vpns, kind="stable")
    return vpns[order], pfns[order], flags[order]
