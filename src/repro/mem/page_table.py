"""Per-process page tables mapping virtual pages to physical frames.

The table stores 4 KiB mappings plus a huge-page flag per entry, mirroring
what the paper extracts from Linux's ``pagemap`` and ``kpageflags``
interfaces (whether each access hit a transparently-mapped huge page).
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Iterator, Optional, Sequence, Tuple

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

    def entries(self) -> Iterator[Tuple[int, PageTableEntry]]:
        """Iterate over (vpn, entry) pairs in arbitrary order."""
        return iter(self._entries.items())

    def mapped_bytes(self) -> int:
        """Total bytes of mapped virtual memory."""
        return len(self._entries) * PAGE_SIZE
