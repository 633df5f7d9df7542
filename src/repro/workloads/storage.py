"""Trace serialization: save/load synthesized traces as ``.npz`` files.

The paper's methodology captures traces once (with Linux pagemap state)
and replays them across configurations. This module provides the same
workflow: a trace's access stream *and* its VA->PA mapping are saved
together, so a loaded trace replays bit-identically without
re-simulating the OS memory system.

The page table is flattened to two arrays (vpn, pfn+flags); the process
restored on load is a read-only shell — sufficient for replay, which
only translates.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from ..mem.address_space import PhysicalMemory, Process
from ..mem.page_table import PageTable, PageTableEntry
from .trace import MemoryCondition, Trace

_FORMAT_VERSION = 1


def flatten_page_table(table: PageTable):
    """Flatten a page table to ``(vpns, pfns, flags)`` numpy arrays.

    Flag bits: 1 = huge, 2 = writable. This is the interchange format
    shared by the ``.npz`` trace files here and the shared-memory
    substrate (:mod:`repro.workloads.substrate`) — both need the
    VA->PA mapping as plain arrays a reader can rebuild from. The
    arrays are sorted by vpn: a canonical order (independent of page
    fault order) that lets readers binary-search instead of building a
    dict (see ``substrate.ArrayPageTable``).
    """
    vpns = []
    pfns = []
    flags = []
    for vpn, entry in table.entries():
        vpns.append(vpn)
        pfns.append(entry.pfn)
        flags.append((1 if entry.huge else 0)
                     | (2 if entry.writable else 0))
    vpn_arr = np.asarray(vpns, dtype=np.int64)
    order = np.argsort(vpn_arr, kind="stable")
    return (vpn_arr[order],
            np.asarray(pfns, dtype=np.int64)[order],
            np.asarray(flags, dtype=np.int8)[order])


def build_page_table(vpns, pfns, flags, asid: int) -> PageTable:
    """Rebuild a page table from :func:`flatten_page_table` arrays."""
    table = PageTable(asid=asid)
    for vpn, pfn, flag in zip(vpns, pfns, flags):
        table.map_page(int(vpn), int(pfn),
                       huge=bool(flag & 1),
                       writable=bool(flag & 2))
    return table


def save_trace(trace: Trace, path: Union[str, Path]) -> Path:
    """Write a trace (access stream + translations) to ``path``.

    The ``.npz`` suffix is appended if missing. Returns the final path.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    vpns, pfns, flags = flatten_page_table(trace.process.page_table)
    meta = {
        "version": _FORMAT_VERSION,
        "app": trace.app,
        "condition": trace.condition.value,
        "mlp": trace.mlp,
        "huge_fraction": trace.huge_fraction,
        "asid": trace.process.page_table.asid,
    }
    np.savez_compressed(
        path,
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        pc=trace.pc, va=trace.va, is_write=trace.is_write,
        inst_gap=trace.inst_gap, dep_dist=trace.dep_dist,
        vpns=vpns, pfns=pfns, flags=flags,
    )
    return path


class ReplayProcess(Process):
    """A read-only process shell reconstructed from a saved trace."""

    def __init__(self, page_table: PageTable):
        # Deliberately skip Process.__init__: there is no live physical
        # memory behind a replayed trace.
        self.memory = None
        self.page_table = page_table
        self.regions = []
        self._owned = set()
        self._next_va = self.HEAP_BASE

    def touch(self, va: int) -> int:  # pragma: no cover - guard only
        raise RuntimeError("replayed traces are read-only; "
                           "cannot fault new pages")


#: Backwards-compatible alias (pre-substrate name).
_ReplayProcess = ReplayProcess


def load_trace(path: Union[str, Path]) -> Trace:
    """Load a trace previously written by :func:`save_trace`."""
    path = Path(path)
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        if meta.get("version") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported trace format version {meta.get('version')}")
        table = build_page_table(data["vpns"], data["pfns"],
                                 data["flags"], asid=int(meta["asid"]))
        return Trace(
            app=meta["app"],
            condition=MemoryCondition(meta["condition"]),
            process=ReplayProcess(table),
            pc=data["pc"].copy(),
            va=data["va"].copy(),
            is_write=data["is_write"].copy(),
            inst_gap=data["inst_gap"].copy(),
            dep_dist=data["dep_dist"].copy(),
            mlp=float(meta["mlp"]),
            huge_fraction=float(meta["huge_fraction"]),
        )
