"""Trace serialization: save/load synthesized traces as ``.npz`` files.

The paper's methodology captures traces once (with Linux pagemap state)
and replays them across configurations. This module provides the same
workflow: a trace's access stream *and* its VA->PA mapping are saved
together, so a loaded trace replays bit-identically without
re-simulating the OS memory system.

The page table is flattened to three arrays (vpn, pfn, flags); the
process restored on load is a read-only shell over an
:class:`~repro.mem.page_table.ArrayPageTable` — sufficient for replay,
which only translates. :func:`freeze_trace` turns a freshly generated
trace into the same shell, so a cached, an attached and a loaded trace
all replay one representation.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ..mem.address_space import Process, VmStats
from ..mem.page_table import ArrayPageTable, PageTable, flatten_page_table
from .trace import MemoryCondition, Trace

_FORMAT_VERSION = 1


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
    """A read-only process shell: a page table and nothing behind it.

    What a loaded, attached or frozen trace replays against. ``stats``
    are the generating process's fault counts when known.
    """

    def __init__(self, page_table: PageTable,
                 stats: Optional[VmStats] = None):
        # Deliberately skip Process.__init__: there is no live physical
        # memory behind a replayed trace.
        self.memory = None
        self.page_table = page_table
        self.regions = []
        self._owned = set()
        self.stats = stats if stats is not None else VmStats()
        self._next_va = self.HEAP_BASE

    def touch(self, va: int) -> int:  # pragma: no cover - guard only
        raise RuntimeError("replayed traces are read-only; "
                           "cannot fault new pages")


def freeze_trace(trace: Trace) -> Trace:
    """``trace`` with only what replay reads: the same columns over a
    :class:`ReplayProcess` on an :class:`ArrayPageTable`.

    A generated trace's process pins its whole generation-time OS
    image — the :class:`~repro.mem.address_space.PhysicalMemory`, its
    buddy allocator and a dict page table with one entry per mapped
    page — none of which replay touches. The frozen copy translates
    identically, so it replays byte-identically, and the image is freed
    once the live trace is dropped.
    """
    table = trace.process.page_table
    frozen = ArrayPageTable(*flatten_page_table(table), asid=table.asid)
    return dataclasses.replace(
        trace, process=ReplayProcess(frozen, trace.process.stats))


def load_trace(path: Union[str, Path]) -> Trace:
    """Load a trace previously written by :func:`save_trace`."""
    path = Path(path)
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        if meta.get("version") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported trace format version {meta.get('version')}")
        table = ArrayPageTable(data["vpns"], data["pfns"], data["flags"],
                               asid=int(meta["asid"]))
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
