"""Physical-memory fragmentation tool (stand-in for Kwon et al.'s fragmenter).

Section VII-B of the paper evaluates SIPT on a machine whose physical
memory was artificially fragmented to an unusable-free-space index
Fu(9) > 0.95. We reproduce that condition inside the model: allocate most
of memory as single pages, then free a scattered subset so plenty of
memory is *free* but almost none of it is *contiguous*. As in the paper,
this degrades large allocations (and hence THP and mapping contiguity)
without ever running out of memory.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .buddy import HUGE_PAGE_ORDER, BuddyAllocator


def unusable_free_space_index(buddy: BuddyAllocator,
                              order: int = HUGE_PAGE_ORDER) -> float:
    """Convenience wrapper matching the paper's Fu(j) notation."""
    return buddy.unusable_free_space_index(order)


def fragment_memory(buddy: BuddyAllocator,
                    target_fu: float = 0.95,
                    free_fraction: float = 0.35,
                    order: int = HUGE_PAGE_ORDER,
                    rng: Optional[np.random.Generator] = None) -> float:
    """Fragment ``buddy`` until ``Fu(order) >= target_fu``.

    Strategy (mirrors how the Kwon et al. tool and real long-uptime systems
    end up): grab *every* free page as an order-0 allocation, then free a
    pseudo-random subset of even-numbered frames. Each freed frame's buddy
    remains allocated, so nothing can coalesce: plenty of memory is free
    (``free_fraction`` of the total, roughly) but all of it sits on the
    order-0 free list. Returns the achieved Fu(order).

    The pages this tool keeps allocated are intentionally leaked — they
    model other processes' memory, pinning the fragmented layout in place.
    """
    if not 0.0 <= target_fu <= 1.0:
        raise ValueError("target_fu must be in [0, 1]")
    rng = rng or np.random.default_rng(0)
    if buddy.unusable_free_space_index(order) >= target_fu:
        return buddy.unusable_free_space_index(order)

    grabbed = buddy.allocate_all_order0()
    _free_short_runs(buddy, grabbed, free_fraction, rng)
    return buddy.unusable_free_space_index(order)


#: Run lengths freed inside each window, and their weights. Short runs
#: survive on real fragmented systems (order 1-4 blocks keep existing
#: even at Fu(9) > 0.95) and are what preserves *some* mapping
#: contiguity — the reason the paper's predictors degrade only mildly.
_RUN_LENGTHS = np.array([1, 2, 4, 8, 16])
_RUN_WEIGHTS = np.array([0.05, 0.10, 0.15, 0.25, 0.45])
_WINDOW = 32


def _free_short_runs(buddy: BuddyAllocator, grabbed: np.ndarray,
                     free_fraction: float,
                     rng: np.random.Generator) -> None:
    """Free scattered short runs so only small blocks ever coalesce.

    The frame range is viewed as 32-frame windows; in a random subset of
    windows the aligned leading run (1 to 16 frames) is freed and the
    rest stays allocated. Runs coalesce up to order 4 at most, so Fu(9)
    stays at 1.0 — extreme fragmentation for huge allocations — while
    small allocation bursts can still find a few contiguous frames.

    Windows are visited in a random order until ``free_fraction`` of
    memory is freed, skipping any whose run was not wholly ``grabbed``.
    Each window is visited once, so a grabbed run is still held when
    its turn comes: the runs to free are chosen array-wise up front and
    freed in visiting order in one buddy pass.
    """
    n_windows = buddy.total_frames // _WINDOW
    target = int(buddy.total_frames * free_fraction)
    windows = rng.permutation(n_windows)
    lengths = rng.choice(_RUN_LENGTHS, size=n_windows,
                         p=_RUN_WEIGHTS / _RUN_WEIGHTS.sum())
    held = np.zeros(buddy.total_frames + 1, dtype=np.int64)
    held[grabbed + 1] = 1
    held = np.cumsum(held)                 # held[f]: grabbed frames < f
    bases = windows * _WINDOW
    whole = held[bases + lengths] - held[bases] == lengths
    freed = np.where(whole, lengths, 0)
    # The visit that finds ``target`` already freed stops the walk.
    chosen = whole & (np.cumsum(freed) - freed < target)
    buddy.free_runs(bases[chosen].tolist(),
                    np.log2(lengths[chosen]).astype(np.int64).tolist())
