"""Access-pattern generators used to synthesize SPEC-like traces.

Each pattern is an endless stream of byte offsets into an application's
data footprint: iterate it for one offset at a time, or call
:meth:`Pattern.take` for the next ``k`` as one array — the same offsets,
drawing the same RNG batches. The trace builder maps offsets onto the
process's allocated regions and attaches PCs, write flags, and
dependence distances.

Patterns provided (the building blocks of the per-app profiles):

* ``sequential``    — streaming walk (libquantum-, bwaves-like).
* ``strided``       — fixed-stride walk (stencil codes).
* ``random_uniform``— uniform random over a working set (mcf-, gcc-like).
* ``zipf``          — hot/cold page mix with a Zipf popularity skew
  (integer codes with hot data structures).
* ``pointer_chase`` — a random cyclic permutation walked one element at a
  time (linked data structures; maximally dependent).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

#: Values random patterns draw from their RNG per call.
BATCH = 1024


class Pattern:
    """An endless stream of byte offsets, served array-wise.

    ``take(k)`` returns the next ``k`` offsets as an int64 array and
    advances the stream past them; iterating yields the same offsets
    one at a time as Python ints.
    """

    __slots__ = ("take",)

    def __init__(self, take: Callable[[int], np.ndarray]):
        self.take = take

    def __iter__(self) -> "Pattern":
        return self

    def __next__(self) -> int:
        return int(self.take(1)[0])


def _batched(draw: Callable[[], np.ndarray]) -> Pattern:
    """A pattern served from ``draw()``'s successive batches.

    A batch is drawn only once the previous one is used up, exactly
    when a generator looping over the batches would draw it.
    """
    batch = np.empty(0, dtype=np.int64)

    def take(k: int) -> np.ndarray:
        nonlocal batch
        parts = []
        while k > len(batch):
            parts.append(batch)
            k -= len(batch)
            batch = draw()
        parts.append(batch[:k])
        batch = batch[k:]
        return np.concatenate(parts)

    return Pattern(take)


def sequential(footprint: int, stride: int = 8,
               rng: np.random.Generator = None,
               start: int = 0, working_set: int = None) -> Pattern:
    """Linear walk over the footprint (or working set), wrapping."""
    span = min(working_set or footprint, footprint)
    if span <= 0 or stride <= 0:
        raise ValueError("footprint and stride must be positive")
    offset = start % span

    def take(k: int) -> np.ndarray:
        nonlocal offset
        out = (offset + stride * np.arange(k, dtype=np.int64)) % span
        offset = (offset + k * stride) % span
        return out

    return Pattern(take)


def strided(footprint: int, stride: int = 256,
            rng: np.random.Generator = None,
            working_set: int = None) -> Pattern:
    """Fixed-stride walk; strides past the end wrap with a phase shift.

    The phase shift on wrap makes successive sweeps touch different lines,
    as column-major stencil sweeps do.
    """
    span = min(working_set or footprint, footprint)
    if span <= 0 or stride <= 0:
        raise ValueError("footprint and stride must be positive")
    offset = 0
    phase = 0

    def take(k: int) -> np.ndarray:
        nonlocal offset, phase
        parts = [np.empty(0, dtype=np.int64)]
        while k > 0:
            sweep = np.arange(offset, min(span, offset + k * stride),
                              stride, dtype=np.int64)
            parts.append(sweep)
            k -= len(sweep)
            offset = int(sweep[-1]) + stride
            if offset >= span:
                phase = (phase + 8) % max(1, min(stride, span))
                offset = phase
        return np.concatenate(parts)

    return Pattern(take)


def random_uniform(footprint: int, working_set: int = None,
                   rng: np.random.Generator = None) -> Pattern:
    """Uniform random offsets within a (possibly smaller) working set."""
    rng = rng or np.random.default_rng(0)
    span = min(working_set or footprint, footprint)
    if span <= 0:
        raise ValueError("working set must be positive")
    return _batched(lambda: rng.integers(0, span, size=BATCH) & ~0x7)


def zipf(footprint: int, alpha: float = 1.2, hot_fraction: float = 0.1,
         rng: np.random.Generator = None, working_set: int = None,
         lines_per_page: int = 16, n_clusters: int = 4) -> Pattern:
    """Zipf-skewed popularity over cache-line-sized hot units.

    ``working_set`` sets the total bytes of hot lines. Hot lines are
    packed ``lines_per_page`` to a page (bounding the TLB footprint, as
    real hot data structures do); the hot pages form ``n_clusters``
    contiguous runs placed at random positions in the footprint —
    programs keep their hot structures in a few compact regions, which
    is also what makes the index delta buffer effective. Each page's
    hot lines occupy random line slots, so the hot set still maps
    near-uniformly onto cache sets at any associativity.
    ``hot_fraction`` is retained for interface symmetry and validated.
    """
    rng = rng or np.random.default_rng(0)
    if not 0 < hot_fraction <= 1:
        raise ValueError("hot_fraction must be in (0, 1]")
    lines_per_page = max(1, min(lines_per_page, 64))
    total_pages = max(1, footprint // 4096)
    span = min(working_set or footprint, footprint)
    n_lines = max(1, span // 64)
    n_pages = min(total_pages, max(1, -(-n_lines // lines_per_page)))
    n_lines = min(n_lines, n_pages * lines_per_page)
    pages = _clustered_pages(total_pages, n_pages, n_clusters, rng)
    # Each hot line i lives at a random line slot of its cluster page.
    line_page = pages[np.arange(n_lines) // lines_per_page]
    line_slot = np.concatenate([
        rng.choice(64, size=min(lines_per_page, n_lines - p * lines_per_page),
                   replace=False)
        for p in range(n_pages)])[:n_lines]
    line_addr = line_page.astype(np.int64) * 4096 + line_slot * 64
    ranks = np.arange(1, n_lines + 1, dtype=np.float64)
    weights = ranks ** -alpha
    weights /= weights.sum()
    order = rng.permutation(n_lines)  # spread hot ranks across pages
    line_addr = line_addr[order]

    def draw() -> np.ndarray:
        picks = rng.choice(n_lines, size=BATCH, p=weights)
        in_line = rng.integers(0, 64, size=BATCH)
        return line_addr[picks] + (in_line & ~0x7)

    return _batched(draw)


def _clustered_pages(total_pages: int, n_pages: int, n_clusters: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Pick ``n_pages`` page numbers as a few contiguous runs."""
    n_pages = min(n_pages, total_pages)
    if 2 * n_pages >= total_pages:
        # Dense working set: clustering is meaningless, take a shuffled
        # prefix of everything (also avoids hunting for the last free
        # pages with random run starts).
        return rng.permutation(total_pages)[:n_pages].astype(np.int64)
    n_clusters = max(1, min(n_clusters, n_pages))
    run_len = -(-n_pages // n_clusters)
    chosen = []
    used = set()
    attempts = 0
    while len(chosen) < n_pages and attempts < 64 * n_clusters:
        attempts += 1
        start = int(rng.integers(0, total_pages))
        run = [p for p in range(start, min(start + run_len, total_pages))
               if p not in used]
        chosen.extend(run[: n_pages - len(chosen)])
        used.update(run)
    if len(chosen) < n_pages:
        # Saturated: top up from whatever pages remain unused.
        rest = [p for p in range(total_pages) if p not in used]
        chosen.extend(rest[: n_pages - len(chosen)])
    return np.asarray(chosen[:n_pages], dtype=np.int64)


def pointer_chase(footprint: int, working_set: int = None,
                  element_size: int = 64,
                  rng: np.random.Generator = None) -> Pattern:
    """Walk a random cyclic permutation of cache-line-sized elements.

    Every access depends on the previous one — the classic linked-list
    traversal that defeats both prefetching and MLP.
    """
    rng = rng or np.random.default_rng(0)
    span = min(working_set or footprint, footprint)
    n_elems = max(2, span // element_size)
    # A random cycle: visit order is a permutation walked repeatedly.
    offsets = rng.permutation(n_elems)
    offsets *= element_size
    position = 0

    def take(k: int) -> np.ndarray:
        nonlocal position
        out = offsets[(position + np.arange(k)) % n_elems]
        position = (position + k) % n_elems
        return out

    return Pattern(take)


PATTERNS = {
    "sequential": sequential,
    "strided": strided,
    "random": random_uniform,
    "zipf": zipf,
    "chase": pointer_chase,
}


def make_pattern(kind: str, footprint: int, rng: np.random.Generator,
                 **params) -> Pattern:
    """Instantiate a pattern by name."""
    try:
        factory = PATTERNS[kind]
    except KeyError:
        raise ValueError(
            f"unknown pattern {kind!r}; choose from {sorted(PATTERNS)}"
        ) from None
    return factory(footprint, rng=rng, **params)
