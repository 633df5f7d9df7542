"""Golden digests of whole memory images, not just trace columns.

``trace_fingerprint`` hashes only the five raw columns, so a change to
frame placement (which frames back which pages, what the buddy free
lists look like afterwards) is invisible to it and to every CSV gate
computed from the same changed traces. These digests pin the complete
state a trace generation leaves behind: the raw columns, the derived
``ppn`` column, ``huge_fraction``, the process's fault counters, and
the buddy allocator's free blocks, live allocations and counters.

The digests were computed with the per-frame reference implementations
of demand paging and the fragmenter; any optimisation of memory-image
construction must reproduce them exactly.
"""

import dataclasses
import hashlib

import pytest

from repro.workloads.shared import (SHARING_KINDS, SharedWorkload,
                                    generate_shared_traces)
from repro.workloads.spec import get_profile
from repro.workloads.substrate import RAW_COLUMNS, columns_for
from repro.workloads.trace import (GENERATOR_VERSION, MemoryCondition,
                                   generate_trace)

#: The six ``sweep-cold`` benchmark apps, plus one more app of each
#: allocation style (thp_big, chunked, offset, scattered).
APPS = ("mcf", "perlbench", "libquantum", "gamess", "omnetpp", "graph500",
        "leslie3d", "hmmer", "gromacs", "xalancbmk_17")
ACCESSES = 2000
SEED = 0

GOLDEN = {
    ("mcf", "normal"):
        "e886a687f84b607fc3e84dab12a888f7aa5b4995d70624f756e14ee96579cfd8",
    ("mcf", "fragmented"):
        "6123853563ac7038ac93950f575d828984a45dd13e978e8ae784b0bc6718015a",
    ("mcf", "thp_off"):
        "8ed28fef42169068d125ddd82255aeffd2efe0ac5b1d226589f0f72881e33597",
    ("perlbench", "normal"):
        "dadc21cb7a8316f68281c7637beabf8d160615bcf919fe92ce3e73f2dfa035f6",
    ("perlbench", "fragmented"):
        "a76c5353e0ee866e38fd9bcf3a7a1ca3381b234ebf27b654029be429472e60a3",
    ("perlbench", "thp_off"):
        "aac01c09b3c65777cf7e45b574e7bbf246f73cbe17f5aa499a16a3809675dd67",
    ("libquantum", "normal"):
        "3df4e07b42275b56b8066a4ae86d5d51ace6b06a54b145b0462584ca7c3fa194",
    ("libquantum", "fragmented"):
        "c5a992fd086e429e229826e51b2d31589ee63edf509f569b02d8e929678e4f82",
    ("libquantum", "thp_off"):
        "3e9e513f106f214824640ff9102679ba7f1bd8f5d34052434cb4e3a2c3ca5a3e",
    ("gamess", "normal"):
        "ea2041c5608b4ba9fbb1dfc910d98612414c52d2ad5f046cdb5ba7508d5fccf3",
    ("gamess", "fragmented"):
        "ba0998d768cffd5a2e466429859b7758cd9da515a736146deb6e4edb073c5032",
    ("gamess", "thp_off"):
        "39578eab9ae26adc5a94e251ab091f45ca94847137af79dbda191d540c55ad01",
    ("omnetpp", "normal"):
        "114df9ad5d3370051bc2407560f3c5fde86e30c9f6e6abcf93a22ae84c097ca2",
    ("omnetpp", "fragmented"):
        "1978efe92f38f95e07ff5efab8ee371ccf8cc1602f217627b0adbc1b23fa2ac2",
    ("omnetpp", "thp_off"):
        "d3c4f3fb7e5f04fdd6314e5d573d2588b1904546c12dbb46b615862097870696",
    ("graph500", "normal"):
        "476cb806ea7076486dfc369c7e29f748fc082bc281aeb5c0ed75172a1026185b",
    ("graph500", "fragmented"):
        "0a09071bf60b8db43d38871e9231d1cb303a56dfac59b288bd9b034d21c6b9dc",
    ("graph500", "thp_off"):
        "937c3700fa6e1c1759bd61654a70cd2da252ed7cdc090457f043083bc4dc3d2d",
    ("leslie3d", "normal"):
        "1612a2d22c891fad7afe717da1bbcaa1d188e55c1835bbb8a8f69cd2dc84bf0e",
    ("leslie3d", "fragmented"):
        "0a024cfd4f3060a46b42fcd17ae6697f7c341fafc984c3121fe5f6990153438f",
    ("leslie3d", "thp_off"):
        "feb33882e8ec658ba5bedbd131a619a8723234ad4a2e45fb6ffed1c0791f525b",
    ("hmmer", "normal"):
        "e71fcbc60a2f8462fcb6745b82aa39577a23a7fd7b290e8103f5151e9c341781",
    ("hmmer", "fragmented"):
        "05cd621f1e6060fc7646e3543ed14e8a0d34ee0c636976b52d24f44e1a4502f5",
    ("hmmer", "thp_off"):
        "50b9c5f17207656c7ad7750d60b1687555c93ec3f89fdc03b7d442deaaf1d0c2",
    ("gromacs", "normal"):
        "10de8d7933b639fe142b22e8cfacc0dff025dc9474ab83a474c951d0a7a744a4",
    ("gromacs", "fragmented"):
        "907e9cd4862161ef5ad4b13c29da8d722c5b7ffed34547ed236c06217fdfeb5c",
    ("gromacs", "thp_off"):
        "0ef12ae2d21e6484a229e28b3e8c29446743d7b05ecdce3d13218b88ae81f3f0",
    ("xalancbmk_17", "normal"):
        "4c66728c8e26711487a02ed82cd1b015c7957383f3b5188bb1e5acc592670544",
    ("xalancbmk_17", "fragmented"):
        "2caca85275e01bb42cd49e5ffd7d3b2e8c1925f0d5bb3834eeda66409b18a67b",
    ("xalancbmk_17", "thp_off"):
        "948b8690d3d33b97d3df0670118a6b0bf57a4f38bb5e8ae0598d31d093b64d4c",
}


#: The ``GENERATOR_VERSION`` each state of :data:`GOLDEN` was blessed
#: under, as a digest of the table. Journals, checkpoints and store
#: entries are keyed by trace recipes that carry the version, so
#: re-blessing a golden without bumping the version would let them
#: serve results of the old traces: add the new version's digest here
#: instead of editing an old one.
BLESSED = {
    1: "d7d37d8102c2c8710547e539531bb8f5b4b58286643d636c6933db5013ee5019",
}


def test_goldens_are_pinned_to_the_generator_version():
    table = hashlib.sha256(repr(sorted(GOLDEN.items())).encode())
    assert GENERATOR_VERSION == max(BLESSED)
    assert table.hexdigest() == BLESSED[GENERATOR_VERSION]


def memory_image_digest(trace) -> str:
    """sha256 over every observable piece of a trace's memory image."""
    h = hashlib.sha256()

    def put(tag, payload):
        h.update(tag.encode())
        h.update(payload if isinstance(payload, bytes)
                 else repr(payload).encode())

    for name in RAW_COLUMNS:
        column = getattr(trace, name)
        put(name, column.dtype.str)
        put(name, column.tobytes())
    ppn = columns_for(trace).ppn
    put("ppn", ppn.dtype.str)
    put("ppn", ppn.tobytes())
    put("huge_fraction", trace.huge_fraction)
    put("vm_stats", dataclasses.astuple(trace.process.stats))
    buddy = trace.process.memory.buddy
    put("free_blocks", sorted(buddy._free_blocks.items()))
    put("allocated", sorted(buddy.allocated_blocks().items()))
    put("buddy_stats", dataclasses.astuple(buddy.stats))
    return h.hexdigest()


def test_coverage_spans_every_alloc_style():
    styles = {get_profile(app).alloc_style for app in APPS[6:]}
    assert styles == {"thp_big", "chunked", "offset", "scattered"}


@pytest.mark.parametrize("condition", list(MemoryCondition),
                         ids=lambda c: c.value)
@pytest.mark.parametrize("app", APPS)
def test_memory_image_matches_golden(app, condition):
    trace = generate_trace(app, ACCESSES, condition, seed=SEED)
    assert memory_image_digest(trace) == GOLDEN[(app, condition.value)]


# ----------------------------------------------------------------------
# shared-memory traces: THP-ineligible regions in one shared process
# ----------------------------------------------------------------------
#: One process maps a shared segment plus a private region per thread,
#: all with ``thp_eligible=False``; the app goldens above never populate
#: more than one data process in a conditioned memory.
SHARED_CONDITIONS = (MemoryCondition.NORMAL, MemoryCondition.FRAGMENTED)

SHARED_GOLDEN = {
    ("partitioned", "normal"):
        "30f88df5ad27f68eee5705adfb97b199ade79c6dc8181a8497127d104a15f81f",
    ("partitioned", "fragmented"):
        "5da6103e92f821ca898103fa5ad5e4de046814c786d21206908d2d5ab1f25702",
    ("producer_consumer", "normal"):
        "4ef2ee833929f8440e37bc946b9fa776191e5d128e39be9356ca5112696a3202",
    ("producer_consumer", "fragmented"):
        "61fa6b72cb2ceee5f737127abbedfcfa499777f69136599abf7799ad89b7bbba",
    ("contended", "normal"):
        "f2f2646d71a82e4242c8285b0e70fb83d90aa462a4fa3c7fe43cc4a9ff87c2d6",
    ("contended", "fragmented"):
        "173be812d42a33259d0b2152e55c2fb665a027340bfd066b60bdab2c109432bc",
}


def shared_image_digest(traces) -> str:
    """sha256 over the memory-image digests of every thread's trace."""
    h = hashlib.sha256()
    for trace in traces:
        h.update(memory_image_digest(trace).encode())
    return h.hexdigest()


@pytest.mark.parametrize("condition", SHARED_CONDITIONS,
                         ids=lambda c: c.value)
@pytest.mark.parametrize("kind", SHARING_KINDS)
def test_shared_memory_image_matches_golden(kind, condition):
    traces = generate_shared_traces(SharedWorkload(kind=kind), ACCESSES,
                                    condition, seed=SEED)
    assert (shared_image_digest(traces)
            == SHARED_GOLDEN[(kind, condition.value)])
