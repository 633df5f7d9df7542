"""Figure 5 — fraction of correct speculations vs number of index bits.

For each application, the fraction of memory accesses whose speculative
index bits (1, 2, or 3 bits beyond the page offset) are unchanged by
translation, plus the fraction landing on transparent huge pages (for
which 9 bits are guaranteed).

Reproduced claims: huge-page-heavy apps (libquantum, GemsFDTD) are
almost fully safe; a handful of applications (the paper's seven:
deepsjeng_17, cactusADM, calculix, graph500, ycsb, xalancbmk_17,
gromacs) have minority fast accesses even with one speculative bit.
"""

from conftest import fmt, print_table

from repro.workloads import EVALUATED_APPS, LOW_SPECULATION_APPS
from repro.workloads.substrate import columns_for


def speculation_profile(trace):
    """Per bit count, the fraction of accesses whose low index bits
    survive translation (``index_delta`` zero under the mask)."""
    delta = columns_for(trace).index_delta
    n = len(delta)
    return {bits: int(((delta & ((1 << bits) - 1)) == 0).sum()) / n
            for bits in (1, 2, 3)}


def run_fig5(traces):
    table = {}
    for app in EVALUATED_APPS:
        trace = traces.get(app)
        profile = speculation_profile(trace)
        profile["huge"] = trace.huge_fraction
        table[app] = profile
    return table


def test_fig05_speculation(benchmark, traces):
    table = benchmark.pedantic(run_fig5, args=(traces,),
                               rounds=1, iterations=1)
    rows = [(app, fmt(table[app][1], 2), fmt(table[app][2], 2),
             fmt(table[app][3], 2), fmt(table[app]["huge"], 2))
            for app in EVALUATED_APPS]
    print_table("Fig. 5: fraction of accesses with unchanged index bits",
                ["app", "1-bit", "2-bit", "3-bit", "hugepage(9-bit)"],
                rows)

    # Success can only decrease as more bits must survive translation.
    for app in EVALUATED_APPS:
        assert table[app][1] >= table[app][2] >= table[app][3]

    # Huge-page apps are nearly fully safe for <= 9 bits.
    for app in ("libquantum", "GemsFDTD"):
        assert table[app]["huge"] > 0.9
        assert table[app][3] > 0.9

    # The paper's low-speculation apps have minority fast accesses at
    # one bit; most other apps have a clear majority.
    for app in LOW_SPECULATION_APPS:
        assert table[app][1] < 0.55, app
    majority = [app for app in EVALUATED_APPS
                if app not in LOW_SPECULATION_APPS and table[app][1] > 0.5]
    assert len(majority) >= 14
