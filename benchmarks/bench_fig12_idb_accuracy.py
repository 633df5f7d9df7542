"""Figure 12 — accuracy of the combined bypass + IDB predictor.

For 1, 2, and 3 speculative bits: the fraction of accesses that are fast
through correct speculation, fast through an IDB hit (including reversed
single-bit prediction), or slow/extra.

Reproduced claims: with one bit, >90% of accesses become fast for nearly
every app; the apps that had almost no fast accesses under the bypass
predictor alone (cactusADM, gromacs, calculix class) convert to majority
fast; with 2-3 bits the combined predictor still converts most slow
accesses (paper: gcc/calculix/xz_17 reach >70%).
"""

from conftest import print_table

from repro.figures import FIG12, compute
from repro.workloads import EVALUATED_APPS, LOW_SPECULATION_APPS


def test_fig12_idb_accuracy(benchmark, traces, store):
    table = benchmark.pedantic(compute, args=(FIG12,),
                               kwargs=dict(traces=traces, store=store),
                               rounds=1, iterations=1)
    print_table(*FIG12.render(table))

    # One speculative bit: the reversed prediction makes nearly every
    # access fast, including the seven low-speculation apps.
    low_fast = [table[app][1]["fast"] for app in LOW_SPECULATION_APPS]
    assert min(low_fast) > 0.7
    ge90 = sum(1 for app in EVALUATED_APPS
               if table[app][1]["fast"] >= 0.9)
    assert ge90 >= 20
    # 2-3 bits: the IDB still converts most slow accesses.
    for app in ("gcc", "calculix", "xz_17", "cactusADM", "gromacs"):
        assert table[app][2]["fast"] > 0.6, app
    # The IDB is doing real work: for constant-delta apps the fast
    # fraction comes (almost) entirely from IDB hits.
    assert table["calculix"][2]["idb_hit"] > 0.8
