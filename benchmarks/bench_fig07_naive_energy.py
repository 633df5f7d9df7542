"""Figure 7 — cache hierarchy energy with naive SIPT (32K/2w/2c, OOO).

Total and dynamic cache-hierarchy energy normalized to the baseline L1,
with the ideal cache for comparison.

Reproduced claims: naive SIPT cuts total cache energy substantially
(paper: to 74.4% of baseline on average) but the extra accesses leave a
gap to ideal (paper: 8.5%); hugepage-heavy apps (libquantum, GemsFDTD)
are already at ideal.
"""

from conftest import print_table

from repro.figures import ENERGY_COLUMNS, FIG7, column_means, compute
from repro.sim import arithmetic_mean


def test_fig07_naive_energy(benchmark, traces, store):
    table = benchmark.pedantic(compute, args=(FIG7,),
                               kwargs=dict(traces=traces, store=store),
                               rounds=1, iterations=1)
    print_table(*FIG7.render(table))
    avgs = column_means(table, ENERGY_COLUMNS, arithmetic_mean)

    # Naive SIPT saves energy overall but stays above ideal.
    assert avgs["energy"] < 0.95
    assert avgs["energy"] > avgs["ideal"]
    # Dynamic energy shrinks dramatically (0.10 nJ vs 0.38 nJ arrays).
    assert avgs["dyn_sipt"] < avgs["dyn_base"]
    # Hugepage apps match ideal energy.
    for app in ("libquantum", "GemsFDTD"):
        assert abs(table[app]["energy"] - table[app]["ideal"]) < 0.02
