"""Figure 14 — cache hierarchy energy, SIPT with IDB (OOO core).

Total and dynamic energy of the 32K/2-way/2-cycle SIPT cache with the
combined predictor, normalized to baseline, against the ideal cache.

Reproduced claims: SIPT+IDB approaches ideal energy (paper: within
~2.4%, slightly further than the speedup gap because aggressive value
speculation adds some extra L1 accesses).
"""

from conftest import print_table

from repro.figures import ENERGY_COLUMNS, FIG14, column_means, compute
from repro.sim import arithmetic_mean


def test_fig14_sipt_energy(benchmark, traces, store):
    table = benchmark.pedantic(compute, args=(FIG14,),
                               kwargs=dict(traces=traces, store=store),
                               rounds=1, iterations=1)
    print_table(*FIG14.render(table))
    avgs = column_means(table, ENERGY_COLUMNS, arithmetic_mean)

    # SIPT+IDB saves substantial energy and closes most of the gap to
    # ideal that naive SIPT left open.
    assert avgs["energy"] < 0.9
    assert avgs["energy"] >= avgs["ideal"] - 1e-9
    assert (avgs["energy"] - avgs["ideal"]) < 0.05
    # Dynamic energy falls well below the baseline's dynamic share.
    assert avgs["dyn_sipt"] < avgs["dyn_base"]
