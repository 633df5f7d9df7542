"""Figure 17 — way prediction interacting with SIPT: cache energy.

Cache-hierarchy energy, normalized to the baseline L1, for the baseline
with way prediction, SIPT with IDB, and SIPT with IDB + way prediction.

Reproduced claims: way prediction cuts ~24% of the baseline's cache
energy; SIPT alone already removes most of the dynamic-energy headroom
(2-way arrays), so way prediction on top of SIPT saves only a couple of
percent more — but it does save, stably across applications.
"""

from conftest import print_table

from repro.figures import FIG17, column_means, compute
from repro.sim import arithmetic_mean


def test_fig17_waypred_energy(benchmark, traces, store):
    table = benchmark.pedantic(compute, args=(FIG17,),
                               kwargs=dict(traces=traces, store=store),
                               rounds=1, iterations=1)
    print_table(*FIG17.render(table))
    avgs = column_means(table, ("base_wp", "sipt", "sipt_wp"),
                        arithmetic_mean)

    # Way prediction helps the baseline substantially.
    assert avgs["base_wp"] < 0.95
    # SIPT+WP is the most efficient configuration...
    assert avgs["sipt_wp"] < avgs["sipt"]
    # ...but the increment over SIPT alone is small: SIPT's 2-way arrays
    # already removed most of the parallel-way energy.
    assert (avgs["sipt"] - avgs["sipt_wp"]) < (1.0 - avgs["base_wp"])
