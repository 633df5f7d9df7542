"""Figure 13 — IPC and extra L1 accesses, SIPT with IDB (OOO core).

The full SIPT design (32K/2-way/2-cycle, combined bypass + IDB) against
the baseline L1 and the ideal cache.

Reproduced claims: SIPT with IDB approaches the ideal cache (paper:
+5.9% average, 2.3% from ideal, single core); it never underperforms the
baseline; the apps the paper names (h264ref, cactusADM, calculix,
leela_17, exchange2_17, gromacs) gain more than 10%.
"""

from conftest import print_table

from repro.figures import FIG13, column_means, compute
from repro.sim import harmonic_mean
from repro.workloads import EVALUATED_APPS


def test_fig13_sipt_ipc(benchmark, traces, store):
    table = benchmark.pedantic(compute, args=(FIG13,),
                               kwargs=dict(traces=traces, store=store),
                               rounds=1, iterations=1)
    print_table(*FIG13.render(table))
    avg, avg_ideal = column_means(table, ("ipc", "ideal")).values()

    # SIPT improves on the baseline and sits close to ideal.
    assert avg > 1.0
    assert avg_ideal >= avg
    assert (avg_ideal - avg) < 0.04
    # SIPT never (materially) underperforms the baseline.
    assert min(table[a]["ipc"] for a in EVALUATED_APPS) > 0.99
    # The paper's named winners show the largest gains.
    named = ["h264ref", "cactusADM", "calculix", "leela_17",
             "exchange2_17", "gromacs"]
    named_avg = harmonic_mean([table[a]["ipc"] for a in named])
    assert named_avg > avg
