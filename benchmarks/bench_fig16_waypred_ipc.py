"""Figure 16 — way prediction interacting with SIPT: IPC and accuracy.

Three schemes per app: the baseline 8-way L1 with MRU way prediction,
32K/2-way SIPT with IDB, and SIPT with both IDB and way prediction.

Reproduced claims: way prediction on the 8-way baseline is ~89% accurate
and costs ~2% performance; on 2-way SIPT its accuracy rises (paper:
97.3%) and the performance cost shrinks (paper: 0.3%).
"""

from conftest import print_table

from repro.figures import FIG16, column_means, compute
from repro.sim import arithmetic_mean, harmonic_mean
from repro.workloads import EVALUATED_APPS


def test_fig16_waypred_ipc(benchmark, traces, store):
    table = benchmark.pedantic(compute, args=(FIG16,),
                               kwargs=dict(traces=traces, store=store),
                               rounds=1, iterations=1)
    print_table(*FIG16.render(table))
    acc_base, acc_sipt = column_means(
        table, ("base_wp_acc", "sipt_wp_acc"), arithmetic_mean).values()
    ipc_sipt, ipc_sipt_wp = column_means(table, ("sipt", "sipt_wp")).values()

    # Lower associativity makes MRU prediction much more accurate.
    assert acc_sipt > acc_base
    assert acc_sipt > 0.9
    # Way prediction costs SIPT almost nothing.
    assert (ipc_sipt - ipc_sipt_wp) < 0.01
    # On the 8-way baseline, mispredictions cost some performance.
    base_wp_avg = harmonic_mean([table[a]["base_wp"]
                                 for a in EVALUATED_APPS])
    assert base_wp_avg <= 1.0
