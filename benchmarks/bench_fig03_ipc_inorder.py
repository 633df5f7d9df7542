"""Figure 3 — IPC with various (ideal) L1 configurations, in-order core.

Reproduced claims: with an in-order core and a 2-level hierarchy, the
*balanced* 64K/4-way 3-cycle configuration wins (paper: +13% average) —
capacity matters more than on the OOO core — and the 16K/4-way cache is
clearly worse than baseline (paper: -11.3%).
"""

from conftest import print_table

from repro.figures import FIG3, IDEAL_GRID, column_means, compute


def test_fig03_ipc_inorder(benchmark, traces, store):
    table = benchmark.pedantic(compute, args=(FIG3,),
                               kwargs=dict(traces=traces, store=store),
                               rounds=1, iterations=1)
    print_table(*FIG3.render(table))
    averages = column_means(table, IDEAL_GRID)

    # Shape claims: capacity wins on the in-order core.
    best = max(averages, key=averages.get)
    assert best in ("64K_4w", "128K_4w")
    assert averages["64K_4w"] > averages["32K_2w"]
    assert averages["64K_4w"] > 1.02
    # The 16K cache loses on average (capacity it gave up hurts more
    # than its 2-cycle latency helps).
    assert averages["16K_4w"] < 1.0
