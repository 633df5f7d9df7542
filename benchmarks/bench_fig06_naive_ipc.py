"""Figure 6 — IPC and additional L1 accesses with *naive* SIPT.

Naive SIPT (32K/2-way/2-cycle, 2 speculative bits, always speculate) on
the OOO core, normalized to the baseline L1, with the ideal-cache IPC
for comparison and the relative extra accesses caused by misspeculation.

Reproduced claims: lower associativity + shorter latency help many apps
(h264ref, perlbench class), but apps with poor VA/PA bit agreement
(calculix, gromacs: <5% success) suffer a flood of extra accesses and a
large gap to ideal.
"""

from conftest import print_table

from repro.figures import FIG6, column_means, compute


def test_fig06_naive_ipc(benchmark, traces, store):
    table = benchmark.pedantic(compute, args=(FIG6,),
                               kwargs=dict(traces=traces, store=store),
                               rounds=1, iterations=1)
    print_table(*FIG6.render(table))
    avg_ipc, avg_ideal = column_means(table, ("ipc", "ideal")).values()

    # Naive SIPT trails ideal on average: misspeculation hurts.
    assert avg_ipc < avg_ideal
    # Apps with near-zero speculation success generate extra accesses
    # approaching one per access.
    for app in ("calculix", "gromacs"):
        assert table[app]["extra"] > 0.8
    # Hugepage-backed apps lose nothing.
    for app in ("libquantum", "GemsFDTD"):
        assert table[app]["extra"] < 0.02
        assert table[app]["ipc"] >= 0.99 * table[app]["ideal"]
