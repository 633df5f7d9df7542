"""Cross-model validation — analytic vs dependence-graph OOO core.

The headline results use the fast analytic OOO model; this bench
re-runs the Fig. 13 experiment (SIPT 32K/2w vs baseline) under the
dependence-graph "detailed" core on a representative app subset and
checks that the two models agree on the conclusions: SIPT speeds up
every app, big winners stay big, and memory-bound apps stay flat.
"""

from conftest import print_table

from repro.figures import CROSSMODEL, CROSSMODEL_APPS as APPS
from repro.figures import column_means, compute


def test_crossmodel(benchmark, traces, store):
    table = benchmark.pedantic(compute, args=(CROSSMODEL,),
                               kwargs=dict(traces=traces, store=store),
                               rounds=1, iterations=1)
    print_table(*CROSSMODEL.render(table))
    avg_a, avg_d = column_means(table, ("analytic", "detailed"),
                                apps=APPS).values()

    # Both models agree SIPT helps on average and never hurts much.
    assert avg_a > 1.0 and avg_d > 1.0
    for app in APPS:
        assert table[app]["detailed"] > 0.98, app
    # Directional agreement per app: where one model sees a clear win
    # (>3%), the other must at least see an improvement.
    for app in APPS:
        if table[app]["analytic"] > 1.03:
            assert table[app]["detailed"] > 1.0, app
    # The memory-bound apps are flat under both models.
    for app in ("graph500", "mcf"):
        assert table[app]["detailed"] < 1.1
