"""Figure 15 — SIPT with IDB on an OOO quad core (11 mixes, Tab. III).

Sum-of-IPC speedup, extra L1 accesses, and cache-hierarchy energy for
the four SIPT geometries, normalized to the quad-core baseline. The
shared LLC is scaled to 4x its single-core capacity, and traces are
recycled until the last core finishes, per Section VI-B.

Reproduced claims: mixes show less variability than single apps; the
32K/2-way configuration performs best (paper: +8.1% average); energy
savings persist but are smaller than single-core because static energy
weighs more.
"""

from conftest import print_table

from repro.figures import FIG15, compute
from repro.sim import SIPT_GEOMETRIES, arithmetic_mean


def test_fig15_multicore(benchmark, traces, store):
    table = benchmark.pedantic(compute, args=(FIG15,),
                               kwargs=dict(traces=traces, store=store),
                               rounds=1, iterations=1)
    print_table(*FIG15.render(table))
    avgs = {k: arithmetic_mean([table[m][k]["speedup"] for m in table])
            for k in SIPT_GEOMETRIES}
    avg_energy = {k: arithmetic_mean([table[m][k]["energy"]
                                      for m in table])
                  for k in SIPT_GEOMETRIES}

    # The 32K/2-way SIPT cache performs best of the four geometries.
    best = max(avgs, key=avgs.get)
    assert best == "32K_2w"
    assert avgs["32K_2w"] > 1.0
    # Energy still improves for the 32K/2w configuration.
    assert avg_energy["32K_2w"] < 1.0
    # Mixes vary less than single apps: speedup spread is modest.
    spread = (max(table[m]["32K_2w"]["speedup"] for m in table)
              - min(table[m]["32K_2w"]["speedup"] for m in table))
    assert spread < 0.25
