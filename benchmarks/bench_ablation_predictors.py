"""Ablation — predictor design choices discussed in Section V.

Two claims the paper makes without dedicated figures:

1. *Counter-based predictors are inferior*: "their average accuracy is
   only ~85% and not consistent across applications" vs >90% for the
   perceptron everywhere.
2. *The perceptron is insensitive to sizing*: "increasing the number of
   perceptrons and increasing the history length ... did not show
   strong sensitivity".

This bench replays each application's bypass ground truth (index bits
unchanged or not, at 2 speculative bits) through alternative predictor
configurations and reports accuracy.
"""

from conftest import fmt, print_table

from repro.core import CounterBypassPredictor, PerceptronPredictor
from repro.workloads import EVALUATED_APPS
from repro.workloads.substrate import columns_for

N_BITS = 2

PREDICTORS = {
    "counter-2bit": lambda: CounterBypassPredictor(counter_bits=2),
    "counter-3bit": lambda: CounterBypassPredictor(counter_bits=3),
    "perceptron-64x12": lambda: PerceptronPredictor(),
    "perceptron-128x12": lambda: PerceptronPredictor(n_entries=128),
    "perceptron-64x24": lambda: PerceptronPredictor(history_length=24),
}


def replay_accuracy(trace, make_predictor):
    predictor = make_predictor()
    delta = columns_for(trace).index_delta
    truth = ((delta & ((1 << N_BITS) - 1)) == 0).tolist()
    correct = 0
    n = len(trace.va)
    for pc, unchanged in zip(trace.pc.tolist(), truth):
        if predictor.predict(pc) == unchanged:
            correct += 1
        predictor.update(pc, unchanged)
    return correct / n


def phase_changing_accuracy(make_predictor, period=3):
    """Accuracy on a phase-changing load (truth flips every ``period``).

    Real applications remap/reuse memory in phases, producing loads
    whose bypass truth correlates with recent global history rather
    than with a fixed per-PC bias — the regime where the paper found
    counters inferior. Synthetic traces in this repo have very stable
    per-PC truth, so this stress isolates the effect directly.
    """
    predictor = make_predictor()
    pc = 0x400
    correct = 0
    total = 3000
    for i in range(total):
        truth = (i // period) % 2 == 0
        if predictor.predict(pc) == truth:
            correct += 1
        predictor.update(pc, truth)
    return correct / total


def run_ablation(traces):
    table = {}
    for app in EVALUATED_APPS:
        trace = traces.get(app)
        table[app] = {name: replay_accuracy(trace, factory)
                      for name, factory in PREDICTORS.items()}
    table["<phase-changing>"] = {
        name: phase_changing_accuracy(factory)
        for name, factory in PREDICTORS.items()}
    return table


def test_ablation_predictors(benchmark, traces):
    table = benchmark.pedantic(run_ablation, args=(traces,),
                               rounds=1, iterations=1)
    names = list(PREDICTORS)
    labels = EVALUATED_APPS + ["<phase-changing>"]
    rows = [(app, *[fmt(table[app][n]) for n in names]) for app in labels]
    avgs = {n: sum(table[app][n] for app in EVALUATED_APPS)
            / len(EVALUATED_APPS) for n in names}
    rows.append(("Average(apps)", *[fmt(avgs[n]) for n in names]))
    print_table("Ablation: bypass predictor alternatives "
                "(accuracy at 2 speculative bits)",
                ["app", *names], rows)

    # On this repo's traces per-PC truth is stable, so counters and
    # perceptrons are both highly accurate and close to each other.
    assert avgs["perceptron-64x12"] > 0.9
    assert abs(avgs["perceptron-64x12"] - avgs["counter-2bit"]) < 0.05
    # The paper's counter deficiency shows on phase-changing behaviour:
    # the history-correlated perceptron adapts, the counters cannot.
    phase = table["<phase-changing>"]
    assert phase["perceptron-64x12"] > phase["counter-2bit"] + 0.15
    # Sizing the perceptron up changes little (paper Section V).
    assert abs(avgs["perceptron-128x12"] - avgs["perceptron-64x12"]) < 0.03
    assert abs(avgs["perceptron-64x24"] - avgs["perceptron-64x12"]) < 0.03
