"""Per-layer metrics from the spans of one traced sample.

For every layer of :data:`tracer.LAYERS`:

* ``<layer>_s`` — busy time: the summed duration of its spans, not
  counting a span nested inside another span of the same layer;
* ``<layer>.self_s`` — busy time minus the time covered by its direct
  child spans (children of a span run in the same thread, one after
  another, so their durations add up without overlap);
* ``<layer>.calls`` — number of spans;
* ``<layer>.self_share`` — the layer's self time in the sweep process
  over the ``run_sweep`` wall time. Every span there descends from
  ``run_sweep``, so these shares sum to 1.

Both times count ``--jobs`` worker spans too. Worker spans have no
parent in the sweep process: the sweep process shows its wait on the
pool as self time of ``sim.executors.run``, and the workers' layers
show up in their busy and self seconds, not in the shares. Ratios and
counts named in :func:`layer_metrics` complete the set.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import LAYERS

SWEEP = "sim.sweep.run_sweep"


def _dur(span) -> float:
    return span["end"] - span["start"]


def _ratio(hits: float, calls: float) -> float:
    return hits / calls if calls else 0.0


def layer_metrics(spans, counters, jobs: int) -> dict:
    """The per-layer metric set of one traced sample (see module doc)."""
    by_id = {s["id"]: s for s in spans}
    child_time = defaultdict(float)
    for span in spans:
        if span["parent"] in by_id:
            child_time[span["parent"]] += _dur(span)

    def nested_in_same_layer(span) -> bool:
        parent = by_id.get(span["parent"])
        while parent is not None:
            if parent["layer"] == span["layer"]:
                return True
            parent = by_id.get(parent["parent"])
        return False

    by_layer = defaultdict(list)
    for span in spans:
        by_layer[span["layer"]].append(span)
    sweeps = [s for s in by_layer[SWEEP] if not nested_in_same_layer(s)]
    wall = sum(_dur(s) for s in sweeps)
    sweep_pids = {s["pid"] for s in sweeps}
    metrics = {}
    for layer in LAYERS:
        mine = by_layer[layer]
        metrics[f"{layer}_s"] = sum(_dur(s) for s in mine
                                    if not nested_in_same_layer(s))
        metrics[f"{layer}.self_s"] = sum(_dur(s) - child_time[s["id"]]
                                         for s in mine)
        metrics[f"{layer}.calls"] = len(mine)
        metrics[f"{layer}.self_share"] = _ratio(
            sum(_dur(s) - child_time[s["id"]] for s in mine
                if s["pid"] in sweep_pids), wall)

    def hit_ratio(layer):
        mine = by_layer[layer]
        return _ratio(sum(1 for s in mine if s.get("hit")), len(mine))

    memo_calls = sum(c["calls"] for c in counters
                     if c["counter"] == "sim.kernel.memo")
    memo_hits = sum(c["hits"] for c in counters
                    if c["counter"] == "sim.kernel.memo")
    busy = metrics["sim.executors.worker_busy_s"]
    metrics.update({
        "sim.kernel.memo.calls": memo_calls,
        "sim.kernel.memo_hit_ratio": _ratio(memo_hits, memo_calls),
        "sim.kernel.declines": sum(s.get("declines", 0)
                                   for s in by_layer["sim.kernel.build"]),
        "sim.warmstate.hit_ratio": hit_ratio("sim.warmstate.fetch"),
        "store.hit_ratio": hit_ratio("store.fetch"),
        "sim.executors.worker_idle_s": (
            jobs * metrics["sim.executors.run_s"] - busy
            if by_layer["sim.executors.run"] else 0.0),
    })
    return metrics


def units() -> dict:
    """Unit of every metric :func:`layer_metrics` reports, plus
    ``tracing.overhead`` (added by ``run.py``), in report order."""
    table = {}
    for layer in LAYERS:
        table[f"{layer}_s"] = "s"
        table[f"{layer}.self_s"] = "s"
        table[f"{layer}.calls"] = "count"
        table[f"{layer}.self_share"] = "ratio"
    table.update({"sim.kernel.memo.calls": "count",
                  "sim.kernel.memo_hit_ratio": "ratio",
                  "sim.kernel.declines": "count",
                  "sim.warmstate.hit_ratio": "ratio",
                  "store.hit_ratio": "ratio",
                  "sim.executors.worker_idle_s": "s",
                  "tracing.overhead": "ratio"})
    return table


def breakdown(metrics: dict, top: int = 8) -> list:
    """``(layer, self_share, self_s)`` rows, largest share first."""
    rows = [(layer, metrics[f"{layer}.self_share"],
             metrics[f"{layer}.self_s"]) for layer in LAYERS]
    rows.sort(key=lambda r: -r[1])
    return rows[:top]
