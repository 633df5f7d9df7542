"""Measure the benchmark itself: run-to-run spread and the traced
reference breakdown.

Usage, from the root of a checkout::

    python3 perfbench/calibrate.py spread --seeds 1-10 --seconds 20 \\
        --out perfbench/reference/spread.json
    python3 perfbench/calibrate.py reference --seed 1 --seconds 20 \\
        --out perfbench/reference/traced.json

``spread`` runs ``run.py --trace 0`` once per (seed, workload),
round-robin over the workloads so no workload's runs sit back to back,
and records for every end-to-end metric the quartiles of its per-run
values and their spread ``(q3 - q1) / median`` as Python's
``statistics.quantiles(values, n=4)`` gives them. ``reference`` runs
``run.py --trace 1`` per workload, records the per-layer metrics and
the self-time breakdown, and exits 1 if a workload's largest self-time
share is not the layer it was designed around (``Workload.dominant``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from layers import breakdown
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])
    print(f"{workload} seed {seed}: correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']} "
          + " ".join(f"{k}={v['value']:.4g}"
                     for k, v in result["metrics"].items()
                     if "." not in k), file=sys.stderr)
    return result


def spread(args) -> int:
    workloads = args.workloads.split(",")
    runs = {w: [] for w in workloads}
    for seed in _seeds(args.seeds):
        for workload in workloads:
            runs[workload].append(_run(workload, seed, args.seconds, 0))
    report = {}
    for workload, results in runs.items():
        metrics = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            metrics[name] = {"q1": q1, "median": median, "q3": q3,
                             "spread": (q3 - q1) / median,
                             "values": values}
        report[workload] = {
            "seeds": [r["detail"]["seed"] for r in results],
            "all_correct": all(r["correct"] for r in results),
            "samples_cells_per_s": [
                [s.get("cells_per_s") for s in r["detail"]["samples"]]
                for r in results],
            "metrics": metrics}
        print(f"{workload}: " + " ".join(
            f"{n} median={m['median']:.4g} spread={m['spread']:.3f}"
            for n, m in metrics.items()), file=sys.stderr)
    _write(args.out, {"seconds": args.seconds, "workloads": report})
    return 0 if all(r["all_correct"] for r in report.values()) else 1


def reference(args) -> int:
    report, aimed = {}, True
    for workload in args.workloads.split(","):
        result = _run(workload, args.seed, args.seconds, 1)
        layers = {k: v["value"] for k, v in result["metrics"].items()}
        top = breakdown(layers)
        dominant = WORKLOADS[workload].dominant
        aimed &= top[0][0] == dominant
        report[workload] = {
            "seed": args.seed, "correct": result["correct"],
            "intended_dominant": dominant, "largest_self_share": top[0][0],
            "breakdown": [{"layer": layer, "self_share": r, "self_s": s}
                          for layer, r, s in top],
            "tracing_overhead": layers["tracing.overhead"],
            "samples": result["detail"]["samples"],
            "metrics": layers}
        print(f"{workload}: largest self share {top[0][0]} "
              f"(intended {dominant})", file=sys.stderr)
    _write(args.out, {"seconds": args.seconds, "workloads": report})
    return 0 if aimed else 1


def _write(path: str, data: dict) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(data, indent=1) + "\n",
                          encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, default_seeds in (("spread", "1-10"), ("reference", None)):
        p = sub.add_parser(name)
        p.add_argument("--workloads", default=",".join(WORKLOADS))
        if default_seeds:
            p.add_argument("--seeds", default=default_seeds)
        else:
            p.add_argument("--seed", type=int, default=1)
        p.add_argument("--seconds", type=int, default=20)
        p.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    return spread(args) if args.command == "spread" else reference(args)


if __name__ == "__main__":
    sys.exit(main())
