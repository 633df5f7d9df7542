"""Benchmark entry point: time ``repro sweep`` grids from the outside.

Usage, from the root of a checkout of the repository::

    python3 perfbench/run.py --workload sweep-cold --seed 3 \\
        --seconds 15 --trace 0

A run measures one workload (see ``workloads.py``) on the trace seeds
its ``--seed`` maps to. Every sample is a fresh ``child.py`` process
that imports ``repro`` from ``src`` and calls ``repro.cli.main`` with a
``sweep`` command line; samples repeat until ``--seconds`` are used.
Before the samples, a few set-up probes time start-up alone.

Every sample's CSV must equal, byte for byte, the CSV of the python
oracle engine (``--engine python``) for the same grid and seeds, run
once in its own process and cached under ``.perfbench/oracle`` keyed
by the grid, the seeds and a digest of ``src/repro``. A failed sample
counts all of its cells as failed, as does a ``sweep-warm`` sample
that simulated any cell instead of reading it from the store.

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": <cells>, "failed": <cells>,
     "metrics": {name: {"value": ..., "unit": ...}}}

With ``--trace 0`` the metrics are the end-to-end ones, medians over
the samples. With ``--trace 1`` samples alternate untraced and traced
(``tracer.py``); the metrics are the per-layer ones of ``layers.py``,
medians over the traced samples, plus ``tracing.overhead``. The line
before it holds every sample's figures.
"""

from __future__ import annotations

import argparse
import compileall
import csv
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import breakdown, layer_metrics, units
from tracer import load
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

#: Working state, under the checkout root (listed in .gitignore).
STATE_DIR = ".perfbench"
#: Hash seed of every process running the program under test.
HASH_SEED = "0"
#: Set-up-only starts per run, on top of the set-up time of every sample.
SETUP_PROBES = 3
#: Wall-clock budget of a whole run, a margin under the 180 s limit.
RUN_BUDGET_S = 170.0

END_TO_END = {"setup_s": "s", "cells_per_s": "1/s",
              "cpu_s_per_cell": "s", "max_rss_mb": "MB"}

STORE_LINE = re.compile(
    r"\[store\] (\d+) of (\d+) cells from store, (\d+) simulated")


class RunError(Exception):
    """The run cannot produce a result (missing program, no time)."""


def _env(root: Path, tmp: Path) -> dict:
    """Environment of every process running the program. ``TMPDIR``
    keeps the sweep's temporary directories inside the checkout."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED=HASH_SEED,
               TMPDIR=str(tmp))
    return env


def _call(cmd, cwd: Path, env: dict, deadline: float, log: Path) -> int:
    """Run ``cmd`` in its own process group; kill the group on expiry."""
    with open(log, "wb") as fh:
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=fh,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            return proc.wait(timeout=max(deadline - time.monotonic(), 1))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise RunError(f"{cmd[1:3]} exceeded the run budget") from None
        finally:
            try:  # pool workers left behind by a dying sample
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def source_digest(root: Path) -> str:
    """Digest of the program under test, keying the oracle cache."""
    sha = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        sha.update(str(path.relative_to(root)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def oracle(root: Path, workload, seed: int, env: dict,
           deadline: float) -> Path:
    """Directory holding the oracle's ``ref.csv`` and the ``store`` it
    populated, computed on first use for this grid and seed."""
    key = hashlib.sha256(json.dumps(
        [workload.grid_argv(seed), source_digest(root)]).encode())
    done = root / STATE_DIR / "oracle" / key.hexdigest()[:20]
    if (done / "ref.csv").is_file():
        return done
    tmp = done.with_name(f"{done.name}.tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    cmd = [sys.executable, "-m", "repro", "sweep",
           *workload.grid_argv(seed), "--engine", "python",
           "--store", str(tmp / "store"), "--out", str(tmp / "ref.csv")]
    rc = _call(cmd, tmp, env, deadline, tmp / "log.txt")
    if rc != 0 or not (tmp / "ref.csv").is_file():
        raise RunError(f"oracle sweep failed (exit {rc}); see "
                       f"{tmp / 'log.txt'}")
    shutil.rmtree(done, ignore_errors=True)
    os.replace(tmp, done)
    return done


def run_sample(env: dict, workload, seed: int, ref: Path, sdir: Path,
               deadline: float, traced: bool = False,
               setup_only: bool = False) -> dict:
    """Start one child process; returns its figures and failed cells."""
    sdir.mkdir(parents=True)
    store_root = None
    if workload.store is not None:
        store_root = sdir / "store"
        if workload.store == "warm" and not setup_only:
            shutil.copytree(ref / "store", store_root)
    spec = {"argv": workload.argv(seed, sdir, store_root),
            "setup_only": setup_only}
    if traced:
        spec["trace_dir"] = str(sdir / "spans")
        (sdir / "spans").mkdir()
    (sdir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    cmd = [sys.executable, str(HERE / "child.py"), str(sdir / "spec.json"),
           str(sdir / "result.json")]
    spawned = time.monotonic()
    rc = _call(cmd, sdir, env, deadline, sdir / "log.txt")
    wall = time.monotonic() - spawned
    result = {}
    if (sdir / "result.json").is_file():
        result = json.loads((sdir / "result.json").read_text("utf-8"))
    sample = {"wall_s": wall, "traced": traced}
    if "start" in result:
        sample["setup_s"] = result["start"] - spawned
    if setup_only:
        return sample
    sample["failed"] = _failed_cells(workload, rc, result, sdir, ref)
    if "end" in result and result.get("rows"):
        sweep_s = result["end"] - result["start"]
        sample.update(sweep_s=sweep_s,
                      cells_per_s=result["rows"] / sweep_s,
                      cpu_s_per_cell=result["cpu_s"] / result["rows"],
                      max_rss_mb=result["max_rss_mb"])
    if traced:
        spans, counters = load(sdir / "spans")
        sample["layers"] = layer_metrics(spans, counters, workload.jobs)
    return sample


def _failed_cells(workload, rc: int, result: dict, sdir: Path,
                  ref: Path) -> int:
    """Cells of one sample that count as failed (see module doc)."""
    csv_path = sdir / "sweep.csv"
    if (rc != 0 or result.get("rc") != 0 or not csv_path.is_file()
            or csv_path.read_bytes() != (ref / "ref.csv").read_bytes()):
        return workload.cells
    if workload.store == "warm":
        found = STORE_LINE.findall(
            (sdir / "log.txt").read_text("utf-8", "replace"))
        if found != [(str(workload.cells),) * 2 + ("0",)]:
            return workload.cells
    with open(csv_path, newline="", encoding="utf-8") as fh:
        return sum(1 for row in csv.DictReader(fh) if row["status"] != "ok")


def _median(samples, name):
    values = [s[name] for s in samples if name in s]
    return statistics.median(values) if values else 0.0


def measure(root: Path, workload, seed: int, seconds: int,
            trace: bool) -> dict:
    """One benchmark run; returns the result object and its samples."""
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    work = root / STATE_DIR / "work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    # Byte-compile the program once, as installing it would, so samples
    # import it instead of compiling it, also under
    # PYTHONDONTWRITEBYTECODE.
    compileall.compile_dir(root / "src" / "repro", quiet=1)
    (work / "tmp").mkdir(parents=True)
    env = _env(root, work / "tmp")
    try:
        ref = oracle(root, workload, seed, env, deadline)
        probes = [run_sample(env, workload, seed, ref, work / f"probe{i}",
                             deadline, setup_only=True)
                  for i in range(SETUP_PROBES)]
        samples = []
        measuring = time.monotonic()
        while True:
            traced = trace and len(samples) % 2 == 1
            samples.append(run_sample(env, workload, seed, ref,
                                      work / f"sample{len(samples)}",
                                      deadline, traced=traced))
            now = time.monotonic()
            walls = [s["wall_s"] for s in samples]
            if now + 1.5 * max(walls) > deadline:
                break
            # Stop when the next sample would end, on average, past
            # --seconds: runs last about --seconds either way.
            if (now - measuring > seconds - statistics.mean(walls) / 2
                    and (not trace or len(samples) >= 2)):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    plain = [s for s in samples if not s["traced"]]
    if trace:
        traced_samples = [s for s in samples if s["traced"]]
        metrics = {name: statistics.median(s["layers"][name]
                                           for s in traced_samples)
                   for name in traced_samples[0]["layers"]}
        untraced_cps = _median(plain, "cells_per_s")
        metrics["tracing.overhead"] = (
            1 - _median(traced_samples, "cells_per_s") / untraced_cps
            if untraced_cps else 0.0)
        unit_of = units()
    else:
        metrics = {"setup_s": _median(probes + samples, "setup_s")}
        for name in ("cells_per_s", "cpu_s_per_cell", "max_rss_mb"):
            metrics[name] = _median(samples, name)
        unit_of = END_TO_END
    attempted = workload.cells * len(samples)
    failed = sum(s["failed"] for s in samples)
    return {
        "detail": {"workload": workload.name, "seed": seed,
                   "sweep_seeds": list(workload.sweep_seeds(seed)),
                   "probes": probes,
                   "samples": [{k: v for k, v in s.items() if k != "layers"}
                               for s in samples]},
        "result": {"correct": failed == 0, "attempted": attempted,
                   "failed": failed,
                   "metrics": {name: {"value": metrics[name],
                                      "unit": unit_of[name]}
                               for name in unit_of}},
        "layers": metrics if trace else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (root / "src" / "repro" / "cli.py").is_file():
        print("error: run from the repository root: src/repro is missing",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        out = measure(root, workload, args.seed, args.seconds,
                      bool(args.trace))
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if out["layers"] is not None:
        print(f"[{workload.name}] self time by layer in the sweep "
              "process (share of run_sweep wall, seconds):",
              file=sys.stderr)
        for layer, share, self_s in breakdown(out["layers"]):
            print(f"  {layer:32s} {share:6.1%}  {self_s:8.3f} s",
                  file=sys.stderr)
    print(json.dumps(out["detail"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
