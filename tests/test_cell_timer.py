"""Tests for the cell deadline: an interval timer on the cell's own
thread, so no attempt outlives its timeout.

Covers the timer's lifecycle (handler and timer restored, no thread
started), an attempt's end at the deadline (its side effects stop
there), the backstop that re-raises into a finalizer that swallowed the
first raise, the main-thread and positive-finite rules, a serial sweep
whose stalled cell leaves the next cell alone, and a deadline swept
across a cold cell: wherever the timer lands, the state the attempt
shares with the rest of the process (trace cache, kernel memo, result
store, checkpoint directory) stays valid.
"""

import csv
import io
import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import CellTimeout, ConfigError
from repro.sim import BASELINE_L1, SIPT_GEOMETRIES, TraceCache
from repro.sim import experiment, kernel
from repro.sim.executors import call_with_timeout
from repro.sim.faults import FaultInjector, clear_armed
from repro.sim.resilience import ResilientRunner
from repro.sim.sweep import FIELDS, SweepSpec, run_sweep, to_csv

SPEC = SweepSpec(apps=["mcf"],
                 configs={"baseline": BASELINE_L1,
                          "32K_2w": SIPT_GEOMETRIES["32K_2w"]},
                 baseline="baseline")
N = 3000
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True)
def _clean_armed_channel():
    clear_armed()
    yield
    clear_armed()


def test_timed_out_attempt_ends_at_its_deadline(tmp_path):
    """No stranger outlives its cell: after the timeout, no thread is
    left and the body's later side effect never happens."""
    marker = tmp_path / "finished"
    threads = threading.active_count()

    def body():
        time.sleep(1.0)
        marker.write_text("done")
        return {"x": 1}

    start = time.monotonic()
    with pytest.raises(CellTimeout, match="exceeded 0.1s deadline"):
        call_with_timeout(body, {"app": "a"}, 0.1)
    assert time.monotonic() - start < 0.9
    assert threading.active_count() == threads
    time.sleep(1.0)                         # past the body's natural end
    assert not marker.exists()


def test_timer_and_handler_are_restored():
    previous = signal.getsignal(signal.SIGALRM)
    assert call_with_timeout(lambda: {"x": 1}, {"app": "a"}, 5.0) \
        == {"x": 1}
    with pytest.raises(CellTimeout):
        call_with_timeout(lambda: time.sleep(5) or {}, {"app": "a"}, 0.05)
    with pytest.raises(ZeroDivisionError):
        call_with_timeout(lambda: 1 // 0, {"app": "a"}, 5.0)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_a_swallowed_raise_is_raised_again():
    """A finalizer that swallows the timer's raise does not keep the
    cell alive: the repeating timer raises again."""
    swallowed = []

    def stubborn():
        try:
            time.sleep(5)
        except BaseException as exc:  # noqa: BLE001 — the point
            swallowed.append(exc)
        time.sleep(5)
        return {}

    start = time.monotonic()
    with pytest.raises(CellTimeout):
        call_with_timeout(stubborn, {"app": "a"}, 0.05)
    assert len(swallowed) == 1
    assert time.monotonic() - start < 1.0


def test_a_timed_call_off_the_main_thread_is_a_config_error():
    caught = []

    def run():
        try:
            call_with_timeout(lambda: {}, {"app": "a"}, 1.0)
        except ConfigError as exc:
            caught.append(exc)

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert len(caught) == 1 and "main thread" in str(caught[0])


@pytest.mark.parametrize("timeout_s", [-1.0, 0.0, math.nan, math.inf])
def test_runner_rejects_a_non_positive_or_non_finite_timeout(timeout_s):
    with pytest.raises(ConfigError, match="positive and finite"):
        ResilientRunner(timeout_s=timeout_s)


def test_a_stalled_cell_leaves_the_next_cell_alone(monkeypatch):
    """Cell 0 stalls past its deadline; cell 1 then simulates on the
    main thread with no attempt of cell 0 running beside it."""
    seen = []
    simulate = experiment.simulate

    def watched(*args, **kwargs):
        seen.append((threading.current_thread(), threading.enumerate()))
        return simulate(*args, **kwargs)

    monkeypatch.setattr(experiment, "simulate", watched)
    before = threading.enumerate()
    runner = ResilientRunner(timeout_s=2.0,
                             faults=FaultInjector(["stall@0:10"]))
    spec = SweepSpec(apps=["povray"],
                     configs={"baseline": BASELINE_L1,
                              "32K_2w": SIPT_GEOMETRIES["32K_2w"]})
    rows = run_sweep(spec, 1500, runner=runner)
    assert [row["status"] for row in rows] == ["timeout", "ok"]
    assert len(seen) == 1                   # cell 0 never reached it
    current, alive = seen[0]
    assert current is threading.main_thread()
    assert alive == before


def _reference_csv(engine: str, tmp_path: Path) -> bytes:
    """The grid's CSV from a fresh process."""
    out = tmp_path / f"ref-{engine}.csv"
    subprocess.run(
        [sys.executable, "-m", "repro", "sweep", "--apps", "mcf",
         "--geometries", "baseline,32K_2w", "--baseline", "baseline",
         "--accesses", str(N), "--engine", engine, "--out", str(out)],
        check=True, capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    return out.read_bytes()


def _build_errors() -> int:
    return sum(count for reason, count in kernel.DECLINES.items()
               if "build-error" in reason)


@pytest.mark.parametrize("engine", ["python", "kernel"])
def test_timer_anywhere_in_a_cold_cell_leaves_shared_state_valid(
        engine, tmp_path):
    """Sweep the deadline from 1 ms to a cold cell's runtime, on one
    trace cache emptied before each timed sweep, with and without
    checkpoints. After every timed sweep, its finished rows are the
    reference's, no kernel build was declined and no temp file is
    left; a clean rerun on the same cache, store and checkpoint
    directory then writes the CSV a fresh process writes."""
    reference = _reference_csv(engine, tmp_path)
    want = list(csv.DictReader(io.StringIO(reference.decode())))
    # Ratio columns depend on whether the baseline row finished.
    same = [f for f in FIELDS if f not in ("speedup", "energy_ratio")]
    cache = TraceCache()
    start = time.perf_counter()
    run_sweep(SPEC, N, traces=cache, engine=engine)
    runtime = time.perf_counter() - start
    steps = 8
    deadlines = [0.001 * (runtime / 0.001) ** (i / (steps - 1))
                 for i in range(steps)]
    fired = 0
    for i, deadline in enumerate(deadlines):
        for checkpointed in (False, True):
            root = tmp_path / f"{i}-{checkpointed}"
            ckpt = root / "ckpt"
            ckpt.mkdir(parents=True)
            options = dict(
                traces=cache, engine=engine, store=root / "store",
                checkpoint_every=500 if checkpointed else None)

            def runner(timeout_s=None):
                return ResilientRunner(
                    timeout_s=timeout_s,
                    checkpoint_dir=ckpt if checkpointed else None)

            cache.clear()
            declined = _build_errors()
            rows = run_sweep(SPEC, N, runner=runner(deadline), **options)
            for row, ref in zip(rows, want):
                assert row["status"] in ("ok", "timeout", "resumable")
                fired += row["status"] != "ok"
                if row["status"] == "ok":
                    assert [str(row[f]) for f in same] \
                        == [ref[f] for f in same]
            assert _build_errors() == declined
            assert list(root.rglob("*.tmp")) == []

            rerun = run_sweep(SPEC, N, runner=runner(), **options)
            assert to_csv(rerun, root / "rerun.csv").read_bytes() \
                == reference
            assert list(ckpt.iterdir()) == []
    assert fired                            # the short deadlines fire
