"""One measured sample: a fresh process that runs ``repro sweep`` once.

Usage: ``python3 perfbench/child.py SPEC_JSON RESULT_JSON``, with
``src`` on ``PYTHONPATH``. ``run.py`` starts one of these per sample,
so process-wide memos (generated traces, the warm-state cache,
compiled kernels) start cold, as they do for a CLI user.

SPEC_JSON holds ``argv`` (the ``repro`` command line), optionally
``trace_dir`` (install :mod:`tracer` and write spans there) and
``setup_only`` (exit as soon as ``run_sweep`` is entered). The result
file records, on the ``CLOCK_MONOTONIC`` clock ``run.py`` also reads,
when ``run_sweep`` started and ended, the rows it returned, the CPU
time of this process and its reaped children from then on, and the
peak RSS.
"""

import time

_T_ENTRY = time.monotonic()

import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _reap(timeout_s: float = 30.0) -> None:
    """Wait for terminated pool workers so their CPU is accounted."""
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("pool workers did not exit")
        time.sleep(0.01)


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    out = Path(sys.argv[2])
    import repro.cli as cli

    if spec.get("trace_dir"):
        import tracer
        tracer.install(spec["trace_dir"])

    marks = {"entry": _T_ENTRY}
    inner = cli.run_sweep

    def timed_run_sweep(*args, **kwargs):
        marks["start"] = time.monotonic()
        if spec.get("setup_only"):
            out.write_text(json.dumps(marks), encoding="utf-8")
            os._exit(0)
        marks["cpu0"] = _cpu()
        rows = inner(*args, **kwargs)
        marks["end"] = time.monotonic()
        marks["rows"] = len(rows)
        return rows

    cli.run_sweep = timed_run_sweep
    marks["rc"] = cli.main(spec["argv"])
    _reap()
    marks["cpu_s"] = _cpu() - marks.pop("cpu0", _cpu())
    marks["max_rss_mb"] = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024
    if spec.get("trace_dir"):
        tracer.flush()
    out.write_text(json.dumps(marks), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
