"""Span tracing installed from outside the program under test.

:func:`install` wraps public functions of ``repro`` in place, so the
program's own files stay untouched. Every wrapped call records one
span ``(layer, start, end, id, parent)``; the parent is the innermost
open span of the same thread. A few wrappers also count outcomes
(store hits, kernel declines) on the span itself.

Spans stay in memory and are appended to ``spans-<pid>.jsonl`` in the
trace directory by :func:`flush`: once when the measured process ends,
and after every cell a ``--jobs`` pool worker finishes, because the
pool terminates its workers instead of letting them exit. Forked
workers start with an empty buffer (``os.register_at_fork``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path

_NOW = time.monotonic  # CLOCK_MONOTONIC: comparable across processes

# (layer, module, attribute, kind, sites)
#   attribute  "func" or "Class.method" / "Class.property"
#   kind       "span", "hit" (span + hit when the result is not None),
#              "memo" (count only: calls, and hits when the result is
#              not the default), "decline" (span + kernel declines
#              counted across the call), "gen" (a generator: the span
#              runs from the first resume to exhaustion), "worker" (span,
#              then flush: pool workers are terminated, never exited)
#   sites      module namespaces to patch; None = every repro module
#              holding the function, plus the defining module
TARGETS = (
    ("sim.sweep.run_sweep", "repro.sim.sweep", "run_sweep", "span", None),
    ("workloads.trace.generate", "repro.workloads.trace",
     "generate_trace", "span", None),
    ("mem.populate", "repro.mem.address_space", "Process.populate",
     "span", None),
    ("mem.fragment", "repro.mem.fragmentation", "fragment_memory",
     "span", None),
    ("sim.driver.simulate", "repro.sim.driver", "simulate", "span", None),
    ("sim.kernel.build", "repro.sim.kernel", "make_engine", "decline",
     None),
    ("sim.kernel.replay", "repro.sim.kernel", "KernelEngine.replay",
     "span", None),
    ("sim.kernel.memo", "repro.workloads.substrate", "KernelMemo.get",
     "memo", None),
    ("sim.warmstate.fetch", "repro.sim.warmstate", "WarmStateCache.fetch",
     "hit", None),
    ("sim.warmstate.fetch", "repro.sim.warmstate",
     "WarmStateCache.fetch_result", "hit", None),
    ("sim.warmstate.store", "repro.sim.warmstate", "WarmStateCache.store",
     "span", None),
    ("sim.warmstate.store", "repro.sim.warmstate",
     "WarmStateCache.store_result", "span", None),
    ("store.digest", "repro.store.resultstore", "ResultStore.digest",
     "span", None),
    ("store.fetch", "repro.store.resultstore", "ResultStore.fetch_result",
     "hit", None),
    ("store.publish", "repro.store.resultstore", "ResultStore.store_result",
     "span", None),
    ("store.publish", "repro.store.resultstore", "ResultStore.store_state",
     "span", None),
    ("workloads.substrate.publish", "repro.workloads.substrate",
     "TraceStore.publish", "span", None),
    ("workloads.substrate.attach", "repro.workloads.substrate", "attach",
     "span", None),
    ("workloads.substrate.columns", "repro.workloads.substrate",
     "TraceColumns.lists", "span", None),
    ("workloads.substrate.columns", "repro.workloads.substrate",
     "TraceColumns.vpn", "span", None),
    ("workloads.substrate.columns", "repro.workloads.substrate",
     "TraceColumns.ppn", "span", None),
    ("workloads.substrate.columns", "repro.workloads.substrate",
     "TraceColumns.fingerprint", "span", None),
    ("sim.executors.run", "repro.sim.executors",
     "SupervisedPoolExecutor.run", "gen", None),
    ("sim.executors.worker_busy", "repro.sim.executors", "_worker_cell",
     "worker", None),
    # Only the mid-simulation checkpoint loop: warm-state snapshots
    # render through the same function and are counted under
    # sim.warmstate.store instead.
    ("sim.checkpoint.write", "repro.sim.checkpoint", "render_checkpoint",
     "span", ("repro.sim.driver",)),
)

#: Layers with a span (every target kind except the count-only memo).
LAYERS = tuple(dict.fromkeys(t[0] for t in TARGETS if t[3] != "memo"))


class _State:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.local = threading.local()
        self.ids = itertools.count(1)
        self.pid = os.getpid()
        self.out = None

    def stack(self):
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack


_STATE = _State()


def _reset_after_fork() -> None:
    """A forked worker inherits the parent's buffer: start it empty."""
    _STATE.spans = []
    _STATE.counts = {}
    _STATE.local = threading.local()
    _STATE.pid = os.getpid()


def _open(layer):
    stack = _STATE.stack()
    span = {"layer": layer, "id": f"{_STATE.pid}-{next(_STATE.ids)}",
            "parent": stack[-1]["id"] if stack else None,
            "pid": _STATE.pid, "start": _NOW()}
    stack.append(span)
    return span


def _close(span):
    span["end"] = _NOW()
    stack = _STATE.stack()
    if stack and stack[-1] is span:
        stack.pop()
    _STATE.spans.append(span)


def _declines() -> int:
    kernel = sys.modules.get("repro.sim.kernel")
    return sum(kernel.decline_counts().values()) if kernel else 0


def _wrap(fn, layer, kind):
    if kind == "memo":
        @functools.wraps(fn)
        def memo(self, key, default=None):
            value = fn(self, key, default)
            counts = _STATE.counts.setdefault(layer, [0, 0])
            counts[0] += 1
            counts[1] += value is not default
            return value
        return memo

    if kind == "gen":
        @functools.wraps(fn)
        def gen(*args, **kwargs):
            inner = fn(*args, **kwargs)
            span = None
            try:
                while True:
                    if span is None:
                        span = _open(layer)
                    else:
                        _STATE.stack().append(span)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        stack = _STATE.stack()
                        if stack and stack[-1] is span:
                            stack.pop()
                    yield item
            finally:
                inner.close()
                if span is not None:
                    span["end"] = _NOW()
                    _STATE.spans.append(span)
        return gen

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = _open(layer)
        before = _declines() if kind == "decline" else 0
        try:
            result = fn(*args, **kwargs)
        finally:
            _close(span)
        if kind == "hit":
            span["hit"] = result is not None
        elif kind == "decline":
            span["declines"] = _declines() - before
        return result

    if kind == "worker":
        @functools.wraps(fn)
        def worker(*args, **kwargs):
            try:
                return wrapper(*args, **kwargs)
            finally:
                flush()
        return worker
    return wrapper


def _patch(layer, module_name, attribute, kind, sites) -> None:
    module = importlib.import_module(module_name)
    owner, _, name = attribute.rpartition(".")
    if owner:
        cls = getattr(module, owner)
        original = cls.__dict__[name]
        fn = original.fget if isinstance(original, property) else original
    else:
        fn = original = getattr(module, name)
    if kind == "gen" and not inspect.isgeneratorfunction(fn):
        raise TypeError(f"{module_name}.{attribute} is not a generator")
    wrapped = _wrap(fn, layer, kind)
    if owner:
        if isinstance(original, property):
            wrapped = property(wrapped, doc=original.__doc__)
        setattr(cls, name, wrapped)
        return
    if sites is None:
        holders = [m for n, m in list(sys.modules.items())
                   if (n == "repro" or n.startswith("repro.")) and m
                   and getattr(m, name, None) is original]
    else:
        holders = [importlib.import_module(n) for n in sites]
    for holder in holders:
        setattr(holder, name, wrapped)


def install(out_dir) -> None:
    """Wrap every :data:`TARGETS` entry; spans go under ``out_dir``.

    Call after importing ``repro`` and before running it. Modules that
    bind a function by name (``from x import f``) are re-pointed too,
    which is why the modules that do so are imported first.
    """
    _STATE.out = Path(out_dir)
    for name in ("repro.cli", "repro.sim.kernel", "repro.sim.sweep"):
        importlib.import_module(name)
    for target in TARGETS:
        _patch(*target)
    os.register_at_fork(after_in_child=_reset_after_fork)


def flush() -> None:
    """Append this process's buffered spans and counts to its file."""
    if _STATE.out is None or not (_STATE.spans or _STATE.counts):
        return
    lines = [json.dumps(s) for s in _STATE.spans]
    lines += [json.dumps({"counter": layer, "pid": _STATE.pid,
                          "calls": c[0], "hits": c[1]})
              for layer, c in _STATE.counts.items()]
    _STATE.spans = []
    _STATE.counts = {}
    path = _STATE.out / f"spans-{_STATE.pid}.jsonl"
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load(out_dir):
    """All spans and counter records written under ``out_dir``."""
    spans, counters = [], []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            (counters if "counter" in record else spans).append(record)
    return spans, counters
