"""Cell executors: the one cell lifecycle, run serially or on a
supervised process pool.

Every grid :class:`~repro.sim.resilience.ResilientRunner` executes goes
through an executor, whatever its ``jobs`` count, and every executor
runs each cell through :func:`_execute_cell` — the only
retry/timeout/degrade loop in the package. The runner only ever sees
:class:`CellOutcome` records and turns each into one row, one journal
record and one stats update. No executor starts a thread: a cell's
deadline is a timer on its own (see :func:`call_with_timeout`).

* :class:`Executor` — the interface: ``run(tasks)`` yields one
  :class:`CellOutcome` per :class:`CellTask`.
* :class:`SerialExecutor` — runs each cell in-process, in the order
  given, yielding after every cell (``jobs == 1`` grids). It also
  carries the parent-only parts of the lifecycle: attempt-level fault
  injection and the injectable backoff sleep. It is the graceful
  degradation target when the supervised pool exhausts its restart
  budget.
* :class:`SupervisedPoolExecutor` — a process pool that **survives
  worker death** (``jobs > 1``). Each dispatched cell writes a *marker
  file* at entry and removes it on completion; when the pool breaks,
  unfinished cells whose marker is present were mid-execution
  (suspects — at most one per worker), and cells with no marker never
  started (innocents). The
  supervisor rebuilds the pool, re-runs each suspect **solo** so a
  second death attributes unambiguously to one cell, requeues the
  innocents without consuming their retry budget, and quarantines any
  cell that kills its worker ``max_cell_crashes`` times with a
  ``status="crashed"`` outcome instead of retrying it forever. Pool
  rebuilds are bounded by ``max_worker_restarts`` (default
  ``jobs * 3``); past the budget the remaining cells degrade to serial
  in-process execution rather than aborting the grid.

Worker death costs one cell, not the sweep — and because rescheduling
re-runs deterministic simulations, the surviving rows stay
byte-identical to a serial run.

Rebuilt pools need no special substrate handling: workers are forked
from the parent, which still owns the published shared-memory trace
segments (:mod:`repro.workloads.substrate`), so cells rescheduled onto
a fresh pool re-attach on demand exactly like first-generation workers.

The deterministic chaos harness lives in :mod:`repro.sim.faults`: a
``kill_worker@N[xK]`` spec makes cell ``N`` SIGKILL its worker at
dispatch (the parent decides which dispatches die via ``kill_plan``,
so the campaign replays exactly).
"""

from __future__ import annotations

import os
import shutil
import signal
import tempfile
import time
from abc import ABC, abstractmethod
from collections import deque
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, \
    as_completed
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, \
    Sequence, Tuple

from ..errors import CellTimeout, ConfigError, TransientError
from .faults import arm_data_specs, clear_armed

#: Row statuses an executor can produce.
STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"
#: A quarantined cell: its execution killed its worker process
#: ``max_cell_crashes`` times, so it is presumed lethal and not retried.
STATUS_CRASHED = "crashed"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for :class:`TransientError` cells."""

    max_retries: int = 2
    backoff_s: float = 0.05
    backoff_factor: float = 2.0

    def delay(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (1-based)."""
        return self.backoff_s * (self.backoff_factor ** (attempt - 1))


def _file_stamp(path: Path) -> Optional[Tuple[int, int]]:
    """``(st_ino, st_mtime_ns)`` of ``path``, or ``None`` if absent."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_ino, st.st_mtime_ns


_REFIRE_S = 0.05  # timer repeat: raise again past a swallowed raise


class _Expired(BaseException):
    """The cell timer fired without progress. Not an ``Exception``, so
    no ``except Exception`` in the cell (the kernel's decline handlers
    among them) can swallow it."""


def call_with_timeout(fn: Callable[[], Dict[str, Any]],
                      key: Dict[str, Any],
                      timeout_s: Optional[float],
                      checkpoint: Optional[Path] = None) -> Dict[str, Any]:
    """Run ``fn`` with an optional deadline; raises :class:`CellTimeout`.

    ``fn`` runs in the calling thread under a ``SIGALRM`` interval
    timer whose handler raises into whatever bytecode the cell runs, so
    a timed-out attempt is over when this call returns. Only the main
    thread receives signals (POSIX only): a timed call from another
    thread raises :class:`~repro.errors.ConfigError`.

    With a ``checkpoint`` path (the cell's mid-trace snapshot, which
    the checkpointed replay loop replaces atomically on every
    checkpoint boundary), the deadline is a *watchdog*: it measures
    time since the last observed **progress** — a new
    ``(st_ino, st_mtime_ns)`` on that file — not since the cell
    started: on a new stamp the timer re-arms for the time left since
    that snapshot, so a slow cell that keeps advancing keeps extending
    its deadline, while a hung one (no new snapshot for ``timeout_s``)
    times out. An absent or unchanged file reads as no progress, so a
    cell degraded to checkpointless after a persistent write failure
    sees a plain deadline from its last good snapshot.
    """
    if timeout_s is None:
        return fn()
    last = None if checkpoint is None else _file_stamp(checkpoint)
    checked = time.monotonic()
    armed = True

    def on_alarm(_signum, _frame):
        nonlocal last, checked
        if not armed:
            return      # the attempt is over; the timer is disarming
        stamp = None if checkpoint is None else _file_stamp(checkpoint)
        if stamp is None or stamp == last:
            raise _Expired
        # The snapshot is younger than the previous check, which bounds
        # its age even on a skewed file clock.
        now = time.monotonic()
        age = min(max(time.time_ns() - stamp[1], 0) / 1e9, now - checked)
        last, checked = stamp, now
        signal.setitimer(signal.ITIMER_REAL, max(timeout_s - age, 1e-3),
                         _REFIRE_S)

    try:
        previous = signal.signal(signal.SIGALRM, on_alarm)
    except ValueError:
        raise ConfigError("a cell deadline needs the main thread, the "
                          "only one that receives signals") from None
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout_s, _REFIRE_S)
        return fn()
    except _Expired:
        pass
    finally:
        armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous or signal.SIG_DFL)
    raise CellTimeout(
        f"cell exceeded {timeout_s:g}s "
        + ("without-progress watchdog" if checkpoint is not None
           else "deadline"),
        timeout_s=timeout_s,
        app=key.get("app"), config=key.get("config"),
        seed=key.get("seed"))


def _execute_cell(fn: Callable[[], Dict[str, Any]],
                  key: Dict[str, Any],
                  timeout_s: Optional[float],
                  retry: RetryPolicy,
                  data_specs: Tuple = (),
                  checkpoint: Optional[Path] = None,
                  before: Optional[Callable[[int], None]] = None,
                  sleep: Callable[[float], None] = time.sleep
                  ) -> Tuple[str, Any, int, Optional[BaseException]]:
    """One cell's full retry/timeout lifecycle, in whichever process
    runs it.

    Returns ``(status, payload, retries, error)``: payload is the raw
    row dict on success, or the formatted error string on failure;
    ``error`` is the final attempt's exception (``None`` on success).
    Exceptions do not cross the pool boundary — :func:`_worker_cell`
    drops ``error`` and ships the first three fields.

    ``data_specs`` are data-level fault specs targeting this cell; they
    are armed (re-armed on every retry attempt) before the attempt and
    consumed inside ``simulate``. ``before(attempt)`` is the in-process
    pre-attempt hook (:class:`SerialExecutor`'s attempt-level fault
    injection); it runs inside the timed region, so an injected stall
    exercises the deadline like a real hung backend. The armed channel
    is cleared after every attempt, so a fault the attempt never
    consumed cannot leak into the next cell this process runs.
    ``sleep`` waits out the retry backoff.
    """
    attempt = 0
    retries = 0
    while True:
        def attempt_fn(attempt=attempt):
            if before is not None:
                before(attempt)
            return fn()
        try:
            arm_data_specs(data_specs)
            try:
                row = call_with_timeout(attempt_fn, key, timeout_s,
                                        checkpoint=checkpoint)
            finally:
                clear_armed()
            if not isinstance(row, dict):
                raise TypeError(
                    f"cell returned {type(row).__name__}, expected dict")
            return STATUS_OK, row, retries, None
        except TransientError as exc:
            if attempt < retry.max_retries:
                attempt += 1
                retries += 1
                sleep(retry.delay(attempt))
                continue
            return STATUS_ERROR, _describe(exc), retries, exc
        except CellTimeout as exc:
            return STATUS_TIMEOUT, _describe(exc), retries, exc
        except Exception as exc:  # noqa: BLE001 — degrade unknowns too
            return STATUS_ERROR, _describe(exc), retries, exc


def _describe(exc: BaseException) -> str:
    """The ``error`` column of a failed cell's row."""
    return f"{type(exc).__name__}: {exc}"


def _worker_cell(fn: Callable[[], Dict[str, Any]],
                 key: Dict[str, Any],
                 timeout_s: Optional[float],
                 retry: RetryPolicy,
                 data_specs: Tuple,
                 checkpoint: Optional[Path],
                 marker: Optional[str],
                 kill: bool) -> Tuple[str, Any, int]:
    """Pool-worker entry point: marker bookkeeping around the lifecycle.

    The marker file is the supervisor's crash-attribution evidence: it
    exists exactly while this cell is executing, so a SIGKILLed worker
    leaves it behind and the parent knows which cell was on the dying
    worker. ``kill=True`` is the chaos harness (``kill_worker`` fault):
    the worker SIGKILLs itself *after* writing the marker, modelling a
    cell whose execution takes its worker down mid-flight.
    """
    if marker is not None:
        Path(marker).write_text(str(os.getpid()))
    if kill:
        os.kill(os.getpid(), signal.SIGKILL)
    status, payload, retries, _ = _execute_cell(fn, key, timeout_s,
                                                retry, data_specs,
                                                checkpoint)
    if marker is not None:
        try:
            Path(marker).unlink()
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
    return status, payload, retries


@dataclass(frozen=True)
class CellTask:
    """One schedulable grid cell, as the executor layer sees it.

    ``index`` is the row index (the runner maps outcomes back to rows
    with it); ``ordinal`` is the serial-equivalent execution ordinal
    fault specs key on; ``data_specs`` are the data-level fault specs
    to arm in whichever process runs the cell, whose main thread runs
    ``fn``; ``checkpoint`` is the cell's mid-trace snapshot path
    (``None`` without a checkpoint directory), which the deadline's
    timer reads as progress and the runner checks to classify a
    failure as resumable.
    """

    index: int
    key: Dict[str, Any]
    fn: Callable[[], Dict[str, Any]]
    ordinal: int = 0
    data_specs: Tuple = ()
    checkpoint: Optional[Path] = None


@dataclass(frozen=True)
class CellOutcome:
    """What happened to one task: ``status`` is one of the STATUS_*
    constants, ``payload`` the row dict (ok) or error string, and
    ``retries`` the transient-retry count consumed inside the cell.
    ``error`` is the failing attempt's exception when the cell ran
    in-process (``None`` for pool outcomes and successes).
    """

    index: int
    key: Dict[str, Any]
    status: str
    payload: Any
    retries: int = 0
    error: Optional[BaseException] = None


@dataclass
class ExecutorStats:
    """Supervision tallies, merged into the runner's stats after a run."""

    worker_restarts: int = 0
    rescheduled: int = 0
    crashed: int = 0
    fell_back_serial: bool = False


class Executor(ABC):
    """Strategy interface for executing a batch of independent cells.

    ``run`` dispatches tasks in the order given and yields one
    :class:`CellOutcome` per task in **completion order** (the caller
    reorders by ``index``). Implementations own their failure
    semantics: the contract is only that every task
    produces exactly one outcome and that deterministic cells produce
    identical payloads whichever executor ran them — that is what keeps
    sweep CSVs byte-identical between serial and pool runs.
    """

    def __init__(self):
        self.stats = ExecutorStats()

    @abstractmethod
    def run(self, tasks: Sequence[CellTask]) -> Iterator[CellOutcome]:
        """Execute ``tasks``; yield one outcome each, completion order."""

    def close(self) -> None:
        """Release executor resources (idempotent; default no-op)."""


class SerialExecutor(Executor):
    """Run every cell in-process, in the order given.

    The executor of ``jobs == 1`` grids, and the degradation target
    when :class:`SupervisedPoolExecutor` exhausts its worker-restart
    budget — the remainder of a chaotic grid is slower serially, but it
    completes. ``run`` yields after each cell, so a caller that
    journals every outcome has it on disk before the next cell starts.

    ``on_attempt(ordinal, key, attempt)`` is the attempt-level fault
    hook (:meth:`~repro.sim.faults.FaultInjector.on_attempt`), called
    before every attempt inside the timed region; ``sleep`` waits out
    the retry backoff. Both exist only in-process, which is why
    attempt-level faults are serial-only. ``kill_plan`` entries are
    deliberately ignored here: the modelled worker process does not
    exist, and honoring a SIGKILL in-process would take down the
    parent (journal and all) instead of one cell.
    """

    def __init__(self, timeout_s: Optional[float] = None,
                 retry: Optional[RetryPolicy] = None,
                 on_attempt: Optional[Callable[[int, Dict[str, Any], int],
                                               None]] = None,
                 sleep: Callable[[float], None] = time.sleep):
        super().__init__()
        self.timeout_s = timeout_s
        self.retry = retry or RetryPolicy()
        self.on_attempt = on_attempt
        self.sleep = sleep

    def run(self, tasks: Sequence[CellTask]) -> Iterator[CellOutcome]:
        for task in tasks:
            before = (None if self.on_attempt is None
                      else partial(self.on_attempt, task.ordinal, task.key))
            status, payload, retries, error = _execute_cell(
                task.fn, task.key, self.timeout_s, self.retry,
                task.data_specs, task.checkpoint, before, self.sleep)
            yield CellOutcome(task.index, task.key, status, payload,
                              retries, error)


class SupervisedPoolExecutor(Executor):
    """A worker-loss-tolerant process pool.

    Parameters
    ----------
    jobs:
        Worker-process count (must be >= 2; ``jobs == 1`` grids run on
        :class:`SerialExecutor`, which has no worker to lose).
    timeout_s / retry:
        Per-cell deadline and transient-retry policy, enforced inside
        each worker by the same lifecycle :class:`SerialExecutor` runs.
    max_worker_restarts:
        Pool rebuilds allowed before degrading the remainder of the
        grid to serial in-process execution. ``None`` means
        ``jobs * 3`` — generous for real sporadic failures, bounded
        against a lethal environment (e.g. an OOM killer that shoots
        every worker) burning restarts forever.
    max_cell_crashes:
        Times one cell may be executing when its worker dies before it
        is quarantined with a ``crashed`` outcome (default 2: one
        parallel-phase suspicion plus one solo confirmation).
    kill_plan:
        Chaos-harness schedule ``{ordinal: count}``: a cell whose
        ``ordinal`` appears SIGKILLs its worker on its first ``count``
        dispatches (``0`` = every dispatch). Populated from
        ``kill_worker@N[xK]`` fault specs; empty in production.

    Attribution protocol: every dispatch writes a marker file the
    worker removes on completion. When the pool breaks, unfinished
    cells *with* a marker were mid-execution on some worker (suspects);
    cells *without* never started (innocents, rescheduled for free).
    Suspects are re-run solo on the rebuilt pool — with one cell in
    flight, a second breakage is unambiguous evidence — so an innocent
    bystander that merely shared the pool with a lethal cell is never
    quarantined by association.
    """

    def __init__(self, jobs: int,
                 timeout_s: Optional[float] = None,
                 retry: Optional[RetryPolicy] = None,
                 max_worker_restarts: Optional[int] = None,
                 max_cell_crashes: int = 2,
                 kill_plan: Optional[Dict[int, int]] = None):
        super().__init__()
        if jobs < 2:
            raise ConfigError(
                f"SupervisedPoolExecutor needs jobs >= 2, got {jobs}; "
                "use SerialExecutor")
        if max_cell_crashes < 1:
            raise ConfigError("max_cell_crashes must be >= 1, got "
                              f"{max_cell_crashes}")
        if max_worker_restarts is not None and max_worker_restarts < 0:
            raise ConfigError("max_worker_restarts must be >= 0, got "
                              f"{max_worker_restarts}")
        self.jobs = jobs
        self.timeout_s = timeout_s
        self.retry = retry or RetryPolicy()
        self.max_worker_restarts = (jobs * 3 if max_worker_restarts is None
                                    else max_worker_restarts)
        self.max_cell_crashes = max_cell_crashes
        self.kill_plan = dict(kill_plan or {})
        self._pool: Optional[ProcessPoolExecutor] = None
        self._broken = False  # a breakage means the next pool is a rebuild

    # -- pool lifecycle ----------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def _discard_pool(self) -> None:
        """Drop a broken pool without waiting on its corpse."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False)

    def close(self) -> None:
        """Terminate workers and drop the pool (idempotent).

        Termination is deliberate, not graceful: close runs on the
        normal path with no cells in flight (cheap no-op) and on the
        ``KeyboardInterrupt`` path where in-flight simulations must not
        pin the interpreter's exit for minutes.

        The pool's manager thread reaps the terminated workers, so
        close waits (bounded) for it: a caller that joined a worker
        while that thread reaped it could otherwise lose the race for
        the exit status and see a dead worker reported as alive.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        for proc in list(getattr(pool, "_processes", {}).values()):
            try:
                proc.terminate()
            except OSError:  # pragma: no cover - already gone
                pass
        manager = getattr(pool, "_executor_manager_thread", None)
        pool.shutdown(wait=False, cancel_futures=True)
        if manager is not None:
            manager.join(timeout=5.0)

    # -- dispatch ----------------------------------------------------

    def _kill_this_dispatch(self, task: CellTask, dispatch: int) -> bool:
        limit = self.kill_plan.get(task.ordinal)
        if limit is None:
            return False
        return limit == 0 or dispatch < limit

    def _submit(self, pool: ProcessPoolExecutor, task: CellTask,
                marker_dir: Path, dispatches: Dict[int, int]):
        dispatch = dispatches.get(task.index, 0)
        dispatches[task.index] = dispatch + 1
        marker = marker_dir / f"cell-{task.index}"
        return pool.submit(
            _worker_cell, task.fn, task.key, self.timeout_s, self.retry,
            task.data_specs, task.checkpoint, str(marker),
            self._kill_this_dispatch(task, dispatch))

    # -- the supervision loop ----------------------------------------

    def run(self, tasks: Sequence[CellTask]) -> Iterator[CellOutcome]:
        marker_dir = Path(tempfile.mkdtemp(prefix="repro-exec-"))
        dispatches: Dict[int, int] = {}
        crashes: Dict[int, int] = {}
        # Batches awaiting dispatch. The first breakage splits the grid
        # into solo suspect batches (prepended — attribution first) and
        # an innocents batch; healthy runs never leave the first batch.
        batches: "deque[List[CellTask]]" = deque()
        if tasks:
            batches.append(list(tasks))
        try:
            while batches:
                batch = batches.popleft()
                if not batch:
                    continue
                if self._pool is None and self._broken:
                    # Continuing in parallel needs a pool rebuild; past
                    # the budget, degrade the remainder to serial.
                    if self.stats.worker_restarts >= \
                            self.max_worker_restarts:
                        remainder = sorted(
                            (t for group in [batch, *batches]
                             for t in group),
                            key=lambda t: t.index)
                        batches.clear()
                        yield from self._run_serial_remainder(remainder)
                        break
                    self.stats.worker_restarts += 1
                pool = self._ensure_pool()
                futures = {}
                unsubmitted: List[CellTask] = []
                submit_broke = False
                for task in batch:
                    if submit_broke:
                        unsubmitted.append(task)
                        continue
                    try:
                        futures[self._submit(pool, task, marker_dir,
                                             dispatches)] = task
                    except BrokenExecutor:
                        submit_broke = True
                        unsubmitted.append(task)
                finished = set()
                broke = submit_broke
                for future in as_completed(futures):
                    task = futures[future]
                    try:
                        status, payload, retries = future.result()
                    except BrokenExecutor:
                        broke = True
                        continue
                    except Exception as exc:  # noqa: BLE001 — e.g. an
                        # unpicklable row; degrade just this cell.
                        status, payload, retries = (STATUS_ERROR,
                                                    _describe(exc), 0)
                    finished.add(task.index)
                    self._clear_marker(marker_dir, task)
                    yield CellOutcome(task.index, task.key, status,
                                      payload, retries)
                if not broke:
                    continue
                # Worker death. Attribute, reschedule, rebuild lazily.
                self._broken = True
                self._discard_pool()
                skip = finished | {t.index for t in unsubmitted}
                suspects: List[CellTask] = []
                innocents: List[CellTask] = list(unsubmitted)
                for task in batch:
                    if task.index in skip:
                        continue
                    marker = marker_dir / f"cell-{task.index}"
                    if marker.exists():
                        self._clear_marker(marker_dir, task)
                        crashes[task.index] = crashes.get(task.index,
                                                          0) + 1
                        if crashes[task.index] >= self.max_cell_crashes:
                            self.stats.crashed += 1
                            yield CellOutcome(
                                task.index, task.key, STATUS_CRASHED,
                                "WorkerCrash: cell was executing when "
                                "its worker died "
                                f"{crashes[task.index]} time(s); "
                                "quarantined (max_cell_crashes="
                                f"{self.max_cell_crashes})", 0)
                        else:
                            suspects.append(task)
                    else:
                        innocents.append(task)
                self.stats.rescheduled += len(suspects) + len(innocents)
                if innocents:
                    batches.appendleft(sorted(innocents,
                                              key=lambda t: t.index))
                for suspect in sorted(suspects, key=lambda t: t.index,
                                      reverse=True):
                    batches.appendleft([suspect])
        finally:
            self.close()
            shutil.rmtree(marker_dir, ignore_errors=True)

    def _run_serial_remainder(self, remainder: Sequence[CellTask]
                              ) -> Iterator[CellOutcome]:
        """Graceful degradation: finish the grid in-process.

        The environment has eaten the whole restart budget, so no more
        worker processes are spawned — the remaining cells run serially
        in the parent (kill-plan entries ignored, see
        :class:`SerialExecutor`), trading speed for completion.
        """
        self.stats.fell_back_serial = True
        yield from SerialExecutor(timeout_s=self.timeout_s,
                                  retry=self.retry).run(remainder)

    @staticmethod
    def _clear_marker(marker_dir: Path, task: CellTask) -> None:
        try:
            (marker_dir / f"cell-{task.index}").unlink()
        except OSError:
            pass
