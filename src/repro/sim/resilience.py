"""Resilient grid execution: journaling, resume, retries, timeouts.

Sweeps and scorecards are grids of independent cells — one (app, config,
core, condition, seed, accesses) simulation each. Before this module, the first
failing cell raised out of the grid loop and discarded every completed
row. :class:`ResilientRunner` executes grids cell-by-cell instead:

* a failing cell **degrades** into a structured error row (``status`` /
  ``error`` keys) and the rest of the grid still runs;
* :class:`~repro.errors.TransientError` is retried with bounded
  exponential backoff before degrading;
* an optional per-cell **timeout** turns a hung cell into a ``timeout``
  row instead of hanging the whole campaign;
* every finished cell is appended to a **JSONL journal**, and a new run
  pointed at that journal (``resume_from``) replays the recorded rows
  instead of recomputing them — an interrupted sweep continues from
  exactly the cells it was missing;
* every batch runs on an executor (see :mod:`repro.sim.executors`):
  ``jobs == 1`` on a :class:`~repro.sim.executors.SerialExecutor`,
  in-process and in grid order; ``jobs > 1`` on a
  :class:`~repro.sim.executors.SupervisedPoolExecutor`, where worker
  death costs one cell, not the sweep — the supervisor rebuilds the
  pool, reschedules innocent in-flight bystanders without consuming
  their retry budget, and quarantines a cell that keeps killing its
  workers with a ``status="crashed"`` row. Both run the same per-cell
  retry/timeout lifecycle; journaling, resume and stats stay in this
  process on one outcome-to-row path, and rows come back in
  submission order, so the resulting CSV is byte-identical whichever
  executor ran the grid.

Journal format (one JSON object per line)::

    {"key": {...cell coordinates...}, "status": "ok", "row": {...}}

``key`` is canonicalized with sorted keys, so the same cell always maps
to the same journal entry; on load, the last record for a key wins.
The runner is simulation-agnostic: a *cell* is any callable returning a
JSON-serializable dict. In the package, :meth:`ResilientRunner.run_cells`
has one caller, :func:`~repro.sim.sweep.run_sweep` — the grid behind
``sweep``, ``suite`` and ``validate`` — and
:meth:`ResilientRunner.run_cell` one, ``repro run``.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from .. import ioutil
from ..errors import ConfigError
from .checkpoint import checkpoint_path_for
from .executors import (
    STATUS_CRASHED,
    STATUS_OK,
    STATUS_TIMEOUT,
    CellTask,
    RetryPolicy,
    SerialExecutor,
    SupervisedPoolExecutor,
)

#: Keys the runner adds to every row it returns.
STATUS_FIELDS = ["status", "error"]

#: A failed cell that left a mid-simulation checkpoint behind: resuming
#: the run re-executes it from the snapshot, not from access 0.
STATUS_RESUMABLE = "resumable"


def cell_id(key: Dict[str, Any]) -> str:
    """Canonical journal identity of a cell key."""
    return json.dumps(key, sort_keys=True, separators=(",", ":"))


@dataclass
class RunnerStats:
    """What happened across one grid execution."""

    total: int = 0
    ok: int = 0
    resumed: int = 0
    errors: int = 0
    timeouts: int = 0
    retries: int = 0
    resumable: int = 0
    #: Cells quarantined because their execution kept killing workers.
    crashed: int = 0
    #: Pool rebuilds performed after worker deaths.
    worker_restarts: int = 0
    #: Cell re-dispatches caused by worker loss (no retry budget spent).
    rescheduled: int = 0
    #: Cells satisfied from the content-addressed result store
    #: (counted inside ``ok``; they never executed).
    store_hits: int = 0
    #: Persistent artifact-write failures absorbed by degradation
    #: (journal appends gone journalless, store publications gone
    #: read-only). The results themselves stay correct; under
    #: ``--strict`` a nonzero tally still exits 2 because the caller
    #: asked for those artifacts and did not get them.
    artifact_failures: int = 0

    @property
    def degraded(self) -> bool:
        """Whether the run degraded anywhere: a cell finished as
        something other than ``ok`` (error, timeout, resumable, or
        crashed) or a requested artifact could not be written — the
        condition ``--strict`` turns into exit code 2."""
        return (self.errors > 0 or self.timeouts > 0
                or self.resumable > 0 or self.crashed > 0
                or self.artifact_failures > 0)

    def summary(self) -> str:
        """One-line human-readable tally for the CLI epilogue."""
        text = (f"{self.total} cells: {self.ok} ok"
                f" ({self.resumed} resumed), {self.errors} errors,"
                f" {self.timeouts} timeouts, {self.retries} retries")
        if self.store_hits:
            text += f", {self.store_hits} store hits"
        if self.resumable:
            text += f", {self.resumable} resumable"
        if self.crashed:
            text += f", {self.crashed} crashed"
        if self.worker_restarts or self.rescheduled:
            text += (f", {self.worker_restarts} worker restarts, "
                     f"{self.rescheduled} rescheduled")
        if self.artifact_failures:
            text += f", {self.artifact_failures} artifact failures"
        return text


def load_journal(path: Union[str, Path]) -> Dict[str, dict]:
    """Read a JSONL journal; returns {cell_id: record}, last record wins.

    A garbled *final* line is a run killed mid-append — expected damage;
    it is skipped with a warning and the cell simply reruns on resume.
    A garbled line with valid records *after* it cannot be explained by
    a torn write, so it raises :class:`~repro.errors.ConfigError`: a
    journal corrupted in the middle (disk fault, concurrent writers,
    hand editing) must not silently drop completed cells. Earlier
    versions skipped every unparseable line, which turned real
    corruption into silent recomputation.
    """
    records: Dict[str, dict] = {}
    path = Path(path)
    lines = ioutil.read_text(path).splitlines()
    last = max((i for i, text in enumerate(lines) if text.strip()),
               default=-1)
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if i == last:
                print(f"[resilience] journal {path} ends with a "
                      f"truncated record (line {i + 1}); the cell will "
                      "rerun on resume", file=sys.stderr)
                continue
            raise ConfigError(
                f"journal {path} is corrupt at line {i + 1} "
                f"({exc}); valid records follow it, so this is not a "
                "torn final write — refusing to resume from a damaged "
                "journal")
        if isinstance(record, dict) and "key" in record:
            records[cell_id(record["key"])] = record
    return records


class ResilientRunner:
    """Execute grid cells with journaling, resume, retries and timeouts.

    Parameters
    ----------
    journal:
        Path to append one JSONL record per finished cell (created on
        first write). ``None`` disables checkpointing.
    resume_from:
        Path of a journal from a previous (interrupted) run; cells
        recorded there return their journaled rows without re-executing.
        Commonly the same path as ``journal``, in which case records are
        not re-appended.
    timeout_s:
        Per-cell deadline in seconds, positive and finite; a cell past
        it stops where it stands and degrades to a ``timeout`` row.
        ``None`` disables the deadline.
    retry:
        :class:`RetryPolicy` for :class:`~repro.errors.TransientError`.
    faults:
        Optional fault injector (see :mod:`repro.sim.faults`). Its
        data-level specs (``corrupt_trace``/``poison_predictor``) travel
        with each cell by ordinal, so they work in every mode. Its
        ``on_attempt(ordinal, key, attempt)`` hook runs before every
        in-process attempt, so attempt-level faults
        (crash/transient/stall) require serial execution (``jobs=1``);
        under ``jobs > 1`` the injector's ``fired`` log stays empty —
        firing happens in the workers.
    checkpoint_dir:
        Directory holding per-cell mid-simulation checkpoints (written
        by cells that pass ``checkpoint_every`` through to
        ``simulate``). When set, (a) a failing cell whose checkpoint
        file exists degrades to ``status="resumable"`` instead of
        ``error``/``timeout`` — rerunning the grid resumes it from the
        snapshot; (b) the per-cell timeout becomes a progress watchdog
        that reads each rewrite of the cell's checkpoint file as
        progress (see :func:`~repro.sim.executors.call_with_timeout`).
    sleep:
        Injection point for the backoff sleep (tests pass a recorder).
        Serial-mode only: pool workers always use ``time.sleep``.
    jobs:
        Default worker-process count for :meth:`run_cells`. ``1`` (the
        default) runs cells serially in-process; ``N > 1`` fans them
        out to a supervised process pool. Cell callables must then be
        picklable (module-level functions or ``functools.partial`` of
        them).
    max_worker_restarts:
        Pool rebuilds allowed after worker deaths before the remainder
        of the grid degrades to serial in-process execution
        (``None`` = ``jobs * 3``; see
        :class:`~repro.sim.executors.SupervisedPoolExecutor`).
    max_cell_crashes:
        Times one cell may be executing when its worker dies before it
        is quarantined with a ``status="crashed"`` row (default 2).
    """

    def __init__(self, journal: Optional[Union[str, Path]] = None,
                 resume_from: Optional[Union[str, Path]] = None,
                 timeout_s: Optional[float] = None,
                 retry: Optional[RetryPolicy] = None,
                 faults: Optional[Any] = None,
                 sleep: Callable[[float], None] = time.sleep,
                 jobs: int = 1,
                 checkpoint_dir: Optional[Union[str, Path]] = None,
                 max_worker_restarts: Optional[int] = None,
                 max_cell_crashes: int = 2):
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        if timeout_s is not None and not 0 < timeout_s < math.inf:
            raise ConfigError(
                f"timeout_s must be positive and finite, got {timeout_s}")
        self._check_fault_mode(faults, jobs)
        self.max_worker_restarts = max_worker_restarts
        self.max_cell_crashes = max_cell_crashes
        self.journal_path = Path(journal) if journal else None
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir \
            else None
        self.timeout_s = timeout_s
        self.retry = retry or RetryPolicy()
        self.faults = faults
        self.jobs = jobs
        self.stats = RunnerStats()
        self._sleep = sleep
        self._handle = None
        self._ordinal = 0  # execution order of non-resumed cells
        self._completed: Dict[str, dict] = {}
        self._journal_disabled = False
        self._resume_path = Path(resume_from) if resume_from else None
        if self._resume_path:
            if self._resume_path.exists():
                try:
                    self._completed = load_journal(self._resume_path)
                except OSError as exc:
                    # Interior *corruption* still raises ConfigError
                    # above (refusing to resume from a damaged journal
                    # is load_journal's contract), but a journal that
                    # cannot be *read at all* degrades to a fresh
                    # start: rerunning cells is always safe.
                    print(f"[resilience] resume journal "
                          f"{self._resume_path} unreadable ({exc}); "
                          "degraded: starting fresh", file=sys.stderr)
            else:
                # Starting fresh is the right recovery, but a typo'd
                # path must not silently rerun an entire campaign.
                print(f"[resilience] resume journal {self._resume_path}"
                      " not found; starting fresh", file=sys.stderr)

    @staticmethod
    def _check_fault_mode(faults: Optional[Any], jobs: int) -> None:
        """Reject fault campaigns that the execution mode cannot honor."""
        if faults is None:
            return
        if jobs > 1 and getattr(faults, "requires_serial", True):
            raise ConfigError(
                "attempt-level fault injection (crash/transient/stall) "
                "is keyed on serial execution ordinals; use jobs=1, or "
                "inject only data-level faults "
                "(corrupt_trace/poison_predictor)")
        if jobs == 1 and getattr(faults, "requires_parallel", False):
            raise ConfigError(
                "kill_worker faults SIGKILL a pool worker process, "
                "which only exists under --jobs N; use jobs >= 2")

    # -- journal ------------------------------------------------------

    def _record(self, key: Dict[str, Any], status: str,
                row: Dict[str, Any]) -> None:
        if self.journal_path is None or self._journal_disabled:
            return
        try:
            # The guard raises *before* any bytes leave this process,
            # so injected transient faults retry safely; a real append
            # failure below degrades immediately instead of retrying —
            # re-appending after a partial write could corrupt the
            # journal interior, which load_journal rejects outright.
            ioutil.io_guard("journal-append", self.journal_path)
            if self._handle is None:
                self._handle = self.journal_path.open("a")
            json.dump({"key": key, "status": status, "row": row},
                      self._handle)
            self._handle.write("\n")
            self._handle.flush()
        except OSError as exc:
            self._journal_disabled = True
            self.stats.artifact_failures += 1
            print(f"[resilience] journal append to {self.journal_path} "
                  f"failed ({exc}); degraded to journalless — cells "
                  "from this run will rerun on --resume",
                  file=sys.stderr)

    def close(self) -> None:
        """Flush and close the journal. Idempotent.

        Checkpoint snapshots left under ``checkpoint_dir`` stay: they
        are what a rerun of the grid resumes from.
        """
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ResilientRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- execution ----------------------------------------------------

    def completed_ok(self, key: Dict[str, Any]) -> bool:
        """Whether the resume journal already holds an ``ok`` row for
        ``key`` (such cells replay their journaled row; they never
        execute). Lets grid builders skip per-cell setup — the sweep's
        trace substrate only publishes traces that a *pending* cell
        will actually attach.
        """
        record = self._completed.get(cell_id(key))
        return record is not None and record.get("status") == STATUS_OK

    def record_hit(self, key: Dict[str, Any],
                   row: Dict[str, Any]) -> Dict[str, Any]:
        """Account and journal a cell satisfied outside the runner.

        The content-addressed store's dedupe pre-pass resolves grid
        cells *before* they are ever submitted for execution; this
        records such a cell as ``ok`` (tallied separately as a
        ``store_hit``) and appends it to the journal exactly like an
        executed cell — so ``--resume`` over a store-accelerated run
        replays hit rows from the journal with identical semantics.
        Returns the finished row (status fields attached).
        """
        self.stats.total += 1
        self.stats.ok += 1
        self.stats.store_hits += 1
        row = {**row, "status": STATUS_OK, "error": ""}
        self._record(key, STATUS_OK, row)
        return row

    def run_cell(self, key: Dict[str, Any],
                 fn: Callable[[], Dict[str, Any]],
                 degrade: bool = True) -> Dict[str, Any]:
        """Execute one cell in-process; returns its row.

        On success the row gains ``status="ok"``/``error=""``. With
        ``degrade=True`` (the default) a failure returns
        ``{**key, "status": ..., "error": ...}`` instead of raising; with
        ``degrade=False`` the final attempt's exception propagates
        (single-cell commands want the typed error, not a row). A cell
        recorded as ``ok`` in the resume journal returns its journaled
        row verbatim without re-executing; error/timeout records
        re-execute.
        """
        return self._run([(key, fn)], 1, degrade)[0]

    def run_cells(self, cells: Sequence[Tuple[Dict[str, Any],
                                              Callable[[], Dict[str, Any]]]],
                  done: Optional[Callable[[int], None]] = None
                  ) -> List[Dict[str, Any]]:
        """Execute a batch of ``(key, fn)`` cells; rows in input order.

        Cells recorded ``ok`` in the resume journal return their
        journaled rows; the rest run on an executor — a
        :class:`~repro.sim.executors.SerialExecutor` for ``jobs == 1``
        (in-process, in grid order), else a
        :class:`~repro.sim.executors.SupervisedPoolExecutor`, which
        survives worker death (see :mod:`repro.sim.executors`). Either
        way each cell handles its own retries and timeout, while resume
        checks, journaling and stats stay in this process. Journal
        records are appended as outcomes arrive — serially, each before
        the next cell starts; under a pool in completion order (resume
        semantics only depend on the set of records) — and the returned
        list preserves the input order, so downstream CSVs are
        byte-identical in either mode. Cell callables must be picklable
        in parallel mode. ``done(index)`` is called once per cell, when
        its row is final (replayed from the journal, or its outcome
        recorded), however many attempts it made.
        """
        return self._run(cells, self.jobs, True, done)

    def _run(self, cells: Sequence[Tuple[Dict[str, Any],
                                         Callable[[], Dict[str, Any]]]],
             jobs: int, degrade: bool,
             done: Optional[Callable[[int], None]] = None
             ) -> List[Dict[str, Any]]:
        """The one cell lifecycle: resume replay, execution, and the
        outcome-to-row path (journal record + stats) for both modes."""
        rows: List[Optional[Dict[str, Any]]] = [None] * len(cells)
        # The task ordinal counts non-resumed cells in submission
        # order, so fault specs target the same cell whichever mode
        # executes the grid.
        pending: List[CellTask] = []
        for index, (key, fn) in enumerate(cells):
            self.stats.total += 1
            record = self._completed.get(cell_id(key))
            if record is not None and record.get("status") == STATUS_OK:
                # Only successful rows are trusted on resume; error /
                # timeout cells re-execute (resuming IS their retry).
                self.stats.resumed += 1
                self.stats.ok += 1
                if (self.journal_path
                        and self.journal_path != self._resume_path):
                    self._record(key, STATUS_OK, record.get("row", {}))
                rows[index] = dict(record.get("row", {}))
                if done is not None:
                    done(index)
            else:
                pending.append(CellTask(
                    index=index, key=key, fn=fn, ordinal=self._ordinal,
                    data_specs=(self.faults.data_specs_for(self._ordinal)
                                if self.faults is not None else ()),
                    checkpoint=(
                        checkpoint_path_for(self.checkpoint_dir, key)
                        if self.checkpoint_dir is not None else None)))
                self._ordinal += 1
        if not pending:
            return rows  # type: ignore[return-value]
        checkpoints = {task.index: task.checkpoint for task in pending}
        if jobs == 1:
            executor = SerialExecutor(
                timeout_s=self.timeout_s, retry=self.retry,
                on_attempt=(self.faults.on_attempt
                            if self.faults is not None else None),
                sleep=self._sleep)
        else:
            executor = SupervisedPoolExecutor(
                jobs, timeout_s=self.timeout_s, retry=self.retry,
                max_worker_restarts=self.max_worker_restarts,
                max_cell_crashes=self.max_cell_crashes,
                kill_plan=(self.faults.kill_plan()
                           if self.faults is not None else None))
        try:
            for outcome in executor.run(pending):
                key = outcome.key
                self.stats.retries += outcome.retries
                if outcome.status == STATUS_OK:
                    row = {**outcome.payload, "status": STATUS_OK,
                           "error": ""}
                    self.stats.ok += 1
                    status = STATUS_OK
                else:
                    status = self._classify_failure(
                        checkpoints[outcome.index], outcome.status)
                    if not degrade:
                        self.close()
                        raise outcome.error
                    row = {**key, "status": status,
                           "error": outcome.payload}
                self._record(key, status, row)
                rows[outcome.index] = row
                if done is not None:
                    done(outcome.index)
        finally:
            self.stats.worker_restarts += executor.stats.worker_restarts
            self.stats.rescheduled += executor.stats.rescheduled
            executor.close()
        return rows  # type: ignore[return-value]

    def _classify_failure(self, checkpoint: Optional[Path],
                          status: str) -> str:
        """Final status of a failed cell, tallying the runner stats.

        A failed cell whose mid-simulation checkpoint file exists
        becomes ``resumable``: the work up to the last snapshot is not
        lost, and rerunning the grid resumes from it. (A quarantined
        ``crashed`` cell with a snapshot is likewise ``resumable`` —
        the resumed run re-executes it from the snapshot, which also
        re-tests whether the crash was environmental.)
        """
        if checkpoint is not None and checkpoint.exists():
            self.stats.resumable += 1
            return STATUS_RESUMABLE
        if status == STATUS_TIMEOUT:
            self.stats.timeouts += 1
        elif status == STATUS_CRASHED:
            self.stats.crashed += 1
        else:
            self.stats.errors += 1
        return status
