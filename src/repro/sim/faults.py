"""Deterministic fault injection for the experiment harness.

Two kinds of faults, both fully seeded/deterministic so tests (and
users probing robustness) get reproducible failure campaigns:

**Attempt-level faults** fire inside :class:`ResilientRunner` before a
cell executes, keyed on the cell's execution ordinal (0-based order of
*non-resumed* cells within one run):

* ``crash``      — raises :class:`WorkerCrash` (a ``BaseException``, so
  the runner cannot degrade it): the whole grid aborts as if the worker
  process died, leaving only the journal behind. Resuming from that
  journal is the recovery path.
* ``transient``  — raises :class:`~repro.errors.TransientError` for the
  first ``count`` attempts of the cell, then lets it through: exercises
  the retry/backoff budget.
* ``stall``      — sleeps ``seconds`` before the cell body, modelling a
  hung backend (e.g. a DRAM model waiting on a dead queue): exercises
  the per-cell timeout.

**Data-level faults** corrupt model state directly:

* :func:`corrupt_trace`  — flips a deterministic subset of trace
  records to impossible values (negative / out-of-48-bit-range VAs);
  ``Trace.validate()`` (run by the driver) reports these as
  :class:`~repro.errors.TraceError`.
* :func:`poison_predictor` — overwrites perceptron weights with NaN;
  the predictor's finite-activation guard reports
  :class:`~repro.errors.SimulationError` at first use.

**Dispatch-level faults** fire in a pool *worker* as it picks up a
cell, and are only legal under ``--jobs N`` (N >= 2):

* ``kill_worker`` — the worker SIGKILLs itself after marking the cell
  in flight, modelling a hard worker death (OOM kill, segfault).
  Exercises the :class:`~repro.sim.executors.SupervisedPoolExecutor`:
  pool rebuild, bystander rescheduling, and crash attribution /
  quarantine. ``kill_worker@N`` kills on *every* dispatch of cell
  ordinal N (the cell is quarantined as ``crashed`` after
  ``--max-cell-crashes`` deaths); ``kill_worker@NxK`` kills only the
  first K dispatches (with K below the crash limit, the cell
  ultimately succeeds and the fault purely exercises rescheduling).

Data-level faults can also be *injected by spec* — the injector arms
them in a process-local channel (:func:`arm_fault`) that
:func:`repro.sim.driver.simulate` consumes at entry, so the corruption
happens inside the simulation exactly once, whichever process runs the
cell. Because they piggyback on state the worker already has (no
cross-process coordination), data-level specs are safe under
``--jobs N``; attempt-level faults (``crash``/``transient``/``stall``)
stay serial-only — they fire in the parent's submission loop, whose
ordinal-to-attempt mapping only exists there.

Fault specs parse from compact strings (CLI ``--inject``)::

    crash@3             crash before executing the 4th fresh cell
    crash@3@5000        crash *inside* cell 3 at access ordinal 5000
                        (mid-simulation: exercises checkpoint resume)
    transient@2         cell 2 fails once, then succeeds
    transient@2x3       cell 2 fails three attempts, then succeeds
    stall@1:0.5         cell 1 stalls 0.5 s before running
    corrupt_trace@0     corrupt 16 records of cell 0's trace
    corrupt_trace@0x4   corrupt 4 records instead
    poison_predictor@1  NaN-poison every perceptron entry of cell 1
    poison_predictor@1x8  poison 8 deterministic entries
    kill_worker@1       SIGKILL the worker on every dispatch of cell 1
    kill_worker@1x1     SIGKILL only the first dispatch of cell 1
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..errors import ConfigError, TransientError


class WorkerCrash(BaseException):
    """Simulated worker death.

    Deliberately a ``BaseException`` (like ``KeyboardInterrupt``) so the
    runner's degradation machinery cannot catch it: the grid aborts with
    completed cells preserved in the journal, exactly like a real crash.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault, bound to a cell execution ordinal."""

    kind: str            # see KINDS
    at_cell: int         # 0-based execution ordinal within the run
    count: int = 1       # transient: failing attempts before success
                         # corrupt_trace: records; poison_predictor:
                         # entries (0 = all); kill_worker: dispatches
                         # to kill (0 = every dispatch)
    seconds: float = 0.0  # stall: sleep before the cell body
    at_access: Optional[int] = None  # crash: trace ordinal to die at
                                     # (None = before the cell runs)

    KINDS = ("crash", "transient", "stall",
             "corrupt_trace", "poison_predictor", "kill_worker")

    #: Kinds that must fire in the parent's serial submission loop.
    ATTEMPT_KINDS = ("crash", "transient", "stall")

    #: Kinds armed into the worker and applied inside ``simulate``.
    DATA_KINDS = ("corrupt_trace", "poison_predictor")

    #: Kinds applied by the supervised pool at dispatch (jobs >= 2).
    DISPATCH_KINDS = ("kill_worker",)

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ConfigError(f"unknown fault kind {self.kind!r}; "
                              f"choose from {list(self.KINDS)}")
        if self.at_cell < 0:
            raise ConfigError("fault cell ordinal must be >= 0")
        if self.at_access is not None and self.kind != "crash":
            raise ConfigError(
                "only crash faults take an @ACCESS ordinal, "
                f"not {self.kind!r}")


_FAULT_RE = re.compile(
    r"^(?P<kind>[a-z_]+)@(?P<cell>\d+)(?:@(?P<access>\d+))?"
    r"(?:x(?P<count>\d+))?(?::(?P<seconds>[0-9.]+))?$")

#: Default ``count`` per kind when the spec omits ``xK``.
_DEFAULT_COUNT = {"corrupt_trace": 16, "poison_predictor": 0,
                  "kill_worker": 0}


def parse_fault(text: str) -> FaultSpec:
    """Parse a compact fault spec (see module docstring for the forms)."""
    match = _FAULT_RE.match(text.strip())
    if not match:
        raise ConfigError(
            f"bad fault spec {text!r}; expected forms: crash@N, "
            "crash@N@ACCESS, transient@N[xK], stall@N:SECONDS, "
            "corrupt_trace@N[xK], poison_predictor@N[xK], "
            "kill_worker@N[xK]")
    kind = match.group("kind")
    access = match.group("access")
    spec = FaultSpec(kind=kind, at_cell=int(match.group("cell")),
                     count=int(match.group("count")
                               or _DEFAULT_COUNT.get(kind, 1)),
                     seconds=float(match.group("seconds") or 0.0),
                     at_access=int(access) if access is not None else None)
    if kind == "stall" and spec.seconds <= 0:
        raise ConfigError(f"stall fault {text!r} needs a positive "
                          "duration, e.g. stall@1:0.5")
    return spec


# ---------------------------------------------------------------------
# Armed-fault channel (process-local)
# ---------------------------------------------------------------------
# The injector cannot reach inside ``simulate`` — the trace and the
# predictor only exist there — so faults that must fire *mid-cell* are
# "armed" here and consumed by the driver at simulation entry. The
# channel is a plain module global: it is process-local by construction
# (each ``--jobs`` worker arms its own), and the driver's consumption
# check is a single dict lookup guarded by :func:`any_armed`, keeping
# the uninjected hot path at literally one ``if``.

_ARMED: Dict[str, Any] = {}


def arm_fault(kind: str, value: Any) -> None:
    """Arm one fault for the next ``simulate`` call in this process."""
    _ARMED[kind] = value


def consume_fault(kind: str) -> Any:
    """Pop an armed fault (``None`` when nothing is armed)."""
    return _ARMED.pop(kind, None)


def any_armed() -> bool:
    """Cheap guard the driver checks before consuming anything."""
    return bool(_ARMED)


def clear_armed() -> None:
    """Drop every armed fault (test isolation)."""
    _ARMED.clear()


def arm_data_specs(specs: Iterable[FaultSpec]) -> None:
    """Arm data-level specs (worker-side, once per attempt)."""
    for spec in specs:
        arm_fault(spec.kind, spec)


class FaultInjector:
    """Attempt-level fault source for :class:`ResilientRunner`.

    Pass ``FaultSpec`` objects or their string forms. The injector is
    stateless apart from nothing at all — which fault fires is a pure
    function of (ordinal, attempt), so replaying a run replays its
    faults.
    """

    def __init__(self, faults: Iterable[Any] = (), sleep=time.sleep):
        self.faults: List[FaultSpec] = [
            f if isinstance(f, FaultSpec) else parse_fault(f)
            for f in faults]
        self._sleep = sleep
        self.fired: List[Tuple[str, int, int]] = []  # (kind, ordinal, attempt)

    @property
    def requires_serial(self) -> bool:
        """True when any spec must fire in the parent's serial loop.

        Data-level specs are armed inside whichever process runs the
        cell, so a campaign of only those is ``--jobs N``-safe.
        """
        return any(f.kind in FaultSpec.ATTEMPT_KINDS for f in self.faults)

    @property
    def requires_parallel(self) -> bool:
        """True when any spec SIGKILLs a pool worker (needs jobs >= 2).

        ``kill_worker`` kills the process executing the cell; in serial
        mode that process is the parent, so the spec is rejected there.
        """
        return any(f.kind in FaultSpec.DISPATCH_KINDS for f in self.faults)

    def kill_plan(self) -> Dict[int, int]:
        """``{cell ordinal: kill count}`` for the supervised pool.

        A count of 0 means "kill on every dispatch" (the cell ends
        quarantined); K > 0 kills only the first K dispatches. Later
        specs for the same ordinal win, matching attempt-level
        injection order semantics.
        """
        return {f.at_cell: f.count for f in self.faults
                if f.kind in FaultSpec.DISPATCH_KINDS}

    def data_specs_for(self, ordinal: int) -> Tuple[FaultSpec, ...]:
        """Data-level specs targeting cell ``ordinal`` (for workers)."""
        return tuple(f for f in self.faults
                     if f.kind in FaultSpec.DATA_KINDS
                     and f.at_cell == ordinal)

    def on_attempt(self, ordinal: int, key: Dict[str, Any],
                   attempt: int) -> None:
        """Fire any fault armed for cell ``ordinal`` on this attempt."""
        for fault in self.faults:
            if fault.at_cell != ordinal:
                continue
            if fault.kind in FaultSpec.DATA_KINDS:
                self.fired.append((fault.kind, ordinal, attempt))
                arm_fault(fault.kind, fault)
                continue
            if fault.kind == "crash":
                self.fired.append(("crash", ordinal, attempt))
                if fault.at_access is not None:
                    # Mid-simulation crash: arm the ordinal and let the
                    # cell start — the driver raises WorkerCrash at that
                    # access, after any checkpoints below it landed.
                    arm_fault("sim_crash", fault.at_access)
                    continue
                raise WorkerCrash(
                    f"injected worker crash at cell {ordinal}")
            if fault.kind == "transient" and attempt < fault.count:
                self.fired.append(("transient", ordinal, attempt))
                raise TransientError(
                    f"injected transient fault at cell {ordinal} "
                    f"(attempt {attempt + 1}/{fault.count})",
                    app=key.get("app"), config=key.get("config"),
                    seed=key.get("seed"))
            if fault.kind == "stall":
                self.fired.append(("stall", ordinal, attempt))
                self._sleep(fault.seconds)


# ---------------------------------------------------------------------
# Data-level faults
# ---------------------------------------------------------------------

def corrupt_trace(trace, n_records: int = 16, seed: int = 0):
    """Return a copy of ``trace`` with ``n_records`` impossible VAs.

    Alternating records get a negative VA and a VA beyond the 48-bit
    canonical range — both rejected by ``Trace.validate()``. The record
    choice is deterministic in ``seed``. The copy has no recipe: it no
    longer is the trace its recipe names.
    """
    from dataclasses import replace
    rng = np.random.default_rng(seed)
    n = min(n_records, len(trace))
    if n <= 0:
        raise ConfigError("corrupt_trace needs a non-empty trace")
    picks = rng.choice(len(trace), size=n, replace=False)
    va = trace.va.copy()
    for i, idx in enumerate(sorted(int(p) for p in picks)):
        va[idx] = -1 - idx if i % 2 == 0 else (1 << 52) + idx
    return replace(trace, va=va, recipe=None)


def poison_predictor(predictor, n_entries: int = 0, seed: int = 0) -> int:
    """Overwrite perceptron weights with NaN; returns entries poisoned.

    ``n_entries == 0`` poisons every entry; otherwise a deterministic
    ``seed``-chosen subset. The predictor's finite-activation guard
    turns the first use of a poisoned entry into a
    :class:`~repro.errors.SimulationError`.
    """
    rng = np.random.default_rng(seed)
    weights = predictor._weights
    if n_entries <= 0 or n_entries >= len(weights):
        entries = range(len(weights))
    else:
        entries = sorted(int(i) for i in
                         rng.choice(len(weights), size=n_entries,
                                    replace=False))
    count = 0
    for entry in entries:
        weights[entry] = [float("nan")] * len(weights[entry])
        count += 1
    return count
