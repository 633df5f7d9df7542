"""Crash-safe file I/O shared by every run artifact.

A run artifact (sweep CSV, interval JSONL, stats snapshot, simulation
checkpoint, bench report, store entry) must never be left *torn* by a
kill: a later ``--resume`` that trips over half a file is strictly
worse than one that finds no file at all. Every writer therefore goes
through :func:`atomic_write_text` / :func:`atomic_write_bytes`: the
content lands in a temp file **in the same directory** (so the final
rename cannot cross filesystems), is flushed — and optionally fsynced —
and then moved over the destination with ``os.replace``, which POSIX
guarantees to be atomic. Readers see either the complete old content or
the complete new content, never a prefix.

This module is also the repo's **single I/O choke point** for fault
tolerance (see :mod:`repro.faultfs` and ``docs/robustness.md``):

* every guarded operation — the atomic writes plus the
  :func:`read_text` / :func:`read_bytes` readers and the
  :func:`io_guard` hook best-effort writers call — retries *transient*
  errnos (EIO, ESTALE, EAGAIN — the everyday weather of a networked
  store root) with bounded exponential backoff before giving up;
* an armed :class:`~repro.faultfs.FaultPlan` injects deterministic
  faults here, one ordinal per guarded operation, so chaos campaigns
  replay exactly;
* a ``torn_write`` fault makes an atomic write deliberately leave half
  the payload at the destination — simulating the tear an NFS client
  cache can produce — which downstream readers must treat as a miss.
"""

from __future__ import annotations

import errno
import os
import time
from pathlib import Path
from typing import Callable, Optional, Union

from . import faultfs

#: errnos worth retrying: transient by nature on a shared/networked
#: filesystem. Everything else (ENOSPC, EROFS, EACCES, ENOENT, ...)
#: fails the attempt immediately — retrying cannot help.
RETRYABLE_ERRNOS = frozenset({errno.EIO, errno.ESTALE, errno.EAGAIN})

#: Default retry budget for guarded operations (retries after the
#: first attempt — 3 attempts total). Deliberately mirrors the
#: runner's ``RetryPolicy(max_retries=2)`` so ``io_error@NxK`` specs
#: read like ``transient@NxK``: K <= 2 recovers, K >= 3 is persistent.
DEFAULT_IO_RETRIES = 2

#: First backoff delay; doubles per retry (0.05, 0.1, 0.2, ...).
IO_BACKOFF_S = 0.05

#: Sentinel returned by the guarded call when the fault plan tore the
#: write instead of failing it (module-private; callers of the public
#: API never see it).
_TORN = object()


def _io_call(fn: Callable[[], object], *, op: str, path: Path,
             retries: Optional[int] = None,
             sleep: Callable[[float], None] = time.sleep) -> object:
    """Run one guarded I/O operation with transient-error retries.

    Opens one fault-plan ticket (one *ordinal*), then attempts
    ``fn`` — re-consulting the ticket before every retry, so an
    ``io_error@NxK`` spec fails exactly the first K attempts of
    operation N. Retryable errnos back off exponentially up to
    ``retries`` times; everything else propagates immediately.
    """
    plan = faultfs.active_plan()
    ticket = plan.begin(op, str(path)) if plan is not None else None
    budget = DEFAULT_IO_RETRIES if retries is None else retries
    attempt = 0
    while True:
        try:
            if (ticket is not None
                    and ticket.attempt(attempt) == "torn"):
                return _TORN
            return fn()
        except OSError as exc:
            if exc.errno not in RETRYABLE_ERRNOS or attempt >= budget:
                raise
            sleep(IO_BACKOFF_S * (2 ** attempt))
            attempt += 1


def io_guard(op: str, path: Union[str, Path] = "", *,
             retries: Optional[int] = None,
             sleep: Callable[[float], None] = time.sleep) -> bool:
    """Consult the fault plan for an operation the caller performs.

    The hook for best-effort writers that manage their own file I/O
    (journal appends, ``os.utime`` refreshes):
    call this first, then do the real write. Injected transient faults
    are retried with the same backoff as the full helpers; a
    persistent injected fault raises :class:`OSError` for the caller's
    degradation policy to absorb. Returns ``True`` when the plan wants
    the operation *torn* (callers that cannot tear just proceed).
    Costs one ``is None`` check when no plan is armed.
    """
    if faultfs.active_plan() is None:
        return False
    return _io_call(lambda: None, op=op, path=Path(str(path) or "."),
                    retries=retries, sleep=sleep) is _TORN


def read_text(path: Union[str, Path], *,
              retries: Optional[int] = None,
              sleep: Callable[[float], None] = time.sleep) -> str:
    """Read a text file through the guarded choke point.

    Transient errors (EIO/ESTALE/EAGAIN) retry with bounded backoff;
    a missing file raises :class:`FileNotFoundError` immediately
    (ENOENT is not transient). Artifact readers wrap this in their own
    damage-is-a-miss policy.
    """
    path = Path(path)
    return _io_call(path.read_text, op="read-text", path=path,
                    retries=retries, sleep=sleep)


def read_bytes(path: Union[str, Path], *,
               retries: Optional[int] = None,
               sleep: Callable[[float], None] = time.sleep) -> bytes:
    """Binary twin of :func:`read_text` (store result entries)."""
    path = Path(path)
    return _io_call(path.read_bytes, op="read-bytes", path=path,
                    retries=retries, sleep=sleep)


def _torn_payload(data: bytes) -> bytes:
    """The prefix a torn write leaves behind (half the payload)."""
    return data[:len(data) // 2]


def _replace(path: Path, data, mode: str, fsync: bool, **kwargs) -> Path:
    """Write ``data`` to a fresh temp file beside ``path``, then rename
    it over ``path``. The temp file is named before it exists, so an
    exception raised at any bytecode in between — a cell deadline's
    timer included — still finds it and unlinks it."""
    tmp_name = f"{path}.{os.urandom(6).hex()}.tmp"
    try:
        with open(tmp_name, mode, **kwargs) as handle:
            handle.write(data)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def atomic_write_bytes(path: Union[str, Path], data: bytes,
                       fsync: bool = True, *,
                       retries: Optional[int] = None,
                       sleep: Callable[[float], None] = time.sleep
                       ) -> Path:
    """Write ``data`` to ``path`` atomically (temp file + ``os.replace``).

    The binary twin of :func:`atomic_write_text`, used for artifacts
    that are not line-oriented text — the content-addressed result
    store's pickled :class:`~repro.sim.results.SimResult` entries.
    Same guarantees: the temp file lands in the destination directory,
    is flushed (and fsynced unless ``fsync=False``), and replaces the
    destination atomically, so a reader can never observe a torn file
    and racing writers of identical content are benign. Transient
    errors retry with bounded backoff; an armed ``torn_write`` fault
    deliberately leaves half of ``data`` at the destination instead
    (reported as success — the damage readers must treat as a miss).
    """
    path = Path(path)
    out = _io_call(lambda: _replace(path, data, "xb", fsync),
                   op="atomic-write-bytes", path=path,
                   retries=retries, sleep=sleep)
    if out is _TORN:
        with open(path, "wb") as handle:
            handle.write(_torn_payload(data))
        return path
    return out


def atomic_write_text(path: Union[str, Path], text: str,
                      fsync: bool = True, *,
                      retries: Optional[int] = None,
                      sleep: Callable[[float], None] = time.sleep
                      ) -> Path:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    Parameters
    ----------
    path:
        Destination file; its parent directory must exist.
    text:
        Full file content.
    fsync:
        Force the temp file to disk before the rename (the default —
        without it a power loss can leave an empty renamed file on some
        filesystems). Pass ``False`` for high-frequency, low-value
        artifacts like periodic checkpoint snapshots, where the next
        write supersedes a lost update but every sync costs latency.
    retries:
        Transient-error retry budget (default
        :data:`DEFAULT_IO_RETRIES`).
    sleep:
        Injection point for the backoff sleep (tests pass a recorder).

    An armed ``torn_write`` fault makes this call leave half of
    ``text`` directly at the destination and report success — the
    non-atomic tear readers must treat as damage.
    """
    path = Path(path)
    out = _io_call(lambda: _replace(path, text, "x", fsync, newline=""),
                   op="atomic-write-text", path=path,
                   retries=retries, sleep=sleep)
    if out is _TORN:
        data = text.encode("utf-8")
        with open(path, "wb") as handle:
            handle.write(_torn_payload(data))
        return path
    return out
