"""Async job journal over the content-addressed result store.

The sweep-as-a-service front end: a **job** is a submitted design-space
grid, journaled under the store root so it survives the submitting
process. The lifecycle is deliberately simple and daemon-free —
each step is one CLI invocation (``repro jobs submit/status/run/
result``), so the "service" is the filesystem plus determinism:

* **submit** dedupes the grid against the store (cells whose digest is
  already present need no work), claims the remaining digests with
  advisory *pending markers*, and journals the job. Submission is
  idempotent and content-addressed: the job id is a digest of the grid
  payload, so resubmitting the same grid lands on the same job — and
  two *overlapping* grids share in-flight cells through the markers
  (the second submitter sees the first's claim and counts the cell as
  in flight instead of claiming it again).
* **run** executes one job's missing cells through
  :func:`repro.sim.sweep.run_sweep` with the store attached — every
  completed cell lands in the store (visible to every other job
  immediately), and claims for finished digests are released.
* **status** recomputes each job's done / in-flight / pending tallies
  live against the store — there is no state to go stale.
* **result** composes the job's CSV purely from store entries
  (byte-identical to a cold ``sweep`` run of the same grid) once every
  cell is present.

Pending markers are *advisory leases*: they carry dedupe information
between cooperating submitters, never correctness. Each marker is
stamped with its owner (pid + host) and an expiry deadline; ``jobs
run`` renews its claims from a background :class:`LeaseRenewer`
every TTL/3, so a live owner's markers never lapse while a SIGKILLed
owner's markers expire after
:func:`lease_ttl` seconds and overlapping submissions **steal** them.
That makes shared (rsync/NFS) store roots safe: a dead owner wedges
nothing for longer than one TTL, and stealing is harmless because
store writes are idempotent — the worst case is one redundant
simulation. Markers whose owning job record no longer exists, whose
lease has expired, or that predate the lease schema are all treated as
unclaimed.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..ioutil import atomic_write_text, read_text
from ..stateutil import canonical_json
from .resultstore import ResultStore

#: Job-record schema tag.
JOB_SCHEMA = "repro-job-1"

#: Default pending-marker lease TTL (seconds). Long enough that one
#: slow cell plus scheduler noise cannot lapse a live owner's claim
#: between renewals (which come every TTL/3), short enough that a dead
#: owner stops wedging overlapping jobs within minutes.
DEFAULT_LEASE_TTL_S = 600.0


def lease_ttl() -> float:
    """The pending-marker lease TTL: ``REPRO_LEASE_TTL`` or default."""
    raw = os.environ.get("REPRO_LEASE_TTL")
    if raw is None:
        return DEFAULT_LEASE_TTL_S
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(
            "environment variable REPRO_LEASE_TTL must be a number of "
            f"seconds, got {raw!r}") from None
    if value <= 0:
        raise ConfigError(
            f"environment variable REPRO_LEASE_TTL must be > 0, "
            f"got {value}")
    return value


def _now() -> float:
    """Lease clock (module-level so tests can advance time)."""
    return time.time()


def _owner_stamp() -> Dict[str, Any]:
    """This process's owner identity for a lease stamp."""
    return {"pid": os.getpid(), "host": socket.gethostname()}


def jobs_dir(store: ResultStore) -> Path:
    """The job-record directory under the store root."""
    return store.root / "jobs"


def pending_dir(store: ResultStore) -> Path:
    """The advisory in-flight-claim directory under the store root."""
    return store.root / "pending"


def job_id_for(grid: Dict[str, Any]) -> str:
    """Deterministic job id: short digest of the canonical grid payload.

    Content-addressed like the cells themselves, so submitting an
    identical grid twice is the *same* job — the second submit is a
    no-op refresh, not a duplicate.
    """
    return hashlib.sha256(
        canonical_json(grid).encode("utf-8")).hexdigest()[:12]


def _marker_path(store: ResultStore, digest: str) -> Path:
    return pending_dir(store) / f"{digest}.json"


def _marker_payload(store: ResultStore,
                    digest: str) -> Optional[Dict[str, Any]]:
    """The raw marker dict for ``digest``, or ``None`` when unreadable.

    Damage (missing, corrupt, injected I/O failure) is a miss — an
    unreadable marker reads as unclaimed, which only risks one
    redundant simulation, never a wedge.
    """
    try:
        payload = json.loads(read_text(_marker_path(store, digest)))
    except (OSError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


def _marker_owner(store: ResultStore, digest: str) -> Optional[str]:
    """The job id holding a *live lease* on ``digest``, or ``None``.

    A marker reads as unclaimed when any of these hold: it is missing
    or unreadable; its owning job record has been deleted; it carries
    no ``expires`` deadline (pre-lease schema); or its lease has
    expired — the dead-owner case that lets overlapping submissions
    steal the claim.
    """
    payload = _marker_payload(store, digest)
    if payload is None:
        return None
    owner = payload.get("job")
    if not owner:
        return None
    if not (jobs_dir(store) / f"{owner}.json").exists():
        return None
    expires = payload.get("expires")
    if not isinstance(expires, (int, float)) or expires <= _now():
        return None
    return str(owner)


def _stamp_claim(store: ResultStore, job_id: str, digest: str,
                 ttl: float) -> None:
    """Write ``digest``'s pending marker with a fresh lease stamp."""
    atomic_write_text(
        _marker_path(store, digest),
        canonical_json({"schema": JOB_SCHEMA, "job": job_id,
                        "digest": digest, "owner": _owner_stamp(),
                        "expires": _now() + ttl}) + "\n",
        fsync=False)


def submit_job(store: ResultStore, grid: Dict[str, Any],
               cells: Sequence[Tuple[Dict[str, Any], str]],
               ttl: Optional[float] = None) -> Dict[str, Any]:
    """Journal a grid as a job; dedupe and claim its missing cells.

    ``grid`` is the JSON-safe grid description (the CLI's sweep flags),
    ``cells`` the grid's ``(cell key, content digest)`` pairs in row
    order. Returns the submission summary: job ``id`` plus ``done``
    (already in the store), ``shared`` (leased by another live job),
    and ``claimed`` (newly ours — including claims *stolen* from
    expired leases) tallies. Idempotent — resubmitting refreshes the
    same job record and re-stamps its leases. ``ttl`` overrides
    :func:`lease_ttl` (tests).
    """
    job_id = job_id_for(grid)
    ttl = lease_ttl() if ttl is None else ttl
    jobs_dir(store).mkdir(parents=True, exist_ok=True)
    pending_dir(store).mkdir(parents=True, exist_ok=True)
    done = shared = claimed = 0
    for key, digest in cells:
        if store.contains(digest):
            done += 1
            continue
        owner = _marker_owner(store, digest)
        if owner is not None and owner != job_id:
            shared += 1
            continue
        _stamp_claim(store, job_id, digest, ttl)
        claimed += 1
    record = {"schema": JOB_SCHEMA, "id": job_id, "grid": grid,
              "cells": [{"key": key, "digest": digest}
                        for key, digest in cells]}
    atomic_write_text(jobs_dir(store) / f"{job_id}.json",
                      json.dumps(record, sort_keys=True, indent=1) + "\n")
    return {"id": job_id, "cells": len(cells), "done": done,
            "shared": shared, "claimed": claimed}


def load_job(store: ResultStore, job_id: str) -> Dict[str, Any]:
    """Read one job record; unknown or corrupt records raise
    :class:`~repro.errors.ConfigError` (a typo'd id must not silently
    become an empty job)."""
    path = jobs_dir(store) / f"{job_id}.json"
    try:
        record = json.loads(read_text(path))
    except OSError:
        raise ConfigError(
            f"unknown job {job_id!r}: no record at {path} "
            "(see `repro jobs status` for known jobs)") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"job record {path} is corrupt: {exc}") from None
    if (not isinstance(record, dict)
            or record.get("schema") != JOB_SCHEMA
            or "grid" not in record or "cells" not in record):
        raise ConfigError(
            f"job record {path} has unexpected schema "
            f"{record.get('schema') if isinstance(record, dict) else None!r}")
    return record


def list_jobs(store: ResultStore) -> List[Dict[str, Any]]:
    """Every readable job record under the store, sorted by id."""
    root = jobs_dir(store)
    records = []
    if not root.is_dir():
        return records
    for path in sorted(root.glob("*.json")):
        try:
            records.append(load_job(store, path.stem))
        except ConfigError:
            continue
    return records


def job_status(store: ResultStore, record: Dict[str, Any]
               ) -> Dict[str, int]:
    """Live tallies for one job: done / in-flight / pending / stuck.

    Recomputed against the store on every call — ``done`` counts cells
    whose digest has a result entry, ``inflight`` cells leased by a
    *different* live job, ``pending`` the rest (ours to run).
    ``stuck`` counts finished cells whose pending marker still lingers
    — the signature of a failed :func:`release_claims` unlink (e.g. a
    root gone read-only), which used to be silently invisible.
    """
    job_id = record["id"]
    done = inflight = pending = stuck = 0
    for cell in record["cells"]:
        digest = cell["digest"]
        if store.contains(digest):
            done += 1
            if _marker_path(store, digest).exists():
                stuck += 1
            continue
        owner = _marker_owner(store, digest)
        if owner is not None and owner != job_id:
            inflight += 1
        else:
            pending += 1
    return {"total": len(record["cells"]), "done": done,
            "inflight": inflight, "pending": pending, "stuck": stuck}


def renew_leases(store: ResultStore, record: Dict[str, Any],
                 ttl: Optional[float] = None) -> int:
    """Re-stamp this job's live claims with a fresh owner + deadline.

    Called by ``jobs run`` at startup (the runner may be a different
    process — even host — than the submitter) and periodically from
    :class:`LeaseRenewer` while cells execute. Only markers this job
    owns and that still lack a store entry are renewed; returns the
    number re-stamped. Failures are silent — a renewal that cannot be
    written just lets the lease age toward expiry, which is the
    degradation the lease protocol is designed to absorb.
    """
    job_id = record["id"]
    ttl = lease_ttl() if ttl is None else ttl
    renewed = 0
    for cell in record["cells"]:
        digest = cell["digest"]
        if store.contains(digest):
            continue
        payload = _marker_payload(store, digest)
        if payload is None or payload.get("job") != job_id:
            continue
        try:
            _stamp_claim(store, job_id, digest, ttl)
        except OSError:
            continue
        renewed += 1
    return renewed


class LeaseRenewer:
    """Background lease heartbeat for one running job.

    A daemon thread that calls :func:`renew_leases` every ``ttl / 3``
    seconds, so a live owner always renews at least twice before its
    lease can lapse. Use as a context manager around the ``run_sweep`` call::

        with LeaseRenewer(store, record):
            run_sweep(...)

    Stops (and joins) on exit; exceptions inside the renewal loop are
    swallowed — lease renewal is best-effort by design.
    """

    def __init__(self, store: ResultStore, record: Dict[str, Any],
                 ttl: Optional[float] = None):
        self.store = store
        self.record = record
        self.ttl = lease_ttl() if ttl is None else ttl
        self.interval = self.ttl / 3.0
        self.renewals = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _loop(self) -> None:
        """Renew until stopped; never let an error kill the runner."""
        while not self._stop.wait(self.interval):
            try:
                self.renewals += renew_leases(self.store, self.record,
                                              self.ttl)
            except Exception:
                continue

    def __enter__(self) -> "LeaseRenewer":
        """Stamp leases now, then start the renewal thread."""
        renew_leases(self.store, self.record, self.ttl)
        self._thread = threading.Thread(target=self._loop,
                                        name="lease-renewer",
                                        daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        """Stop the renewal thread (joined with a short timeout)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)


def release_claims(store: ResultStore,
                   record: Dict[str, Any]) -> Tuple[int, int]:
    """Drop this job's pending markers for digests now in the store.

    Called after a ``run`` so finished cells stop reading as in-flight
    to overlapping jobs. Returns ``(released, failed)`` — ``failed``
    counts markers that should have been removed but could not be
    (unlink error, e.g. the shared root went read-only). A nonzero
    ``failed`` is surfaced by ``jobs status`` as ``stuck`` cells
    instead of being silently swallowed.
    """
    released = failed = 0
    job_id = record["id"]
    for cell in record["cells"]:
        digest = cell["digest"]
        if not store.contains(digest):
            continue
        marker = _marker_path(store, digest)
        payload = _marker_payload(store, digest)
        if payload is None or payload.get("job") != job_id:
            continue
        try:
            marker.unlink()
            released += 1
        except OSError:
            failed += 1
    return released, failed
