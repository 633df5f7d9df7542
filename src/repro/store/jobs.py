"""Async job journal over the content-addressed result store.

The sweep-as-a-service front end: a **job** is a submitted design-space
grid, journaled under the store root so it survives the submitting
process. The lifecycle is deliberately simple and daemon-free —
each step is one CLI invocation (``repro jobs submit/status/run/
result``), so the "service" is the filesystem plus determinism:

* **submit** journals the grid and counts the cells whose digest is
  already in the store. Submission is idempotent and
  content-addressed: the job id is a digest of the grid payload, so
  resubmitting the same grid lands on the same job.
* **run** executes one job's missing cells through
  :func:`repro.sim.sweep.run_sweep` with the store attached — every
  completed cell lands in the store, visible to every other job
  immediately.
* **status** recomputes each job's done / pending tallies live against
  the store — there is no state to go stale.
* **result** composes the job's CSV purely from store entries
  (byte-identical to a cold ``sweep`` run of the same grid) once every
  cell is present.

Overlapping jobs share work through the store alone: a cell one job
finished is a store hit for the next. Two jobs running the same cell
at once is safe, because store writes are atomic, idempotent and
content-addressed — the worst case is one redundant simulation.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from ..errors import ConfigError
from ..ioutil import atomic_write_text, read_text
from ..stateutil import canonical_json
from .resultstore import ResultStore

#: Job-record schema tag.
JOB_SCHEMA = "repro-job-1"


def jobs_dir(store: ResultStore) -> Path:
    """The job-record directory under the store root."""
    return store.root / "jobs"


def job_id_for(grid: Dict[str, Any]) -> str:
    """Deterministic job id: short digest of the canonical grid payload.

    Content-addressed like the cells themselves, so submitting an
    identical grid twice is the *same* job — the second submit is a
    no-op refresh, not a duplicate.
    """
    return hashlib.sha256(
        canonical_json(grid).encode("utf-8")).hexdigest()[:12]


def submit_job(store: ResultStore, grid: Dict[str, Any],
               cells: Sequence[Tuple[Dict[str, Any], str]]
               ) -> Dict[str, Any]:
    """Journal a grid as a job and count its cells already stored.

    ``grid`` is the JSON-safe grid description (the CLI's sweep flags),
    ``cells`` the grid's ``(cell key, content digest)`` pairs in row
    order. Returns the submission summary: job ``id``, ``cells`` and
    ``done`` (already in the store). Idempotent — resubmitting
    refreshes the same job record.
    """
    job_id = job_id_for(grid)
    jobs_dir(store).mkdir(parents=True, exist_ok=True)
    done = sum(1 for _key, digest in cells if store.contains(digest))
    record = {"schema": JOB_SCHEMA, "id": job_id, "grid": grid,
              "cells": [{"key": key, "digest": digest}
                        for key, digest in cells]}
    atomic_write_text(jobs_dir(store) / f"{job_id}.json",
                      json.dumps(record, sort_keys=True, indent=1) + "\n")
    return {"id": job_id, "cells": len(cells), "done": done}


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


def list_jobs(store: ResultStore
              ) -> Tuple[List[Dict[str, Any]], List[Tuple[Path, str]]]:
    """Every job record under the store, sorted by id: ``(records,
    unreadable)``, where ``unreadable`` pairs the path of each record
    that does not load with the reason (``repro store doctor`` reports
    and removes those as ``corrupt-job``)."""
    root = jobs_dir(store)
    records: List[Dict[str, Any]] = []
    unreadable: List[Tuple[Path, str]] = []
    if root.is_dir():
        for path in sorted(root.glob("*.json")):
            try:
                records.append(load_job(store, path.stem))
            except ConfigError as exc:
                unreadable.append((path, str(exc)))
    return records, unreadable


def job_status(store: ResultStore, record: Dict[str, Any]
               ) -> Dict[str, int]:
    """Live tallies for one job: ``total``, ``done`` and ``pending``.

    Recomputed against the store on every call — ``done`` counts cells
    whose digest has a result entry, ``pending`` the rest.
    """
    total = len(record["cells"])
    done = sum(1 for cell in record["cells"]
               if store.contains(cell["digest"]))
    return {"total": total, "done": done, "pending": total - done}
