"""Content-addressed result store + async job front end for sweeps.

Public surface of the sweep-as-a-service layer (operations manual:
``docs/sweep-service.md``):

* :class:`~repro.store.resultstore.ResultStore` — the persistent
  content-addressed store of completed (trace, system) simulation
  results and state snapshots, with canonical digests
  (:func:`~repro.store.resultstore.cell_identity`), a versioned
  atomic-write layout under ``REPRO_STORE_DIR``
  (default ``~/.cache/repro-store``), corrupt-entry-as-miss reads, and
  size-bounded LRU GC.
* :mod:`repro.store.jobs` — the journal behind ``repro jobs
  submit/status/run/result``: a grid journaled under the store root,
  its progress counted live against the store. Overlapping jobs share
  finished cells through the store itself.
* :mod:`repro.store.doctor` — the ``repro store doctor`` scan/repair
  pass for tmp litter, corrupt entries, and unloadable job records.

Wired into :func:`repro.sim.sweep.run_sweep` via ``store=`` (CLI:
``sweep --store``): hits stream straight from the store, only misses
simulate, and the CSV stays byte-identical to a cold run.
"""

from .doctor import (
    CATEGORIES,
    Finding,
    diagnose,
    repair,
    summarize,
)
from .jobs import (
    JOB_SCHEMA,
    job_id_for,
    job_status,
    jobs_dir,
    list_jobs,
    load_job,
    submit_job,
)
from .resultstore import (
    DEFAULT_CAP_BYTES,
    LAYOUT,
    SCHEMA,
    TMP_MAX_AGE_S,
    ResultStore,
    cell_identity,
    default_store_root,
    system_payload,
)

__all__ = [
    "CATEGORIES",
    "DEFAULT_CAP_BYTES",
    "Finding",
    "JOB_SCHEMA",
    "LAYOUT",
    "SCHEMA",
    "ResultStore",
    "TMP_MAX_AGE_S",
    "cell_identity",
    "default_store_root",
    "diagnose",
    "job_id_for",
    "job_status",
    "jobs_dir",
    "list_jobs",
    "load_job",
    "repair",
    "submit_job",
    "summarize",
    "system_payload",
]
