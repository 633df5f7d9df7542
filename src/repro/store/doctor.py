"""Self-healing store maintenance: scan, report, repair.

A long-lived store root on a shared filesystem accumulates damage that
no single sweep is positioned to clean up: ``*.tmp`` litter from
writers SIGKILLed between temp file and ``os.replace``, entries
truncated or corrupted by torn NFS client writes, and job records that
no longer parse. Each of these degrades gracefully at read time
(damage is a miss), but the litter costs disk, masks store slots, and
hides a job from ``jobs status``.

``repro store doctor`` is the offline janitor: :func:`diagnose` scans
the whole root and returns typed :class:`Finding` records;
:func:`repair` applies each finding's fix. The CLI reports findings by
default and fixes them only under ``--repair``. Every fix is safe
against re-running sweeps because store writes are idempotent and
content-addressed: removing a damaged entry costs at most one
redundant simulation, never correctness.

The doctor assumes no *writer* is mid-flight on the root while it
repairs (it removes ``*.tmp`` files regardless of age — unlike the
conservative age-gated sweep in :meth:`ResultStore.gc`); run it from
cron or before a campaign, not concurrently with one.
"""

from __future__ import annotations

import json
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple

from ..errors import CheckpointError, ConfigError
from .jobs import list_jobs
from .resultstore import ResultStore, is_cell_result

#: Finding categories, in report order.
CATEGORIES = ("orphan-tmp", "corrupt-result", "corrupt-state",
              "corrupt-meta", "corrupt-job")


@dataclass
class Finding:
    """One diagnosed problem: what, where, and how repair fixes it."""

    category: str    # one of CATEGORIES
    path: Path       # the offending file
    detail: str      # human-readable diagnosis
    #: every path repair should unlink (a corrupt entry discards all
    #: of its sibling files, not just the one that failed to parse)
    remove: List[Path] = field(default_factory=list)

    def __post_init__(self):
        """Validate the category and default ``remove`` to ``path``."""
        if self.category not in CATEGORIES:
            raise ConfigError(f"unknown doctor finding category "
                              f"{self.category!r}")
        if not self.remove:
            self.remove = [self.path]


def _entry_findings(store: ResultStore) -> List[Finding]:
    """Scan v1 entries for corrupt/truncated files."""
    from ..sim.checkpoint import verify_checkpoint_text
    findings: List[Finding] = []
    for digest, files in store.entries():
        siblings = list(files)
        for path in files:
            if path.name.endswith(".result.pkl"):
                try:
                    ok = is_cell_result(pickle.loads(path.read_bytes()))
                except Exception:
                    ok = False
                if not ok:
                    findings.append(Finding(
                        "corrupt-result", path,
                        f"entry {digest[:12]} result does not "
                        "unpickle to a cell result", remove=siblings))
            elif path.name.endswith(".state.json"):
                try:
                    verify_checkpoint_text(
                        path.read_text(),
                        source=f"store entry {digest[:12]}", cell=digest)
                except (OSError, CheckpointError) as exc:
                    findings.append(Finding(
                        "corrupt-state", path,
                        f"entry {digest[:12]} snapshot fails "
                        f"verification: {exc}"))
            elif path.name.endswith(".meta.json"):
                try:
                    json.loads(path.read_text())
                except (OSError, json.JSONDecodeError) as exc:
                    findings.append(Finding(
                        "corrupt-meta", path,
                        f"entry {digest[:12]} metadata is not JSON: "
                        f"{exc}"))
    return findings


def _job_findings(store: ResultStore) -> List[Finding]:
    """Scan job records for ones that no longer load."""
    return [Finding("corrupt-job", path,
                    f"job record {path.stem} does not load: {reason}")
            for path, reason in list_jobs(store)[1]]


def diagnose(store: ResultStore) -> List[Finding]:
    """Full store-root scan; returns findings in report order.

    Covers ``*.tmp`` litter anywhere under the root, every v1 entry
    file, and every job record. Read-only — the scan never modifies
    the store.
    """
    findings: List[Finding] = [
        Finding("orphan-tmp", path,
                "temp file orphaned by a killed writer")
        for path in store.iter_tmp_litter()]
    findings.extend(_entry_findings(store))
    findings.extend(_job_findings(store))
    order = {category: rank for rank, category in enumerate(CATEGORIES)}
    findings.sort(key=lambda f: (order[f.category], str(f.path)))
    return findings


def repair(store: ResultStore,
           findings: List[Finding]) -> Tuple[int, int]:
    """Apply every finding's fix; returns ``(fixed, failed)``.

    All current fixes are removals (litter, damaged entry files,
    unloadable job records) — safe because the store is
    content-addressed and idempotent, so anything a fix removes is
    reconstructed by the next sweep or submit that needs it. A finding
    counts as fixed only when every file it names is gone afterwards.
    """
    fixed = failed = 0
    for finding in findings:
        ok = True
        for path in finding.remove:
            try:
                path.unlink()
            except FileNotFoundError:
                continue
            except OSError:
                ok = False
        if ok:
            fixed += 1
        else:
            failed += 1
    return fixed, failed


def summarize(findings: List[Finding]) -> Dict[str, int]:
    """Findings tallied by category (only nonzero categories appear)."""
    tally: Dict[str, int] = {}
    for finding in findings:
        tally[finding.category] = tally.get(finding.category, 0) + 1
    return tally
