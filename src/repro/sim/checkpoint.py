"""Mid-simulation checkpoint/restore ("repro-ckpt-1").

PR 1 made *grids* resumable — a killed sweep replays its journal — but
each cell was still all-or-nothing: a simulation that died at 99%
recomputed from access 0. This module makes the cell itself resumable:
:func:`repro.sim.driver.simulate` periodically snapshots every stateful
component between fused-loop chunks, and a killed run restarted with
``resume_checkpoint=...`` replays only the remaining accesses,
producing a byte-identical :class:`~repro.sim.results.SimResult`.

Snapshot format — two JSON lines, header then body::

    {"schema": "repro-ckpt-2", "digest": "<sha256 hex over line 2>"}
    {"position": 30000,                 # next access to replay
     "cell": "<sha256 hex>",            # the cell identity
     "trace": {"app": ..., "condition": ..., "n_accesses": ...,
               "fingerprint": "<crc32 hex over the trace columns>"},
     "sampler": {...} | null,           # interval-sampler state
     "state": {...}}                    # _CoreContext.state_dict()

Digest semantics: the header's digest is a SHA-256 over the **raw
bytes of the body line** as written (UTF-8, no trailing newline).
Hashing the written bytes rather than a re-canonicalized structure
means the body is serialized exactly once per snapshot and verified
without re-serializing on load — the write path runs between replay
chunks, and its cost is what the ≤5 % checkpoint-overhead budget in
the perf bench is spent on. Any torn, truncated, or hand-edited
snapshot fails closed with :class:`~repro.errors.CheckpointError`.
The cell identity inside the body
(:func:`repro.store.resultstore.cell_identity`: trace recipe plus full
system config) stops a snapshot from one cell resuming or warming a
different cell's run; the trace fingerprint beside it detects a trace
whose content is not what its recipe names (a corrupted or substituted
trace).

Writes are crash-safe (temp file + ``os.replace`` via
:mod:`repro.ioutil`): a kill during a checkpoint leaves the previous
complete snapshot, never a torn file.

The content-addressed result store (``repro.store``,
``docs/sweep-service.md``) reuses this text format verbatim for its
``.state.json`` warm-predictor entries — same trace-identity
verification, same fail-closed stance, except the store downgrades a
failed verification to a cache miss instead of raising.

The snapshot file doubles as the cell's progress signal:
:func:`repro.sim.executors.call_with_timeout` watches it, and every
periodic write replaces it with a new inode, which tells a slow cell
(snapshot still being rewritten — deadline keeps extending) from a
hung one (no new snapshot for ``timeout_s`` — fires).
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import zlib
from pathlib import Path
from typing import Any, Dict, Optional, Union

from .. import ioutil
from ..errors import CheckpointError
from ..ioutil import atomic_write_text
from ..stateutil import canonical_json as _canonical

#: Schema tag stamped into (and verified on) every snapshot.
SCHEMA = "repro-ckpt-2"

#: Characters allowed in the human-readable part of checkpoint names.
_SAFE_NAME = re.compile(r"[^A-Za-z0-9._-]+")


def trace_identity(trace) -> Dict[str, Any]:
    """The identity block binding a snapshot to one exact trace.

    ``fingerprint`` is a CRC-32 over the raw bytes of every trace
    column — same idea as ``workloads.trace.stable_hash``, applied to
    the data instead of a label — so two traces that merely share
    (app, condition, length) but differ in content do not cross-resume.
    The CRC comes from the trace's derived-column store
    (:func:`repro.workloads.substrate.columns_for`), which memoizes it
    per trace instance: periodic checkpoints, warm snapshots, and
    substrate publication of the same trace all fingerprint once.
    """
    from ..workloads.substrate import columns_for
    return {"app": trace.app,
            "condition": trace.condition.value,
            "n_accesses": len(trace),
            "fingerprint": columns_for(trace).fingerprint}


def compute_digest(body_text: str) -> str:
    """SHA-256 hex digest over the body line's UTF-8 bytes."""
    return hashlib.sha256(body_text.encode("utf-8")).hexdigest()


def write_checkpoint(path: Union[str, Path], *, state: Dict[str, Any],
                     position: int, trace, cell: str,
                     sampler_state: Optional[Dict[str, Any]] = None,
                     identity: Optional[Dict[str, Any]] = None,
                     fsync: bool = True) -> Path:
    """Atomically write one digest-protected snapshot to ``path``.

    The body is serialized exactly once (compact separators) and the
    header digest covers those bytes verbatim — no canonicalization
    pass on either side of the round trip. ``identity`` lets a caller
    that checkpoints the same trace repeatedly pass a precomputed
    :func:`trace_identity` instead of re-fingerprinting the trace
    columns on every periodic snapshot.

    ``fsync=False`` skips forcing the temp file to disk before the
    rename. The atomic-rename guarantee — a killed *process* leaves
    either the previous complete snapshot or the new one, never a torn
    file — holds regardless; fsync only adds power-loss durability.
    The driver's periodic snapshots pass ``False``: each one is
    superseded moments later, the sync's common cost (~1 ms) plus its
    occasional multi-ms tail is charged on every checkpoint period,
    and the worst power-loss outcome (an empty or garbled file, which
    :func:`load_checkpoint` treats as absent / fails closed on) merely
    restarts that cell from access 0 — exactly a never-checkpointed
    run.
    """
    text = render_checkpoint(state=state, position=position, trace=trace,
                             cell=cell,
                             sampler_state=sampler_state,
                             identity=identity)
    return atomic_write_text(Path(path), text, fsync=fsync)


def render_checkpoint(*, state: Dict[str, Any], position: int, trace,
                      cell: str,
                      sampler_state: Optional[Dict[str, Any]] = None,
                      identity: Optional[Dict[str, Any]] = None) -> str:
    """Serialize one snapshot to its two-line file text.

    Split out from :func:`write_checkpoint` for the callers that
    write the text themselves: warm-state entries go to the result
    store, and the driver's checkpoint loop degrades to checkpointless
    when its write fails.
    """
    body_text = json.dumps(
        {"position": position,
         "cell": cell,
         "trace": identity if identity is not None
         else trace_identity(trace),
         "sampler": sampler_state,
         "state": state},
        separators=(",", ":"))
    header = _canonical({"schema": SCHEMA,
                         "digest": compute_digest(body_text)})
    return header + "\n" + body_text + "\n"


def load_checkpoint(path: Union[str, Path], *, trace=None,
                    cell: Optional[str] = None
                    ) -> Optional[Dict[str, Any]]:
    """Load and verify a snapshot; returns ``None`` if ``path`` is absent.

    Verification is strict and fails closed: schema tag, content
    digest (over the body line's raw bytes), and — when
    ``trace``/``cell`` are given — the trace identity and the cell
    identity must all match, else
    :class:`~repro.errors.CheckpointError` is raised: *content* that
    fails verification could silently resume the wrong simulation, so
    it can never degrade. A missing file is *not* an error (the caller
    simply starts fresh), because that is exactly the state a
    never-before-run cell is in — and an *unreadable* file (I/O error
    after the choke point's transient retries) degrades the same way,
    with one stderr warning: starting fresh only costs recomputation.

    Returns the parsed body dict (``position``, ``cell``, ``trace``,
    ``sampler``, ``state``).
    """
    path = Path(path)
    if not path.exists():
        return None
    try:
        text = ioutil.read_text(path)
    except FileNotFoundError:
        return None
    except OSError as exc:
        print(f"[checkpoint] {path} unreadable ({exc}); degraded: "
              "starting fresh", file=sys.stderr)
        return None
    if not text:
        # The one artifact an unsynced rename can leave after a power
        # loss: a zero-length file. Indistinguishable from "no snapshot
        # yet", and treated the same — start fresh. Any *partial*
        # content still fails closed in verification.
        return None
    return verify_checkpoint_text(text, source=str(path), trace=trace,
                                  cell=cell)


def verify_checkpoint_text(text: str, *, source: str = "checkpoint",
                           trace=None, cell: Optional[str] = None
                           ) -> Dict[str, Any]:
    """Verify and parse snapshot *text* (the two-line file format).

    The verification core of :func:`load_checkpoint`, split out so
    consumers that hold snapshot text without a file — the warm-state
    cache keeps rendered snapshots in memory — run the identical
    schema/digest/identity checks. ``source`` labels error messages.
    """
    header_line, sep, body_text = text.partition("\n")
    body_text = body_text.rstrip("\n")
    if not sep or not body_text:
        raise CheckpointError(
            f"checkpoint {source} is truncated (no body line)")
    try:
        header = json.loads(header_line)
        payload = json.loads(body_text)
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"checkpoint {source} is unreadable or corrupt: {exc}")
    if not isinstance(header, dict) or header.get("schema") != SCHEMA:
        raise CheckpointError(
            f"checkpoint {source} has schema "
            f"{header.get('schema') if isinstance(header, dict) else None!r},"
            f" expected {SCHEMA!r}")
    digest = header.get("digest")
    expected = compute_digest(body_text)
    if digest != expected:
        raise CheckpointError(
            f"checkpoint {source} failed digest verification "
            f"(stored {str(digest)[:12]}..., computed {expected[:12]}...); "
            "the file is corrupt or was modified")
    if not isinstance(payload, dict):
        raise CheckpointError(
            f"checkpoint {source} body is not a JSON object")
    if trace is not None:
        want = trace_identity(trace)
        if payload.get("trace") != want:
            raise CheckpointError(
                f"checkpoint {source} belongs to trace "
                f"{payload.get('trace')}, this run replays {want}")
    if cell is not None and payload.get("cell") != cell:
        raise CheckpointError(
            f"checkpoint {source} was taken on cell "
            f"{str(payload.get('cell'))[:12]}..., this run simulates "
            f"cell {cell[:12]}... (another trace recipe or system)")
    position = payload.get("position")
    if not isinstance(position, int) or position < 0:
        raise CheckpointError(
            f"checkpoint {source} carries invalid position {position!r}")
    return payload


def checkpoint_path_for(directory: Union[str, Path],
                        key: Dict[str, Any]) -> Path:
    """Deterministic per-cell checkpoint file under ``directory``.

    The name combines a readable prefix from the cell key's values with
    a CRC-32 of the canonical key (the same canonicalization the
    journal uses), so distinct cells never collide even after the
    readable part is sanitized or truncated.
    """
    canon = _canonical(key)
    tag = f"{zlib.crc32(canon.encode('utf-8')) & 0xFFFFFFFF:08x}"
    readable = "-".join(str(key[k]) for k in sorted(key))
    readable = _SAFE_NAME.sub("_", readable)[:80].strip("-_") or "cell"
    return Path(directory) / f"ckpt-{readable}-{tag}.json"
