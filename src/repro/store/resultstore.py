"""Persistent content-addressed store of completed simulation cells.

PR 5's :class:`~repro.sim.warmstate.WarmStateCache` proved the core
idea — completed, deterministic runs are worth more as lookups than as
recomputations — but scoped it to one sweep: its in-memory layer died
with the ``run_sweep`` call and its tmpdir layer with the campaign.
This module generalizes that cache into a **persistent,
content-addressed result store**: every completed (trace, system)
simulation is keyed by a canonical digest of *what was simulated*, and
any later sweep — same process, next week, another user on the same
box — that asks for the same cell gets the finished
:class:`~repro.sim.results.SimResult` back instead of a simulation.
That is the ROADMAP's sweep-as-a-service architecture: most traffic
becomes lookups, not simulations.

Cell identity (``repro-store-2``)
---------------------------------
:func:`cell_identity` is the one answer to "which cell is this": the
SHA-256 over the canonical JSON
(:func:`repro.stateutil.canonical_json` — sorted keys, compact
separators, so the same logical payload always maps to the same bytes
in every process; no ``PYTHONHASHSEED``-dependent ``hash()`` anywhere)
of::

    {"schema": "repro-store-2",
     "recipe": {app, accesses, condition, seed, version},
     "system": {name, core, l1: {...}, l2/llc geometry, ...}}

* ``recipe`` is the :class:`~repro.workloads.trace.TraceRecipe` the
  trace is generated from, ``version`` the generator's
  ``GENERATOR_VERSION``. It names the trace without generating it, so
  a store hit costs no trace generation. A Table III mix cell's recipe
  is a :class:`~repro.sim.experiment.MixRecipe` instead: ``{app,
  condition, seed, members}``, one trace recipe per core.
* ``system`` is the **full config dict** (every
  :class:`~repro.sim.config.SystemConfig` and nested
  :class:`~repro.sim.config.L1Config` field, enums by value), not just
  the display name — configs that share a name can never alias.
* The replay ``engine`` is deliberately **excluded**: the kernel is
  byte-identical to the python oracle (CI enforces it), so both
  engines share entries. Side-channel modes (interval sampling,
  decision tracing) never reach the store at all — the sweep only
  consults it for plain result rows.

The same identity is the store digest, the sweep journal's ``cell``
key field (and through it the mid-cell checkpoint file name), the
binding inside every checkpoint body, and the warm memo's key.

On-disk layout (versioned)
--------------------------
::

    <root>/                      # REPRO_STORE_DIR, default
    │                            # ~/.cache/repro-store
    ├── v1/<aa>/<digest>.result.pkl   # pickled SimResult (list: mix)
    ├── v1/<aa>/<digest>.state.json   # optional repro-ckpt-2 snapshot
    ├── v1/<aa>/<digest>.meta.json    # human-readable provenance
    └── jobs/<job-id>.json            # repro.store.jobs

``<aa>`` is the first two digest hex chars (fan-out keeps directory
listings sane at millions of entries). The ``v1/`` component is the
layout version: a future incompatible layout writes ``v2/`` and old
entries simply stop being found — version skew degrades to a cold run,
never an error.

Durability and failure policy
-----------------------------
* every write is atomic (temp file + ``os.replace`` via
  :mod:`repro.ioutil`), so readers never observe a torn entry and
  concurrent writers racing on one digest are benign — determinism
  means they write identical bytes;
* a corrupt, truncated, or unpicklable entry is a **miss**, never an
  error — the cell simulates, and the damaged file is best-effort
  deleted so it cannot keep masking the slot;
* the store is size-bounded: :meth:`ResultStore.gc` evicts entries in
  LRU order (hits refresh an entry's mtime) until the store fits
  ``REPRO_STORE_CAP`` bytes.

Trust domain: result entries are pickles, so the store root must be a
directory the user trusts (their own cache dir, not a world-writable
drop box) — the same rule the warm-state tmpdir already followed. See
``docs/sweep-service.md`` for the operations manual.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sys
import time
from dataclasses import asdict
from enum import Enum
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from ..errors import CheckpointError, ConfigError
from ..ioutil import (atomic_write_bytes, atomic_write_text, io_guard,
                      read_bytes, read_text)
from ..stateutil import canonical_json

#: Identity-payload schema tag; bump when the identity payload changes.
SCHEMA = "repro-store-2"

#: On-disk layout version directory; bump on incompatible layout.
LAYOUT = "v1"

#: Default size bound (bytes) enforced by :meth:`ResultStore.gc`.
DEFAULT_CAP_BYTES = 512 * 1024 * 1024

#: Age (seconds) past which an orphaned ``*.tmp`` file — the litter a
#: SIGKILL between temp file and ``os.replace`` leaves behind — is
#: swept by :meth:`ResultStore.gc`. Generous enough that a live
#: writer's in-flight temp file is never collected out from under it.
TMP_MAX_AGE_S = 3600.0


def _env_bytes(name: str, default: int) -> int:
    """An integer byte-count env override, validated at the boundary."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(
            f"environment variable {name} must be an integer byte "
            f"count, got {raw!r}") from None
    if value < 0:
        raise ConfigError(
            f"environment variable {name} must be >= 0, got {value}")
    return value


def default_store_root() -> Path:
    """The store root: ``REPRO_STORE_DIR`` or ``~/.cache/repro-store``.

    ``XDG_CACHE_HOME`` is honored when set (the conventional override
    for relocating caches), ``REPRO_STORE_DIR`` wins over both.
    """
    env = os.environ.get("REPRO_STORE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-store"


def _jsonable(value: Any) -> Any:
    """Recursively convert a config payload to canonical-JSON-safe form."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def system_payload(system) -> Dict[str, Any]:
    """A :class:`~repro.sim.config.SystemConfig` as a canonical dict.

    Every field of the frozen dataclass (and the nested
    :class:`~repro.sim.config.L1Config`) appears, enums by value — the
    *full* configuration, so the digest can never alias two systems
    that share a display name but differ in any knob.
    """
    return _jsonable(asdict(system))


#: ``id(system) -> (system, canonical JSON of its payload)``. A sweep
#: grid hands one system object to every cell of a (core, config), so
#: its payload serializes once, not once per cell. Keyed on object
#: identity, never on equality: equal configs can serialize apart
#: (``way_prediction=1 == True``). The entry holds its system, so the
#: id cannot be reused while the entry lives.
_SYSTEM_JSON: Dict[int, Tuple[Any, str]] = {}

#: Entries kept in :data:`_SYSTEM_JSON` (oldest evicted first).
_SYSTEM_JSON_MAX = 256


def _system_json(system) -> str:
    """``canonical_json(system_payload(system))``, memoized per object."""
    entry = _SYSTEM_JSON.get(id(system))
    if entry is None:
        if len(_SYSTEM_JSON) >= _SYSTEM_JSON_MAX:
            _SYSTEM_JSON.pop(next(iter(_SYSTEM_JSON)), None)
        entry = _SYSTEM_JSON[id(system)] = (
            system, canonical_json(system_payload(system)))
    return entry[1]


def cell_identity(recipe, system) -> str:
    """The identity of one simulation cell: what its result depends on.

    SHA-256 hex over the canonical JSON of (schema tag, trace
    ``recipe``, full system config) — see the module docs. ``recipe``
    is a :class:`~repro.workloads.trace.TraceRecipe`, or ``None`` for a
    trace without one; such an identity binds only checkpoints (which
    also verify the trace content) and never keys the memo or the
    store. Stable across processes and Python versions by
    construction — only ``canonical_json``, no ``hash()``.
    """
    recipe_json = canonical_json(
        None if recipe is None else _jsonable(recipe._asdict()))
    # The canonical JSON of {"schema", "recipe", "system"}, assembled
    # from its parts in sorted key order so the system's part comes
    # from the memo; tests/data/cell-identities.txt pins the bytes.
    text = (f'{{"recipe":{recipe_json},"schema":"{SCHEMA}",'
            f'"system":{_system_json(system)}}}')
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def is_cell_result(value: Any) -> bool:
    """Whether ``value`` is what a store entry may hold: a
    ``SimResult``, or a mix cell's non-empty per-core list of them."""
    from ..sim.results import SimResult
    if isinstance(value, list):
        return bool(value) and all(isinstance(r, SimResult) for r in value)
    return isinstance(value, SimResult)


class ResultStore:
    """Persistent content-addressed store of completed cell results.

    Parameters
    ----------
    root:
        Store root directory (created lazily on first write). ``None``
        resolves :func:`default_store_root`.
    cap_bytes:
        Size bound enforced by :meth:`gc`; ``None`` reads
        ``REPRO_STORE_CAP`` (default :data:`DEFAULT_CAP_BYTES`);
        ``0`` disables eviction.

    Entries are looked up and written by digest (:meth:`digest` /
    :func:`cell_identity`); hit/miss/store tallies live on the instance
    (``hits``/``misses``/``stores``/``evicted``) for the CLI epilogue,
    alongside the degradation counters
    (``read_failures``/``write_failures``/``tmp_swept``).

    Degradation policy (see ``docs/robustness.md``): a read that fails
    with a real I/O error — not just a missing file — counts a
    ``read_failure`` and is a miss; the first *persistent* write
    failure (retries already exhausted inside :mod:`repro.ioutil`)
    prints one stderr warning and degrades the store to read-only for
    the rest of the run. Neither ever raises.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None,
                 cap_bytes: Optional[int] = None):
        self.root = Path(root) if root else default_store_root()
        self._layout_dir = self.root / LAYOUT
        if cap_bytes is None:
            cap_bytes = _env_bytes("REPRO_STORE_CAP", DEFAULT_CAP_BYTES)
        self.cap_bytes = cap_bytes
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evicted = 0
        self.read_failures = 0
        self.write_failures = 0
        self.tmp_swept = 0
        self._writes_disabled = False
        self._warned_reads = False

    @property
    def degraded(self) -> bool:
        """Whether any store surface degraded (I/O failures seen)."""
        return bool(self.read_failures or self.write_failures)

    @property
    def writes_disabled(self) -> bool:
        """Whether persistent write failure switched us to read-only."""
        return self._writes_disabled

    def _read_failed(self, digest: str, exc: OSError) -> None:
        """Count one failed entry read; warn on the first only."""
        self.read_failures += 1
        if not self._warned_reads:
            self._warned_reads = True
            print(f"[store] read of entry {digest[:12]} failed ({exc}); "
                  "degraded: treating damaged entries as misses",
                  file=sys.stderr)

    def _write_failed(self, what: str, path: Path, exc: OSError) -> None:
        """Count one failed publication; disable writes + warn once."""
        self.write_failures += 1
        if not self._writes_disabled:
            self._writes_disabled = True
            print(f"[store] {what} write to {path} failed ({exc}); "
                  "degraded: store is read-only for the rest of this "
                  "run", file=sys.stderr)

    # -- layout -------------------------------------------------------

    @property
    def layout_dir(self) -> Path:
        """The versioned entry directory (``<root>/v1``)."""
        return self._layout_dir

    def digest(self, recipe, system) -> str:
        """Digest for (``recipe``, ``system``): :func:`cell_identity`."""
        return cell_identity(recipe, system)

    def result_path(self, digest: str) -> Path:
        """Where ``digest``'s pickled ``SimResult`` lives."""
        return self._layout_dir.joinpath(digest[:2], f"{digest}.result.pkl")

    def state_path(self, digest: str) -> Path:
        """Where ``digest``'s rendered repro-ckpt-2 snapshot lives."""
        return self._layout_dir.joinpath(digest[:2], f"{digest}.state.json")

    def meta_path(self, digest: str) -> Path:
        """Where ``digest``'s human-readable provenance record lives."""
        return self._layout_dir.joinpath(digest[:2], f"{digest}.meta.json")

    def contains(self, digest: str) -> bool:
        """Whether a result entry for ``digest`` exists (unverified)."""
        return self.result_path(digest).exists()

    # -- results ------------------------------------------------------

    def fetch_result(self, digest: str):
        """The stored ``SimResult`` for ``digest`` (a mix cell's
        per-core list of them), or ``None``.

        A hit refreshes the entry's mtime (the GC's LRU clock). A
        corrupt, truncated, or wrong-typed entry is a miss — the
        damaged file is best-effort removed so the next completed run
        rewrites the slot — and never an error. The read goes through
        the :mod:`repro.ioutil` choke point, so transient EIO/ESTALE
        retries before a real I/O failure counts a ``read_failure``
        (still a miss — damage is never an error).
        """
        path = self.result_path(digest)
        try:
            data = read_bytes(path)
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError as exc:
            self._read_failed(digest, exc)
            self._discard(digest)
            self.misses += 1
            return None
        try:
            result = pickle.loads(data)
        except (pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, ValueError):
            self._discard(digest)
            self.misses += 1
            return None
        if not is_cell_result(result):
            self._discard(digest)
            self.misses += 1
            return None
        self._touch(path)
        self.hits += 1
        return result

    def store_result(self, digest: str, result,
                     meta: Optional[Dict[str, Any]] = None) -> None:
        """Publish a completed run's result under ``digest``.

        Idempotent: an existing entry is only touched (LRU refresh),
        never rewritten — determinism means a rewrite would produce
        the same bytes. Writes are atomic and best-effort: a store
        that cannot be written (read-only root, full disk) degrades to
        read-only with one stderr warning, because persistence is an
        optimization, never a correctness requirement.
        """
        path = self.result_path(digest)
        if path.exists():
            self._touch(path)
            return
        if self._writes_disabled:
            return
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_bytes(path, pickle.dumps(result), fsync=False)
            if meta is not None:
                atomic_write_text(
                    self.meta_path(digest),
                    canonical_json({"schema": SCHEMA, **_jsonable(meta)})
                    + "\n",
                    fsync=False)
        except OSError as exc:
            self._write_failed("result", path, exc)
            return
        self.stores += 1

    # -- state snapshots ----------------------------------------------

    def fetch_state(self, digest: str, trace=None
                    ) -> Optional[Dict[str, Any]]:
        """The verified snapshot payload for ``digest``, or ``None``.

        The entry text is verified exactly like a checkpoint file
        (schema, digest line, trace identity, and ``digest`` as the
        cell identity its body binds — see
        :func:`repro.sim.checkpoint.verify_checkpoint_text`); anything
        that fails verification is a miss, and the damaged entry is
        best-effort removed.
        """
        from ..sim.checkpoint import verify_checkpoint_text
        path = self.state_path(digest)
        try:
            text = read_text(path)
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError as exc:
            self._read_failed(digest, exc)
            self.misses += 1
            return None
        try:
            payload = verify_checkpoint_text(
                text, source=f"store entry {digest[:12]}", trace=trace,
                cell=digest)
        except CheckpointError:
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self._touch(path)
        self.hits += 1
        return payload

    def store_state(self, digest: str, text: str) -> None:
        """Publish a rendered repro-ckpt-2 snapshot under ``digest``.

        ``text`` is the two-line digest-protected format produced by
        :func:`repro.sim.checkpoint.render_checkpoint` — stored
        verbatim so the verification path is shared end to end with
        checkpoints and the warm-state cache. Atomic, idempotent,
        best-effort, like :meth:`store_result`.
        """
        path = self.state_path(digest)
        if path.exists():
            self._touch(path)
            return
        if self._writes_disabled:
            return
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_text(path, text, fsync=False)
        except OSError as exc:
            self._write_failed("state", path, exc)
            return
        self.stores += 1

    # -- maintenance --------------------------------------------------

    def _touch(self, path: Path) -> None:
        """Best-effort LRU-clock refresh (guarded, failure-silent)."""
        try:
            io_guard("touch", path)
            os.utime(path, None)
        except OSError:
            pass

    def _discard(self, digest: str) -> None:
        """Best-effort removal of every file of one (corrupt) entry."""
        for path in (self.result_path(digest), self.state_path(digest),
                     self.meta_path(digest)):
            try:
                path.unlink()
            except OSError:
                pass

    def entries(self) -> Iterable[Tuple[str, List[Path]]]:
        """Iterate ``(digest, files)`` for every entry in the layout.

        In-flight/orphaned ``*.tmp`` files are not entries and are
        excluded — they belong to :meth:`iter_tmp_litter` and the age
        sweep in :meth:`gc`.
        """
        groups: Dict[str, List[Path]] = {}
        if not self.layout_dir.is_dir():
            return []
        for shard in sorted(self.layout_dir.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.iterdir()):
                if path.name.endswith(".tmp"):
                    continue
                digest = path.name.split(".", 1)[0]
                groups.setdefault(digest, []).append(path)
        return sorted(groups.items())

    def iter_tmp_litter(self, min_age_s: float = 0.0
                        ) -> Iterable[Path]:
        """Yield ``*.tmp`` files under the root older than ``min_age_s``.

        These are atomic writes' temp files orphaned by a kill between
        creation and the atomic ``os.replace`` — invisible to
        :meth:`entries`/:meth:`total_bytes` by design, so without a
        sweep they accumulate forever. ``min_age_s=0`` yields all of
        them (the doctor's scan); :meth:`gc` passes
        :data:`TMP_MAX_AGE_S` so live writers are never raced.
        """
        if not self.root.is_dir():
            return
        now = time.time()
        for path in sorted(self.root.rglob("*.tmp")):
            try:
                age = now - path.stat().st_mtime
            except OSError:
                continue
            if age >= min_age_s:
                yield path

    def sweep_tmp_litter(self, min_age_s: float = TMP_MAX_AGE_S) -> int:
        """Unlink aged ``*.tmp`` litter; returns the number removed."""
        swept = 0
        for path in self.iter_tmp_litter(min_age_s):
            try:
                path.unlink()
            except OSError:
                continue
            swept += 1
        self.tmp_swept += swept
        return swept

    def total_bytes(self) -> int:
        """Total bytes currently held by store entries."""
        total = 0
        for _, files in self.entries():
            for path in files:
                try:
                    total += path.stat().st_size
                except OSError:
                    pass
        return total

    def gc(self, cap_bytes: Optional[int] = None) -> Tuple[int, int]:
        """Evict least-recently-used entries until the store fits.

        Entry recency is the newest mtime across its files — refreshed
        on every hit — so eviction order is true LRU, not
        insertion order. Returns ``(entries_removed, bytes_freed)``;
        ``(0, 0)`` when already under the cap or the cap is 0
        (unbounded). Races with concurrent writers are benign: an
        entry evicted while another process re-stores it just costs
        one extra simulation later. Every call also age-sweeps
        orphaned ``*.tmp`` litter (see :meth:`sweep_tmp_litter`,
        tallied in ``tmp_swept``) — even when the cap is unbounded.
        """
        self.sweep_tmp_litter()
        cap = self.cap_bytes if cap_bytes is None else cap_bytes
        if not cap:
            return (0, 0)
        aged: List[Tuple[float, int, str, List[Path]]] = []
        total = 0
        for digest, files in self.entries():
            size = 0
            newest = 0.0
            for path in files:
                try:
                    stat = path.stat()
                except OSError:
                    continue
                size += stat.st_size
                newest = max(newest, stat.st_mtime)
            aged.append((newest, size, digest, files))
            total += size
        if total <= cap:
            return (0, 0)
        removed = 0
        freed = 0
        for newest, size, digest, files in sorted(aged):
            if total - freed <= cap:
                break
            for path in files:
                try:
                    path.unlink()
                except OSError:
                    pass
            removed += 1
            freed += size
        self.evicted += removed
        return (removed, freed)
