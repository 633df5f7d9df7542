"""The four benchmark workloads: sweep grids run through ``repro sweep``.

Each workload is a fixed grid plus the flags that decide which layers
of the program run. The workload seed chosen on the command line is
the only input that varies: :meth:`Workload.sweep_seeds` maps it to the
trace seeds the sweep receives, so the program never sees anything but
a generated grid and its seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

SWEEP_APPS = ("mcf", "perlbench", "libquantum", "gamess", "omnetpp",
              "graph500")
SWEEP_GEOMETRIES = ("baseline", "32K_2w", "64K_4w")
ALL_GEOMETRIES = ("baseline", "16K_4w", "32K_2w", "32K_4w", "64K_4w",
                  "128K_4w")


@dataclass(frozen=True)
class Workload:
    """One grid, the engine and execution flags, and its purpose."""

    name: str
    why: str
    apps: Tuple[str, ...]
    geometries: Tuple[str, ...]
    cores: Tuple[str, ...]
    conditions: Tuple[str, ...]
    accesses: int
    engine: str
    seeds_per_run: int = 1
    jobs: int = 1
    #: None = no store; "empty" = fresh store root; "warm" = a copy of
    #: a root populated by the reference run of the same grid and seed.
    store: Optional[str] = None
    journal: bool = False
    checkpoint_every: Optional[int] = None
    #: The layer this workload is built to spend most of its time in;
    #: the traced reference must show it as the largest self-time share.
    dominant: str = ""

    @property
    def cells(self) -> int:
        """Grid cells (CSV rows) per sweep."""
        return (len(self.apps) * len(self.geometries) * len(self.cores)
                * len(self.conditions) * self.seeds_per_run)

    def sweep_seeds(self, seed: int) -> Tuple[int, ...]:
        """The trace seeds workload seed ``seed`` maps to (disjoint
        between workload seeds)."""
        return tuple(seed * self.seeds_per_run + k
                     for k in range(self.seeds_per_run))

    def grid_argv(self, seed: int) -> list:
        """The grid flags of ``repro sweep`` (shared with the oracle)."""
        return ["--apps", ",".join(self.apps),
                "--geometries", ",".join(self.geometries),
                "--baseline", "baseline",
                "--cores", ",".join(self.cores),
                "--conditions", ",".join(self.conditions),
                "--seeds", ",".join(map(str, self.sweep_seeds(seed))),
                "--accesses", str(self.accesses)]

    def argv(self, seed: int, workdir, store_root) -> list:
        """Full ``repro`` argv of one measured sweep in ``workdir``."""
        argv = ["sweep", *self.grid_argv(seed), "--engine", self.engine,
                "--out", str(workdir / "sweep.csv")]
        if self.jobs > 1:
            argv += ["--jobs", str(self.jobs)]
        if store_root is not None:
            argv += ["--store", str(store_root)]
        if self.journal:
            argv += ["--journal", str(workdir / "journal.jsonl")]
        if self.checkpoint_every:
            argv += ["--checkpoint-every", str(self.checkpoint_every),
                     "--checkpoint-dir", str(workdir / "ckpt")]
        return argv


_SWEEP_GRID = dict(apps=SWEEP_APPS, geometries=SWEEP_GEOMETRIES, cores=("ooo",),
                   conditions=("normal", "fragmented"), accesses=10_000,
                   engine="kernel")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="sweep-cold",
        why="first campaign: trace generation, kernel build and replay, "
            "store writes into an empty root; executors and store reads "
            "idle",
        store="empty", dominant="mem.populate", **_SWEEP_GRID),
    Workload(
        name="sweep-warm",
        why="rerun against a fully populated store: 0 cells simulated, "
            "only store reads and the trace fingerprinting behind them",
        store="warm", dominant="mem.populate", **_SWEEP_GRID),
    Workload(
        name="sweep-jobs2",
        why="--jobs 2 with journal and checkpoints: the only workload "
            "that runs the executors, shm substrate and per-worker memos",
        apps=("mcf", "graph500", "libquantum"), geometries=ALL_GEOMETRIES,
        cores=("ooo",), conditions=("normal",), accesses=20_000,
        engine="kernel", seeds_per_run=2, jobs=2, journal=True,
        checkpoint_every=10_000, dominant="sim.executors.run"),
    Workload(
        name="oracle-cores",
        why="python oracle engine on three core models: the python "
            "replay loop and cache/core/timing models; kernel and store "
            "untouched",
        apps=("mcf", "perlbench", "libquantum"),
        geometries=("baseline", "32K_2w"),
        cores=("inorder", "ooo", "ooo-detailed"), conditions=("normal",),
        accesses=20_000, engine="python", dominant="sim.driver.simulate"),
)}
