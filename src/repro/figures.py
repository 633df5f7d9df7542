"""The paper's grid-shaped figures as sweeps: one producer of tables.

Figs. 2, 3, 6, 7, 9, 12, 13, 14, 16, 17, 18, the cross-model check and
the quad-core Fig. 15 are all apps x L1 config x core x condition
grids (Fig. 15's "apps" are the Table III mix names, whose cells are
quad-core runs). Each is a :class:`Figure`: the
:class:`~repro.sim.sweep.SweepSpec` list behind it, a reducer from the
grid's :class:`~repro.sim.results.SimResult` objects (a mix cell's
per-core list of them) to the figure's table dict, and a renderer from
that dict to the title, header and rows
:func:`~repro.report.print_table` prints. Figures that plot the same
grid (6/7, 13/14, 16/17) share one spec list.

:func:`compute` runs a figure's specs through
:func:`~repro.sim.sweep.run_sweep` — the one grid path, so ``--jobs``,
``--engine`` and ``--store`` all apply — with a
:class:`~repro.store.ResultStore` always bound, and reads every cell's
result back by its cell identity. Without a user store the results go
to a private temporary root (:func:`private_store`), removed when the
caller is done. Either way the bound store is a :class:`ReadOnceStore`,
which keeps every result it reads, so one run reads each distinct
digest at most once however many passes and figures ask for it. A cell
that did not finish ok, or whose result cannot be read back, raises
:class:`~repro.errors.SimulationError` naming the cell: a figure never
averages over a silently missing app.

``repro figures`` prints every table of :data:`FIGURES`; each
``benchmarks/bench_*.py`` file for these figures calls :func:`compute`
on its entry and asserts on the table.
"""

from __future__ import annotations

import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import (Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

from .core.indexing import IndexingScheme, SiptVariant
from .errors import SimulationError
from .report import fmt
from .sim.config import BASELINE_L1, L1_16K_4W_VIPT, SIPT_GEOMETRIES
from .sim.executors import STATUS_OK
from .sim.experiment import TraceCache
from .sim.resilience import ResilientRunner
from .sim.results import SimResult, arithmetic_mean, harmonic_mean
from .sim.sweep import SweepSpec, grid_cells, run_sweep
from .store.resultstore import ResultStore
from .workloads.mixes import MIXES
from .workloads.spec import EVALUATED_APPS
from .workloads.trace import MemoryCondition

NORMAL = MemoryCondition.NORMAL

#: ``get(config, app, core="ooo", condition=NORMAL)``: one cell's result
#: (a mix cell's per-core list of results).
Lookup = Callable[..., SimResult]
#: A rendered table: title, header, rows.
Rendered = Tuple[str, List[str], List[tuple]]


@dataclass(frozen=True)
class Figure:
    """One grid-shaped figure of the paper.

    ``specs`` are the sweeps behind it; ``reduce`` turns a
    :data:`Lookup` over their cells into the figure's table dict, and
    ``render`` turns that dict into the printed title, header and rows.
    """

    name: str
    specs: Tuple[SweepSpec, ...]
    reduce: Callable[[Lookup], dict]
    render: Callable[[dict], Rendered]


def column_means(table: dict, columns: Sequence[str],
                 mean: Callable = harmonic_mean,
                 apps: Sequence[str] = EVALUATED_APPS) -> Dict[str, float]:
    """``{column: mean over apps of table[app][column]}`` — a figure's
    average row (harmonic for speedups, arithmetic for energy)."""
    return {c: mean([table[app][c] for app in apps]) for c in columns}


class Column(NamedTuple):
    """One column of a per-app table: ``table[app][key]`` printed with
    ``digits`` decimals; the average row holds its ``mean`` over the
    apps (3 decimals), or is blank when ``mean`` is ``None``."""

    key: str
    header: str
    digits: int = 3
    mean: Optional[Callable] = None


def _app_table(title: str, columns: Sequence[Column], label: str,
               apps: Sequence[str] = EVALUATED_APPS
               ) -> Callable[[dict], Rendered]:
    """The renderer of a table with one row per app plus an average
    row named ``label``."""
    def render(table):
        rows = [(app, *[fmt(table[app][c.key], c.digits) for c in columns])
                for app in apps]
        rows.append((label, *[
            fmt(c.mean([table[app][c.key] for app in apps]))
            if c.mean else "" for c in columns]))
        return title, ["app", *[c.header for c in columns]], rows
    return render


def _ratios(method: str, configs: Sequence[str],
            core: str = "ooo") -> Callable[[Lookup], dict]:
    """The reducer ``{app: {config: result.<method>(base)}}``."""
    def reduce(get):
        return {app: {name: getattr(get(name, app, core), method)(
                          get("base", app, core))
                      for name in configs}
                for app in EVALUATED_APPS}
    return reduce


def _grid(configs, apps=EVALUATED_APPS, cores=("ooo",),
          conditions=(NORMAL,)) -> SweepSpec:
    """A grid over the baseline L1 (config ``"base"``) plus ``configs``."""
    return SweepSpec(apps=list(apps), configs={"base": BASELINE_L1,
                                               **configs},
                     cores=list(cores), conditions=list(conditions))


SIPT = SIPT_GEOMETRIES["32K_2w"]
IDEAL = SIPT.with_scheme(IndexingScheme.IDEAL)
HMEAN = "Average(hmean)"

# -- Figs. 2 and 3: ideal L1 configurations, OOO and in-order ----------

#: Fig. 2/3 columns: the VIPT-feasible 16K/4w cache, then each SIPT
#: geometry as an ideal cache (index bits always correct).
IDEAL_GRID = {"16K_4w": L1_16K_4W_VIPT,
              **{name: cfg.with_scheme(IndexingScheme.IDEAL)
                 for name, cfg in SIPT_GEOMETRIES.items()}}
IDEAL_COLUMNS = [Column(name, name, mean=harmonic_mean)
                 for name in IDEAL_GRID]

FIG2 = Figure(
    "fig2", (_grid(IDEAL_GRID),), _ratios("speedup_over", IDEAL_GRID),
    _app_table("Fig. 2: normalized IPC, OOO core (ideal caches). "
               "Paper: 32K/2w best, +8.2% avg; 16K/4w -1.5% avg",
               IDEAL_COLUMNS, HMEAN))
FIG3 = Figure(
    "fig3", (_grid(IDEAL_GRID, cores=("inorder",)),),
    _ratios("speedup_over", IDEAL_GRID, "inorder"),
    _app_table("Fig. 3: normalized IPC, in-order core (ideal caches). "
               "Paper: 64K/4w best, +13% avg; 16K/4w -11.3% avg",
               IDEAL_COLUMNS, HMEAN))

# -- Figs. 6/7 (naive SIPT) and 13/14 (SIPT with IDB) -------------------

ENERGY_COLUMNS = ("energy", "ideal", "dyn_sipt", "dyn_base")
IPC_COLUMNS = [Column("ipc", "IPC vs base", mean=harmonic_mean),
               Column("ideal", "ideal IPC", mean=harmonic_mean)]


def _ipc(get) -> dict:
    """Figs. 6/13: IPC of config ``sipt`` and ``ideal`` vs base."""
    table = {}
    for app in EVALUATED_APPS:
        base, sipt = get("base", app), get("sipt", app)
        table[app] = {"ipc": sipt.speedup_over(base),
                      "ideal": get("ideal", app).speedup_over(base),
                      "extra": sipt.additional_accesses_over(base),
                      "fast": sipt.fast_fraction}
    return table


def _energy(get) -> dict:
    """Figs. 7/14: energy of config ``sipt`` and ``ideal`` vs base."""
    table = {}
    for app in EVALUATED_APPS:
        base, sipt = get("base", app), get("sipt", app)
        table[app] = {
            "energy": sipt.energy_over(base),
            "ideal": get("ideal", app).energy_over(base),
            "dyn_sipt": sipt.dynamic_energy_over(base),
            "dyn_base": base.energy.dynamic / base.energy.total,
        }
    return table


def _energy_table(title: str) -> Callable[[dict], Rendered]:
    return _app_table(title, [
        Column(key, header, mean=arithmetic_mean) for key, header in zip(
            ENERGY_COLUMNS,
            ("E/Ebase", "ideal E", "dynE SIPT", "dynE base"))], "Average")


#: The naive-SIPT grid of Figs. 6 and 7.
NAIVE_SPECS = (_grid({"sipt": replace(SIPT, variant=SiptVariant.NAIVE),
                      "ideal": IDEAL}),)
#: The SIPT+IDB grid of Figs. 13 and 14.
SIPT_SPECS = (_grid({"sipt": SIPT, "ideal": IDEAL}),)

FIG6 = Figure("fig6", NAIVE_SPECS, _ipc, _app_table(
    "Fig. 6: naive SIPT 32K/2w/2c, OOO core",
    [*IPC_COLUMNS, Column("extra", "extra L1 accesses", 2)], HMEAN))
FIG7 = Figure("fig7", NAIVE_SPECS, _energy, _energy_table(
    "Fig. 7: cache-hierarchy energy, naive SIPT 32K/2w "
    "(paper avg: 74.4% vs ideal 65.9%)"))
FIG13 = Figure("fig13", SIPT_SPECS, _ipc, _app_table(
    "Fig. 13: SIPT 32K/2w/2c with IDB, OOO core "
    "(paper: +5.9% avg, 2.3% from ideal)",
    [*IPC_COLUMNS, Column("extra", "extra L1", 2),
     Column("fast", "fast", 2)], HMEAN))
FIG14 = Figure("fig14", SIPT_SPECS, _energy, _energy_table(
    "Fig. 14: cache-hierarchy energy, SIPT 32K/2w + IDB "
    "(paper: close to ideal, ~2.4% gap)"))

# -- Figs. 16/17: way prediction x SIPT ---------------------------------

#: The way-prediction grid of Figs. 16 and 17.
WAYPRED_SPECS = (_grid({
    "base_wp": replace(BASELINE_L1, way_prediction=True),
    "sipt": SIPT, "sipt_wp": replace(SIPT, way_prediction=True)}),)


def _fig16(get) -> dict:
    table = {}
    for app in EVALUATED_APPS:
        base, base_wp = get("base", app), get("base_wp", app)
        sipt_wp = get("sipt_wp", app)
        table[app] = {
            "base_wp": base_wp.speedup_over(base),
            "base_wp_acc": base_wp.way_prediction_accuracy,
            "sipt": get("sipt", app).speedup_over(base),
            "sipt_wp": sipt_wp.speedup_over(base),
            "sipt_wp_acc": sipt_wp.way_prediction_accuracy,
        }
    return table


FIG16 = Figure("fig16", WAYPRED_SPECS, _fig16, _app_table(
    "Fig. 16: way prediction x SIPT (paper: 89% -> 97.3% "
    "accuracy; <=0.3% IPC cost on SIPT)",
    [Column("base_wp", "base+WP IPC"),
     Column("base_wp_acc", "base WP acc", 2, arithmetic_mean),
     Column("sipt", "SIPT IPC", mean=harmonic_mean),
     Column("sipt_wp", "SIPT+WP IPC", mean=harmonic_mean),
     Column("sipt_wp_acc", "SIPT WP acc", 2, arithmetic_mean)],
    "Average"))
FIG17 = Figure(
    "fig17", WAYPRED_SPECS,
    _ratios("energy_over", ("base_wp", "sipt", "sipt_wp")), _app_table(
        "Fig. 17: cache energy with way prediction "
        "(paper: base+WP -24%; SIPT+WP saves ~2.2% over SIPT)",
        [Column(key, header, mean=arithmetic_mean) for key, header in (
            ("base_wp", "base+WP"), ("sipt", "SIPT"),
            ("sipt_wp", "SIPT+WP"))], "Average"))

# -- Fig. 18: sensitivity to memory conditions --------------------------

#: A representative subset keeps the 2-core x 4-condition x 4-geometry
#: sweep tractable; it spans hugepage, chunked, offset, and scattered
#: allocation styles.
FIG18_APPS = ["perlbench", "h264ref", "libquantum", "calculix", "gromacs",
              "gcc", "sjeng", "graph500", "xalancbmk_17", "leela_17"]

#: (row label, memory condition, page-bound IDB). "page-bound" is zero
#: contiguity beyond 4 KiB: the IDB only trusts same-page reuse.
FIG18_CONDITIONS = (
    ("normal", NORMAL, False),
    ("fragmented", MemoryCondition.FRAGMENTED, False),
    ("thp-off", MemoryCondition.THP_OFF, False),
    ("page-bound", NORMAL, True),
)
FIG18_CORES = ("ooo", "inorder")


def _fig18_config(geometry: str, page_bound: bool) -> str:
    return f"{geometry}/page-bound" if page_bound else geometry


FIG18_SPECS = (
    _grid(SIPT_GEOMETRIES, FIG18_APPS, FIG18_CORES,
          [c for _, c, page_bound in FIG18_CONDITIONS if not page_bound]),
    # The page-bound geometries normalize against the first grid's
    # normal-condition baseline.
    SweepSpec(apps=FIG18_APPS, cores=list(FIG18_CORES), configs={
        _fig18_config(name, True): replace(cfg, page_bound_idb=True)
        for name, cfg in SIPT_GEOMETRIES.items()}),
)


def _fig18(get) -> dict:
    table = {}
    for core in FIG18_CORES:
        for label, condition, page_bound in FIG18_CONDITIONS:
            for geometry in SIPT_GEOMETRIES:
                config = _fig18_config(geometry, page_bound)
                speedups, energies, accuracies = [], [], []
                for app in FIG18_APPS:
                    base = get("base", app, core, condition)
                    sipt = get(config, app, core, condition)
                    speedups.append(sipt.speedup_over(base))
                    energies.append(sipt.energy_over(base))
                    accuracies.append(sipt.outcomes.fast_fraction)
                table[(core, label, geometry)] = {
                    "ipc": harmonic_mean(speedups),
                    "energy": arithmetic_mean(energies),
                    "accuracy": arithmetic_mean(accuracies),
                }
    return table


def _fig18_render(table) -> Rendered:
    rows = [(core, label, geometry, fmt(cell["ipc"]), fmt(cell["energy"]),
             fmt(cell["accuracy"], 3))
            for (core, label, geometry), cell in table.items()]
    return ("Fig. 18: sensitivity to memory conditions "
            "(IPC and energy vs same-condition baseline)",
            ["core", "condition", "geometry", "IPC", "energy",
             "fast frac"], rows)


FIG18 = Figure("fig18", FIG18_SPECS, _fig18, _fig18_render)

# -- Cross-model check: analytic vs dependence-graph OOO core -----------

CROSSMODEL_APPS = ["h264ref", "perlbench", "calculix", "gromacs",
                   "libquantum", "sjeng", "graph500", "mcf",
                   "exchange2_17", "xalancbmk_17"]
CROSSMODEL_CORES = (("analytic", "ooo"), ("detailed", "ooo-detailed"))


def _crossmodel(get) -> dict:
    table = {}
    for app in CROSSMODEL_APPS:
        row = {}
        for label, core in CROSSMODEL_CORES:
            base = get("base", app, core)
            row[label] = get("sipt", app, core).speedup_over(base)
            row[f"{label}_ipc"] = base.ipc
        table[app] = row
    return table


CROSSMODEL = Figure(
    "crossmodel",
    (_grid({"sipt": SIPT}, CROSSMODEL_APPS,
           [core for _, core in CROSSMODEL_CORES]),),
    _crossmodel, _app_table(
        "Cross-model check: SIPT speedup under analytic vs "
        "dependence-graph cores",
        [Column("analytic_ipc", "base IPC (analytic)"),
         Column("analytic", "speedup", mean=harmonic_mean),
         Column("detailed_ipc", "base IPC (detailed)"),
         Column("detailed", "speedup", mean=harmonic_mean)],
        "hmean", CROSSMODEL_APPS))

# -- Figs. 9 and 12: the bypass and the combined predictor --------------

#: The geometry with 1, 2 and 3 speculative index bits.
GEOMETRY_BY_BITS = {1: "32K_4w", 2: "32K_2w", 3: "128K_4w"}


def _predictor_grid(variant: SiptVariant) -> Tuple[SweepSpec, ...]:
    """The three geometries of :data:`GEOMETRY_BY_BITS` as ``variant``,
    OOO core, every app."""
    return (SweepSpec(apps=list(EVALUATED_APPS), configs={
        name: replace(SIPT_GEOMETRIES[name], variant=variant)
        for name in GEOMETRY_BY_BITS.values()}),)


def _per_bits(get) -> dict:
    """Figs. 9/12: ``{app: {bits: outcome fractions}}``, plus each
    run's prediction ``accuracy`` and ``fast`` fraction."""
    table = {}
    for app in EVALUATED_APPS:
        table[app] = {}
        for bits, name in GEOMETRY_BY_BITS.items():
            outcomes = get(name, app).outcomes
            table[app][bits] = {**outcomes.as_fractions(),
                                "accuracy": outcomes.prediction_accuracy,
                                "fast": outcomes.fast_fraction}
    return table


def _fig9_render(table) -> Rendered:
    rows = [(app if bits == 1 else "", bits,
             *[fmt(f[outcome], 2) for outcome in (
                 "correct_speculation", "correct_bypass",
                 "opportunity_loss", "extra_access")],
             fmt(f["accuracy"], 3))
            for app in EVALUATED_APPS for bits, f in table[app].items()]
    return ("Fig. 9: bypass predictor outcomes (1/2/3 spec bits). "
            "Paper: >90% accuracy everywhere",
            ["app", "bits", "corr spec", "corr bypass", "opp loss",
             "extra", "accuracy"], rows)


def _fig12_render(table) -> Rendered:
    rows = [(app, *[f"{f['correct_speculation']:.2f}+"
                    f"{f['idb_hit']:.2f}={f['fast']:.2f}"
                    for f in table[app].values()])
            for app in EVALUATED_APPS]
    return ("Fig. 12: combined predictor fast fraction "
            "(correct-spec + IDB hit) for 1/2/3 bits",
            ["app", "1 bit", "2 bits", "3 bits"], rows)


FIG9 = Figure("fig9", _predictor_grid(SiptVariant.BYPASS), _per_bits,
              _fig9_render)
# COMBINED is the default variant: most of these cells are Fig. 13's
# and Fig. 18's.
FIG12 = Figure("fig12", _predictor_grid(SiptVariant.COMBINED),
               _per_bits, _fig12_render)

# -- Fig. 15: SIPT with IDB on the quad core (Table III mixes) ----------

#: Fig. 15's printed metrics and their column-header prefixes.
FIG15_COLUMNS = {"speedup": "ipc", "energy": "E"}


def _mix_ratios(results: List[SimResult], base: List[SimResult]) -> dict:
    """One mix under one geometry vs its baseline: sum-of-IPC speedup,
    total energy, and extra L1 accesses over all cores."""
    def ratio(metric):
        return sum(map(metric, results)) / sum(map(metric, base))
    return {"speedup": ratio(lambda r: r.ipc),
            "energy": ratio(lambda r: r.energy.total),
            "extra": ratio(lambda r: r.l1_accesses_with_extra) - 1.0}


def _fig15(get) -> dict:
    return {mix: {name: _mix_ratios(get(name, mix), get("base", mix))
                  for name in SIPT_GEOMETRIES}
            for mix in MIXES}


def _fig15_render(table) -> Rendered:
    columns = [(metric, name) for metric in FIG15_COLUMNS
               for name in SIPT_GEOMETRIES]
    rows = [(mix, *[fmt(row[name][metric]) for metric, name in columns])
            for mix, row in table.items()]
    rows.append(("Average", *[
        fmt(arithmetic_mean([row[name][metric] for row in table.values()]))
        for metric, name in columns]))
    return ("Fig. 15: quad-core SIPT+IDB, sum-of-IPC speedup and "
            "energy (paper: 32K/2w best, +8.1%)",
            ["mix", *[f"{FIG15_COLUMNS[metric]} {name}"
                      for metric, name in columns]], rows)


FIG15 = Figure("fig15", (_grid(SIPT_GEOMETRIES, list(MIXES)),), _fig15,
               _fig15_render)

#: Every grid-shaped figure, in the order ``repro figures`` prints them.
FIGURES = (FIG2, FIG3, FIG6, FIG7, FIG13, FIG14, FIG16, FIG17, FIG18,
           CROSSMODEL, FIG9, FIG12, FIG15)


class ReadOnceStore(ResultStore):
    """A :class:`~repro.store.ResultStore` that keeps every result it
    reads.

    A figures run asks for a cell in ``run_sweep``'s store pre-pass,
    again when :func:`compute` collects the table, and again for every
    figure that shares the cell; the repeats are served from memory,
    so each distinct digest is read from disk at most once per run.
    Only hits are kept: a miss stays a miss until the cell is
    published. A pool task pickles it as a plain ``ResultStore`` on the
    same root, so the memo never leaves this process.
    """

    def __init__(self, root, cap_bytes: Optional[int] = None):
        super().__init__(root, cap_bytes)
        self._read: Dict[str, object] = {}

    def fetch_result(self, digest: str):
        result = self._read.get(digest)
        if result is None:
            result = super().fetch_result(digest)
            if result is not None:
                self._read[digest] = result
        return result

    def __reduce__(self):
        return ResultStore, (self.root, self.cap_bytes)


@contextmanager
def private_store(store: Optional[ResultStore] = None
                  ) -> Iterator[ReadOnceStore]:
    """A :class:`ReadOnceStore` on ``store``'s root, or — when ``None``
    — on a private ``tempfile.mkdtemp`` root that is removed on exit,
    whatever ends the block (the same lifetime as a parallel sweep's
    exchange root). A ``ReadOnceStore`` is yielded as itself, so every
    figure computed on it shares one memo."""
    if isinstance(store, ReadOnceStore):
        yield store
    elif store is not None:
        yield ReadOnceStore(store.root, store.cap_bytes)
    else:
        root = tempfile.mkdtemp(prefix="repro-figures-")
        try:
            yield ReadOnceStore(root)
        finally:
            shutil.rmtree(root, ignore_errors=True)


def _failed(figure: Figure, key: dict, row: dict,
            store: ResultStore) -> str:
    """The error message for a cell a figure cannot use: its
    coordinates, identity prefix, and what went wrong."""
    cell = " ".join(f"{name}={key[name]}"
                    for name in ("app", "config", "core", "condition", "seed"))
    problem = (f"finished {row['status']}: {row['error']}"
               if row["status"] != STATUS_OK else
               f"has no readable result in the store at {store.root}")
    return f"{figure.name}: cell {cell} ({key['cell'][:12]}) {problem}"


def compute(figure: Figure, n_accesses: Optional[int] = None,
            traces: Optional[TraceCache] = None,
            runner: Optional[ResilientRunner] = None,
            engine: str = "python",
            store: Optional[ResultStore] = None) -> dict:
    """Run ``figure``'s sweeps and reduce their results to its table.

    Each spec runs through :func:`~repro.sim.sweep.run_sweep` with
    ``store`` bound (a private temporary store when ``None``), so cells
    already in the store — another figure's, or a previous run's — are
    read instead of simulated. Every cell's result is then read back by
    its cell identity; pass the store :func:`private_store` yields to
    let a sequence of figures share one read-once memo. Raises
    :class:`~repro.errors.SimulationError` naming the first cell whose
    row is not ok or whose result is not readable.
    """
    traces = traces or TraceCache()
    runner = runner or ResilientRunner()
    results: Dict[tuple, SimResult] = {}
    with private_store(store) as store:
        for spec in figure.specs:
            rows = run_sweep(spec, n_accesses, traces, runner,
                             engine=engine, store=store)
            for (key, recipe, system), row in zip(
                    grid_cells(spec, n_accesses), rows):
                result = (store.fetch_result(key["cell"])
                          if row["status"] == STATUS_OK else None)
                if result is None:
                    raise SimulationError(_failed(figure, key, row, store))
                results[(key["config"], recipe.app, system.core,
                         recipe.condition)] = result

    def get(config, app, core="ooo", condition=NORMAL):
        return results[(config, app, core, condition)]
    return figure.reduce(get)
