"""Programmatic scorecard for the paper's headline claims.

``python -m repro validate`` (or :func:`run_scorecard`) runs a reduced
version of the evaluation and checks each headline claim of the paper
as a pass/fail line — a five-minute smoke check that the reproduction
still behaves like the paper after a change, without running the full
benchmark suite.

The scorecard grid (suite x app) executes through
:class:`~repro.sim.resilience.ResilientRunner`: each cell journals the
scalar metrics the claims need (IPC, total energy, fast fraction), so
an interrupted ``validate`` resumes from its journal, and a failing
cell drops its app from the claim arithmetic instead of aborting the
whole scorecard (the degradation is reported as an extra failing
check).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, List, Optional

from .core.indexing import IndexingScheme, SiptVariant
from .errors import SimulationError
from .sim import (
    BASELINE_L1,
    SIPT_GEOMETRIES,
    ResilientRunner,
    TraceCache,
    harmonic_mean,
    inorder_system,
    ooo_system,
    run_app,
)
from .workloads import MemoryCondition

#: Representative subset spanning the allocation styles and behaviours.
SCORECARD_APPS = ["perlbench", "h264ref", "sjeng", "libquantum",
                  "calculix", "gromacs", "graph500", "xalancbmk_17",
                  "leela_17", "mcf"]


@dataclass
class Check:
    """One verified claim."""

    claim: str
    measured: str
    passed: bool


def _suite_cell(app: str, system_factory, cfg, condition, n: int,
                traces: Optional[TraceCache]) -> dict:
    """One scorecard cell as a picklable task.

    ``system_factory`` is a module-level function (``ooo_system`` /
    ``inorder_system``) and ``cfg`` a frozen L1Config, so the partial
    pickles cleanly. ``traces`` is the scorecard's trace cache when the
    cell runs in-process, and ``None`` (the worker's shared cache) when
    it is shipped to a pool worker.
    """
    result = run_app(app, system_factory(cfg), condition=condition,
                     n_accesses=n, cache=traces)
    return {"ipc": result.ipc,
            "energy_total": result.energy.total,
            "fast_fraction": result.fast_fraction}


def _suite(label: str, system_factory, cfg, traces, n, runner,
           condition=MemoryCondition.NORMAL) -> Dict[str, dict]:
    """One scorecard suite as runner cells; returns {app: metrics}.

    Failed cells are simply absent from the returned mapping — the
    caller computes claims over the apps every suite completed. With a
    ``jobs > 1`` runner the suite's apps run concurrently in the
    process pool; the simulations are seeded, so the metrics are
    identical to a serial run.
    """
    cache = traces if runner.jobs == 1 else None
    cells = [({"grid": "scorecard", "suite": label, "app": app,
               "condition": condition.value, "accesses": n},
              partial(_suite_cell, app, system_factory, cfg, condition, n,
                      cache))
             for app in SCORECARD_APPS]
    rows = runner.run_cells(cells)
    return {app: row for app, row in zip(SCORECARD_APPS, rows)
            if row.get("status") == "ok"}


def run_scorecard(n_accesses: int = 12_000,
                  traces: Optional[TraceCache] = None,
                  runner: Optional[ResilientRunner] = None) -> List[Check]:
    """Run the reduced evaluation and score the headline claims.

    Pass a journaling ``runner`` to checkpoint/resume the underlying
    (suite x app) grid. If cells fail, the affected apps are dropped
    from every claim (keeping ratios paired) and an extra failing
    check reports the degradation; if no app survives, raises
    :class:`SimulationError`.
    """
    traces = traces or TraceCache()
    runner = runner or ResilientRunner()
    checks: List[Check] = []
    sipt = SIPT_GEOMETRIES["32K_2w"]
    ideal = sipt.with_scheme(IndexingScheme.IDEAL)
    naive = replace(sipt, variant=SiptVariant.NAIVE)
    n = n_accesses

    base = _suite("base", ooo_system, BASELINE_L1, traces, n, runner)
    sipt_r = _suite("sipt", ooo_system, sipt, traces, n, runner)
    ideal_r = _suite("ideal", ooo_system, ideal, traces, n, runner)
    naive_r = _suite("naive", ooo_system, naive, traces, n, runner)

    # In-order: capacity wins (Fig. 3).
    cfg64 = SIPT_GEOMETRIES["64K_4w"].with_scheme(IndexingScheme.IDEAL)
    cfg32 = sipt.with_scheme(IndexingScheme.IDEAL)
    base_io = _suite("base-io", inorder_system, BASELINE_L1, traces, n,
                     runner)
    io64_r = _suite("io64", inorder_system, cfg64, traces, n, runner)
    io32_r = _suite("io32", inorder_system, cfg32, traces, n, runner)

    # Fragmentation degrades mildly (Fig. 18).
    frag_base = _suite("frag-base", ooo_system, BASELINE_L1, traces, n,
                       runner, condition=MemoryCondition.FRAGMENTED)
    frag = _suite("frag-sipt", ooo_system, sipt, traces, n, runner,
                  condition=MemoryCondition.FRAGMENTED)

    suites = [base, sipt_r, ideal_r, naive_r, base_io, io64_r, io32_r,
              frag_base, frag]
    apps = [a for a in SCORECARD_APPS
            if all(a in suite for suite in suites)]
    if not apps:
        raise SimulationError(
            "every scorecard cell failed; nothing to score "
            f"({runner.stats.summary()})")

    def ipc_ratio(res, ref):
        return harmonic_mean([res[a]["ipc"] / ref[a]["ipc"] for a in apps])

    speedup = ipc_ratio(sipt_r, base)
    ideal_speedup = ipc_ratio(ideal_r, base)
    naive_speedup = ipc_ratio(naive_r, base)
    energy = sum(sipt_r[a]["energy_total"] / base[a]["energy_total"]
                 for a in apps) / len(apps)

    checks.append(Check(
        "SIPT (32K/2w + IDB) speeds up the OOO core",
        f"hmean speedup {speedup:.3f}", speedup > 1.0))
    checks.append(Check(
        "SIPT approaches the ideal cache (paper: within ~2.3%)",
        f"ideal {ideal_speedup:.3f} vs SIPT {speedup:.3f}",
        (ideal_speedup - speedup) < 0.04))
    checks.append(Check(
        "combined predictor beats naive speculation",
        f"naive {naive_speedup:.3f} vs combined {speedup:.3f}",
        speedup >= naive_speedup - 1e-9))
    checks.append(Check(
        "SIPT reduces total cache-hierarchy energy (paper: -15.6%)",
        f"energy ratio {energy:.3f}", energy < 0.9))
    min_speedup = min(sipt_r[a]["ipc"] / base[a]["ipc"] for a in apps)
    checks.append(Check(
        "SIPT never materially underperforms the baseline",
        f"min speedup {min_speedup:.3f}", min_speedup > 0.99))

    io64 = ipc_ratio(io64_r, base_io)
    io32 = ipc_ratio(io32_r, base_io)
    checks.append(Check(
        "in-order core prefers 64K/4w over 32K/2w (Fig. 3)",
        f"64K {io64:.3f} vs 32K/2w {io32:.3f}", io64 > io32))

    frag_speedup = ipc_ratio(frag, frag_base)
    checks.append(Check(
        "fragmented memory degrades SIPT only mildly (Fig. 18)",
        f"fragmented speedup {frag_speedup:.3f}", frag_speedup > 0.98))

    fast = sum(sipt_r[a]["fast_fraction"] for a in apps) / len(apps)
    checks.append(Check(
        "combined predictor makes most accesses fast (Fig. 12)",
        f"mean fast fraction {fast:.3f}", fast > 0.8))

    if len(apps) < len(SCORECARD_APPS):
        dropped = sorted(set(SCORECARD_APPS) - set(apps))
        checks.append(Check(
            "scorecard grid completed without degraded cells",
            f"dropped apps {dropped} ({runner.stats.summary()})", False))
    return checks


def format_scorecard(checks: List[Check]) -> str:
    """Render the scorecard as aligned text."""
    width = max(len(c.claim) for c in checks)
    lines = []
    for check in checks:
        mark = "PASS" if check.passed else "FAIL"
        lines.append(f"[{mark}] {check.claim.ljust(width)}  "
                     f"({check.measured})")
    n_pass = sum(c.passed for c in checks)
    lines.append(f"{n_pass}/{len(checks)} headline claims reproduced")
    return "\n".join(lines)
