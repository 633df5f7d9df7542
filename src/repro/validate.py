"""Programmatic scorecard for the paper's headline claims.

``python -m repro validate`` (or :func:`run_scorecard`) runs a reduced
version of the evaluation and checks each headline claim of the paper
as a pass/fail line — a five-minute smoke check that the reproduction
still behaves like the paper after a change, without running the full
benchmark suite.

The scorecard grid is nine (config x core x condition) suites over
:data:`SCORECARD_APPS`, run as three :func:`~repro.sim.sweep.run_sweep`
grids on one :class:`~repro.sim.resilience.ResilientRunner`: each cell
journals its sweep row, whose ``ipc``, ``energy_j`` and
``fast_fraction`` are what the claims need, so an interrupted
``validate`` resumes from its journal, ``--jobs N`` shares one trace
generation through the sweep's substrate, and a failing cell drops its
app from the claim arithmetic instead of aborting the whole scorecard
(the degradation is reported as an extra failing check).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from .core.indexing import IndexingScheme, SiptVariant
from .errors import SimulationError
from .sim import (
    BASELINE_L1,
    SIPT_GEOMETRIES,
    L1Config,
    ResilientRunner,
    SweepSpec,
    TraceCache,
    harmonic_mean,
    run_sweep,
)
from .sim.sweep import plan_traces
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


def _spec(configs: Dict[str, L1Config], core: str,
          condition: MemoryCondition) -> SweepSpec:
    """One grid of ``configs`` over the scorecard apps."""
    return SweepSpec(apps=SCORECARD_APPS, configs=configs, cores=[core],
                     conditions=[condition])


def _suites(spec: SweepSpec, n: int, traces: TraceCache,
            runner: ResilientRunner) -> List[Dict[str, dict]]:
    """Run ``spec``; returns one ``{app: row}`` suite per config, in
    ``spec.configs`` order.

    Failed cells are simply absent — the caller computes claims over
    the apps every suite completed.
    """
    suites: Dict[str, Dict[str, dict]] = {name: {} for name in spec.configs}
    for row in run_sweep(spec, n_accesses=n, traces=traces, runner=runner):
        if row["status"] == "ok":
            suites[row["config"]][row["app"]] = row
    return list(suites.values())


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
    runner = runner or ResilientRunner()
    checks: List[Check] = []
    sipt = SIPT_GEOMETRIES["32K_2w"]
    n = n_accesses
    ideal = sipt.with_scheme(IndexingScheme.IDEAL)
    specs = [
        _spec({"base": BASELINE_L1, "sipt": sipt, "ideal": ideal,
               "naive": replace(sipt, variant=SiptVariant.NAIVE)},
              "ooo", MemoryCondition.NORMAL),
        # In-order: capacity wins (Fig. 3).
        _spec({"base": BASELINE_L1,
               "io64": SIPT_GEOMETRIES["64K_4w"].with_scheme(
                   IndexingScheme.IDEAL),
               "io32": ideal},
              "inorder", MemoryCondition.NORMAL),
        # Fragmentation degrades mildly (Fig. 18).
        _spec({"base": BASELINE_L1, "sipt": sipt}, "ooo",
              MemoryCondition.FRAGMENTED)]
    if traces is None:
        traces = plan_traces(TraceCache(), specs, n)
    (base, sipt_r, ideal_r, naive_r), (base_io, io64_r, io32_r), \
        (frag_base, frag) = [_suites(spec, n, traces, runner)
                             for spec in specs]

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
    energy = sum(sipt_r[a]["energy_j"] / base[a]["energy_j"]
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
