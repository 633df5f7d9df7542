"""Simulation result containers and aggregation helpers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..cache.set_assoc import CacheStats
from ..cache.tlb import TlbStats
from ..core.outcomes import OutcomeCounts
from ..errors import SimulationError
from ..timing.energy import EnergyBreakdown


@dataclass
class SimResult:
    """Everything one (trace, system) simulation produced.

    ``metrics`` is the full end-of-run
    :meth:`~repro.obs.registry.MetricsRegistry.snapshot` — every
    component counter and gauge under its dotted namespace
    (``docs/observability.md`` documents the layout). ``intervals`` is
    the per-window time-series when the run was started with
    ``simulate(..., interval=N)``, else ``None``.
    """

    app: str
    system: str
    instructions: int
    cycles: float
    l1_stats: CacheStats
    tlb_stats: TlbStats
    outcomes: OutcomeCounts
    energy: EnergyBreakdown
    l1_accesses_with_extra: int
    fast_fraction: float
    extra_access_fraction: float
    way_prediction_accuracy: Optional[float] = None
    metrics: Optional[Dict[str, float]] = None
    intervals: Optional[List[dict]] = None

    @property
    def ipc(self) -> float:
        """Instructions per cycle.

        A run that retired work in zero cycles is a broken simulation,
        not an infinitely fast one — raising here keeps the sentinel
        ``0.0`` out of sweep CSVs where it silently poisoned means.
        """
        if self.cycles <= 0:
            raise SimulationError(
                f"run retired {self.instructions} instructions in "
                f"{self.cycles} cycles on {self.system!r}; IPC undefined "
                "(broken simulation)", app=self.app)
        return self.instructions / self.cycles

    def speedup_over(self, baseline: "SimResult") -> float:
        """IPC relative to a baseline run of the same trace."""
        base_ipc = baseline.ipc
        if base_ipc == 0:
            raise SimulationError("baseline IPC is zero", app=self.app)
        return self.ipc / base_ipc

    def energy_over(self, baseline: "SimResult") -> float:
        """Total cache-hierarchy energy relative to a baseline run."""
        if baseline.energy.total == 0:
            raise SimulationError("baseline energy is zero", app=self.app)
        return self.energy.total / baseline.energy.total

    def dynamic_energy_over(self, baseline: "SimResult") -> float:
        """Dynamic energy relative to the baseline's *total* energy.

        Matches the paper's "Normalized Dynamic Energy" series in
        Figs. 7 and 14 (dynamic over baseline total).
        """
        if baseline.energy.total == 0:
            raise SimulationError("baseline energy is zero", app=self.app)
        return self.energy.dynamic / baseline.energy.total

    def additional_accesses_over(self, baseline: "SimResult") -> float:
        """Relative extra L1 accesses: accesses_SIPT/accesses_base - 1."""
        if baseline.l1_accesses_with_extra == 0:
            raise SimulationError("baseline has no L1 accesses",
                                  app=self.app)
        return (self.l1_accesses_with_extra
                / baseline.l1_accesses_with_extra) - 1.0


def harmonic_mean(values: Iterable[float]) -> float:
    """Harmonic mean, the paper's averaging rule for speedups."""
    values = list(values)
    if not values:
        raise ValueError("harmonic_mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("harmonic_mean requires positive values")
    return len(values) / sum(1.0 / v for v in values)


def arithmetic_mean(values: Iterable[float]) -> float:
    """Arithmetic mean, the paper's averaging rule for energy."""
    values = list(values)
    if not values:
        raise ValueError("arithmetic_mean of empty sequence")
    return sum(values) / len(values)
