"""System configurations from Table II.

Two systems are modelled:

* **OOO**: 6-wide out-of-order, 192-entry ROB, 3-level hierarchy
  (L1 + 256 KiB private L2 @ 12 cycles + 2 MiB shared LLC @ 25 cycles).
* **In-order**: 2-wide, 2-level hierarchy (L1 + 1 MiB LLC @ 20 cycles).

L1 geometries under study (latency/energy from the CACTI model's Table II
anchors):

* 32 KiB 8-way VIPT, 4 cycles — the baseline.
* 16 KiB 4-way VIPT, 2 cycles — the only VIPT-feasible low-latency point.
* 32 KiB 2-way, 2 cycles (2 speculative bits)
* 32 KiB 4-way, 3 cycles (1 speculative bit)
* 64 KiB 4-way, 3 cycles (2 speculative bits)
* 128 KiB 4-way, 4 cycles (3 speculative bits)

The last four require SIPT (or the paper's "ideal" assumption).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from ..core.indexing import IndexingScheme, SiptVariant
from ..errors import ConfigError
from ..timing.cacti import CactiModel

KiB = 1024
MiB = 1024 * KiB

_CACTI = CactiModel()


@dataclass(frozen=True)
class L1Config:
    """One L1 design point: geometry plus indexing scheme."""

    capacity: int
    ways: int
    scheme: IndexingScheme = IndexingScheme.VIPT
    variant: SiptVariant = SiptVariant.COMBINED
    line_size: int = 64
    latency: int = 0          # 0 -> take from the CACTI model
    way_prediction: bool = False
    page_bound_idb: bool = False

    def __post_init__(self):
        if self.capacity <= 0 or self.ways <= 0 or self.line_size <= 0:
            raise ConfigError(
                f"L1 geometry must be positive, got capacity="
                f"{self.capacity}, ways={self.ways}, "
                f"line_size={self.line_size}")
        if self.line_size & (self.line_size - 1):
            raise ConfigError(
                f"line_size must be a power of two, got {self.line_size}")
        if self.capacity % (self.ways * self.line_size):
            raise ConfigError(
                f"capacity {self.capacity} is not divisible by ways*line "
                f"({self.ways}*{self.line_size}); sets would be "
                "fractional")
        if self.latency < 0:
            raise ConfigError(f"latency must be >= 0, got {self.latency}")
        if self.latency == 0:
            object.__setattr__(self, "latency",
                               _CACTI.latency_cycles(self.capacity,
                                                     self.ways))

    @property
    def label(self) -> str:
        """Compact display name: capacity/ways/latency/scheme."""
        scheme = self.scheme.value
        if self.scheme is IndexingScheme.SIPT:
            scheme = f"sipt-{self.variant.value}"
        return (f"{self.capacity // KiB}K/{self.ways}w/"
                f"{self.latency}c/{scheme}")

    def with_scheme(self, scheme: IndexingScheme,
                    variant: SiptVariant = SiptVariant.COMBINED) -> "L1Config":
        """The same geometry under a different indexing scheme."""
        return replace(self, scheme=scheme, variant=variant)


@dataclass(frozen=True)
class SystemConfig:
    """A full single-core system: core model + cache hierarchy."""

    name: str
    core: str                      # "ooo" | "inorder"
    l1: L1Config
    l2_capacity: int = 0           # 0 -> no private L2
    l2_ways: int = 8
    l2_latency: int = 12
    llc_capacity: int = 2 * MiB
    llc_ways: int = 16
    llc_latency: int = 25

    #: The core timing models the drivers know how to build.
    CORE_KINDS = ("ooo", "ooo-detailed", "inorder")

    def __post_init__(self):
        if self.core not in self.CORE_KINDS:
            raise ConfigError(
                f"unknown core kind {self.core!r}; "
                f"choose from {list(self.CORE_KINDS)}")

    @property
    def has_l2(self) -> bool:
        """Whether the hierarchy models a private L2 (capacity > 0)."""
        return self.l2_capacity > 0


# ---------------------------------------------------------------------
# Table II presets
# ---------------------------------------------------------------------
BASELINE_L1 = L1Config(32 * KiB, 8, IndexingScheme.VIPT)
L1_16K_4W_VIPT = L1Config(16 * KiB, 4, IndexingScheme.VIPT)

#: The four SIPT geometries of Table II, in the paper's order.
SIPT_GEOMETRIES: Dict[str, L1Config] = {
    "32K_2w": L1Config(32 * KiB, 2, IndexingScheme.SIPT),
    "32K_4w": L1Config(32 * KiB, 4, IndexingScheme.SIPT),
    "64K_4w": L1Config(64 * KiB, 4, IndexingScheme.SIPT),
    "128K_4w": L1Config(128 * KiB, 4, IndexingScheme.SIPT),
}


def ooo_system(l1: L1Config, name: Optional[str] = None,
               llc_capacity: int = 2 * MiB) -> SystemConfig:
    """The OOO 3-level system of Table II around the given L1."""
    return SystemConfig(
        name=name or f"ooo/{l1.label}",
        core="ooo",
        l1=l1,
        l2_capacity=256 * KiB,
        l2_ways=8,
        l2_latency=12,
        llc_capacity=llc_capacity,
        llc_ways=16,
        llc_latency=25,
    )


def inorder_system(l1: L1Config, name: Optional[str] = None,
                   llc_capacity: int = 1 * MiB) -> SystemConfig:
    """The in-order 2-level system of Table II around the given L1."""
    return SystemConfig(
        name=name or f"inorder/{l1.label}",
        core="inorder",
        l1=l1,
        l2_capacity=0,
        llc_capacity=llc_capacity,
        llc_ways=16,
        llc_latency=20,
    )


def system_for(core: str, l1: L1Config) -> SystemConfig:
    """The Table II system for core model ``core`` around ``l1``.

    The one core-to-system builder every command and grid uses:
    ``"inorder"`` is :func:`inorder_system`, ``"ooo"`` is
    :func:`ooo_system`, and ``"ooo-detailed"`` is the OOO hierarchy
    under the detailed core timing model, named
    ``ooo-detailed/<label>`` so its results never share a name with
    the analytic core's. Any other ``core`` raises
    :class:`~repro.errors.ConfigError`.
    """
    if core == "inorder":
        return inorder_system(l1)
    system = ooo_system(l1)
    if core == "ooo":
        return system
    return replace(system, core=core, name=f"{core}/{l1.label}")
