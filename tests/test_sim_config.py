"""Tests for system configuration presets."""

import pytest

from repro.core import IndexingScheme, SiptVariant
from repro.sim import (
    BASELINE_L1,
    L1_16K_4W_VIPT,
    L1Config,
    SIPT_GEOMETRIES,
    SystemConfig,
    inorder_system,
    ooo_system,
    system_for,
)

KiB = 1024


def test_baseline_matches_table2():
    assert BASELINE_L1.capacity == 32 * KiB
    assert BASELINE_L1.ways == 8
    assert BASELINE_L1.latency == 4
    assert BASELINE_L1.scheme is IndexingScheme.VIPT


def test_sipt_geometries_match_table2():
    expected = {"32K_2w": (32 * KiB, 2, 2), "32K_4w": (32 * KiB, 4, 3),
                "64K_4w": (64 * KiB, 4, 3), "128K_4w": (128 * KiB, 4, 4)}
    for key, (capacity, ways, latency) in expected.items():
        cfg = SIPT_GEOMETRIES[key]
        assert (cfg.capacity, cfg.ways, cfg.latency) == \
            (capacity, ways, latency)
        assert cfg.scheme is IndexingScheme.SIPT


def test_16k_config_is_2_cycles():
    assert L1_16K_4W_VIPT.latency == 2
    assert L1_16K_4W_VIPT.scheme is IndexingScheme.VIPT


def test_with_scheme_preserves_geometry():
    ideal = SIPT_GEOMETRIES["32K_2w"].with_scheme(IndexingScheme.IDEAL)
    assert ideal.capacity == 32 * KiB
    assert ideal.ways == 2
    assert ideal.latency == 2
    assert ideal.scheme is IndexingScheme.IDEAL


def test_label_is_informative():
    assert SIPT_GEOMETRIES["32K_2w"].label == "32K/2w/2c/sipt-combined"
    assert BASELINE_L1.label == "32K/8w/4c/vipt"


def test_ooo_system_matches_table2():
    system = ooo_system(BASELINE_L1)
    assert system.core == "ooo"
    assert system.l2_capacity == 256 * KiB
    assert system.l2_latency == 12
    assert system.llc_capacity == 2 * 1024 * KiB
    assert system.llc_latency == 25
    assert system.has_l2


def test_inorder_system_matches_table2():
    system = inorder_system(BASELINE_L1)
    assert system.core == "inorder"
    assert not system.has_l2
    assert system.llc_capacity == 1024 * KiB
    assert system.llc_latency == 20


def test_bad_core_kind_rejected():
    with pytest.raises(ValueError):
        SystemConfig(name="x", core="vliw", l1=BASELINE_L1)


def test_explicit_latency_override():
    cfg = L1Config(32 * KiB, 2, latency=1)
    assert cfg.latency == 1


def test_system_for_names_each_core_model_apart():
    l1 = SIPT_GEOMETRIES["32K_2w"]
    assert system_for("ooo", l1) == ooo_system(l1)
    assert system_for("inorder", l1) == inorder_system(l1)
    detailed = system_for("ooo-detailed", l1)
    assert detailed.core == "ooo-detailed"
    assert detailed.name == "ooo-detailed/32K/2w/2c/sipt-combined"
    assert detailed.l2_capacity == ooo_system(l1).l2_capacity
    with pytest.raises(ValueError):
        system_for("vliw", l1)
