"""Tests for the calibrated area/power models: paper anchors reproduced
exactly, plus monotonicity properties of the model."""

import pytest
from hypothesis import given, strategies as st

from repro.baseline.esp import esp_area_kge, esp_point
from repro.models.area import mesh_area_kge
from repro.models.power import mesh_power_mw, platform_power_fraction
from repro.models.tech import kge_to_mm2, mm2_to_kge
from repro.noc.bandwidth import bisection_gbit_s, bisection_gib_s, utilization
from repro.noc.config import NocConfig


class TestPaperAnchors:
    def test_2x2_area_anchors(self):
        cfg = NocConfig.from_label("AXI_32_32_2", 2, 2, max_outstanding=1)
        assert mesh_area_kge(cfg) == pytest.approx(174.0, abs=1.0)
        cfg = NocConfig.from_label("AXI_32_512_2", 2, 2, max_outstanding=1)
        assert mesh_area_kge(cfg) == pytest.approx(830.0, abs=1.0)

    def test_4x4_mot_anchors(self):
        base = NocConfig.from_label("AXI_32_64_4", 4, 4, max_outstanding=1)
        assert mesh_area_kge(base) == pytest.approx(1000.0, abs=15.0)
        deep = base.with_(max_outstanding=128)
        assert mesh_area_kge(deep) == pytest.approx(2200.0, abs=30.0)

    def test_esp_calibration(self):
        cfg = NocConfig.from_label("AXI_32_64_2", 2, 2, max_outstanding=1)
        ours = mesh_area_kge(cfg)
        esp = esp_point(32)
        assert esp.area_kge / ours == pytest.approx(1.68, abs=0.01)
        assert esp.bisection_gbit_s == pytest.approx(160.0)

    def test_headline_34_percent(self):
        cfg = NocConfig.from_label("AXI_32_64_2", 2, 2, max_outstanding=1)
        ours = bisection_gbit_s(cfg) / mesh_area_kge(cfg)
        gain = ours / esp_point(32).area_efficiency - 1
        assert gain == pytest.approx(0.34, abs=0.01)

    def test_power_anchors(self):
        assert mesh_power_mw(NocConfig.slim()) == pytest.approx(45.0, abs=0.5)
        assert mesh_power_mw(NocConfig.wide()) == pytest.approx(171.0, abs=0.5)

    def test_platform_fraction_below_ten_percent(self):
        for dw in (32, 512):
            cfg = NocConfig.slim().with_(data_width=dw)
            assert platform_power_fraction(cfg) < 0.10


class TestBandwidthConventions:
    def test_fig2_convention_unidirectional(self):
        cfg = NocConfig.from_label("AXI_32_64_2", 2, 2)
        assert bisection_gbit_s(cfg) == pytest.approx(128.0)

    def test_section_iv_convention_bidirectional(self):
        assert bisection_gib_s(NocConfig.slim()) == pytest.approx(
            32 * 1e9 / 2**30, rel=1e-6)  # "32 GiB/s" (decimal-G links)
        assert bisection_gib_s(NocConfig.wide()) == pytest.approx(
            512 * 1e9 / 2**30, rel=1e-6)

    def test_utilization_definition(self):
        cfg = NocConfig.slim()
        full = bisection_gib_s(cfg)
        assert utilization(full, cfg) == pytest.approx(100.0)
        assert utilization(0.0, cfg) == 0.0


class TestModelShape:
    @given(st.sampled_from([8, 16, 32, 64, 128, 256, 512, 1024]),
           st.sampled_from([8, 16, 32, 64, 128, 256, 512, 1024]))
    def test_area_monotone_in_data_width(self, dw1, dw2):
        if dw1 > dw2:
            dw1, dw2 = dw2, dw1
        a1 = mesh_area_kge(NocConfig(data_width=dw1))
        a2 = mesh_area_kge(NocConfig(data_width=dw2))
        assert a1 <= a2

    @given(st.sampled_from([1, 2, 4, 8, 16, 32, 64, 128]),
           st.sampled_from([1, 2, 4, 8, 16, 32, 64, 128]))
    def test_area_monotone_in_mot(self, m1, m2):
        if m1 > m2:
            m1, m2 = m2, m1
        a1 = mesh_area_kge(NocConfig(max_outstanding=m1))
        a2 = mesh_area_kge(NocConfig(max_outstanding=m2))
        assert a1 <= a2

    def test_bigger_mesh_bigger_area(self):
        assert (mesh_area_kge(NocConfig(rows=4, cols=4))
                > mesh_area_kge(NocConfig(rows=2, cols=2)))

    def test_full_connectivity_costs_area(self):
        partial = mesh_area_kge(NocConfig())
        full = mesh_area_kge(NocConfig(full_connectivity=True))
        assert full > partial

    def test_power_monotone_in_activity(self):
        cfg = NocConfig.slim()
        assert mesh_power_mw(cfg, 0.2) < mesh_power_mw(cfg, 1.0)
        with pytest.raises(ValueError):
            mesh_power_mw(cfg, 2.0)


class TestTechConversions:
    def test_kge_mm2_roundtrip(self):
        assert mm2_to_kge(kge_to_mm2(500.0)) == pytest.approx(500.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            kge_to_mm2(-1)
        with pytest.raises(ValueError):
            mm2_to_kge(-1)

    def test_esp_invalid_width(self):
        with pytest.raises(ValueError):
            esp_area_kge(128)
