"""Tests for NocConfig (Table I) validation and helpers."""

import pytest

from repro.baseline.config import PacketMeshConfig
from repro.noc.config import NocConfig


class TestValidation:
    def test_defaults_valid(self):
        cfg = NocConfig()
        assert cfg.rows == 4 and cfg.cols == 4
        assert cfg.beat_bytes == 4
        assert cfg.n_nodes == 16

    @pytest.mark.parametrize("field,value", [
        ("rows", 0),
        ("data_width", 4),
        ("data_width", 2048),
        ("data_width", 48),  # not a power of two
        ("addr_width", 16),
        ("id_width", 0),
        ("id_width", 17),
        ("max_outstanding", 0),
        ("max_outstanding", 129),
        ("freq_hz", 0.0),
        ("dma_issue_overhead", -1),
        ("memory_latency", -1),
        ("hop_latency", 0),
    ])
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError):
            NocConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("rows", 0),
        ("cols", 0),
        ("n_vcs", 0),
        ("buf_depth", 0),
        ("freq_hz", 0.0),
    ])
    def test_packet_mesh_rejects_out_of_range(self, field, value):
        """The baseline's config is checked when a spec is built, not
        when a router or the simulator is, and names the field."""
        with pytest.raises(ValueError, match=f"{field} must be"):
            PacketMeshConfig(**{field: value})

    def test_table1_extremes_accepted(self):
        NocConfig(data_width=8, id_width=1, max_outstanding=1)
        NocConfig(data_width=1024, id_width=16, max_outstanding=128,
                  addr_width=64)


class TestHelpers:
    def test_label(self):
        assert NocConfig(addr_width=32, data_width=64,
                         id_width=2).label == "AXI_32_64_2"

    def test_from_label_roundtrip(self):
        cfg = NocConfig.from_label("AXI_64_128_8", rows=3, cols=5)
        assert cfg.addr_width == 64
        assert cfg.data_width == 128
        assert cfg.id_width == 8
        assert (cfg.rows, cfg.cols) == (3, 5)
        assert cfg.label == "AXI_64_128_8"

    def test_from_label_rejects_garbage(self):
        with pytest.raises(ValueError):
            NocConfig.from_label("PCIE_32_64_2")
        with pytest.raises(ValueError):
            NocConfig.from_label("AXI_32_64")

    def test_slim_and_wide_presets(self):
        slim = NocConfig.slim()
        wide = NocConfig.wide()
        assert slim.data_width == 32 and wide.data_width == 512
        for cfg in (slim, wide):
            assert cfg.addr_width == 32
            assert cfg.id_width == 4
            assert cfg.max_outstanding == 8

    def test_with_creates_modified_copy(self):
        cfg = NocConfig.slim()
        other = cfg.with_(data_width=128)
        assert other.data_width == 128
        assert cfg.data_width == 32

    def test_frozen(self):
        with pytest.raises(Exception):
            NocConfig().rows = 5
