"""Tests for the DNN layer model and the ResNet-34 builder."""

import pytest

from repro.traffic.dnn.layers import ConvLayer, FcLayer
from repro.traffic.dnn.resnet import (
    RESNET34_STAGES,
    conv_layers,
    resnet34,
)


def sum_weight_bytes(layers) -> int:
    return sum(layer.weight_bytes for layer in layers)


def sum_in_act_bytes(layers) -> int:
    return sum(layer.in_act_bytes for layer in layers)


class TestConvLayer:
    def test_shapes_and_counts(self):
        conv = ConvLayer("c", in_ch=3, out_ch=8, kernel=3, stride=1,
                         in_h=32, in_w=32, padding=1)
        assert conv.out_h == 32 and conv.out_w == 32
        assert conv.weight_bytes == 8 * 3 * 9
        assert conv.in_act_bytes == 3 * 32 * 32
        assert conv.out_act_bytes == 8 * 32 * 32

    def test_strided_output(self):
        conv = ConvLayer("c", in_ch=4, out_ch=4, kernel=3, stride=2,
                         in_h=56, in_w=56, padding=1)
        assert conv.out_h == 28

    def test_seven_by_seven_stem(self):
        stem = ConvLayer("stem", in_ch=3, out_ch=64, kernel=7, stride=2,
                         in_h=224, in_w=224, padding=3)
        assert stem.out_h == 112

    def test_validation(self):
        with pytest.raises(ValueError):
            ConvLayer("c", in_ch=0, out_ch=1, kernel=3, stride=1,
                      in_h=8, in_w=8)


class TestFcLayer:
    def test_counts(self):
        fc = FcLayer("fc", in_features=512, out_features=1000)
        assert fc.weight_bytes == 512_000

    def test_validation(self):
        with pytest.raises(ValueError):
            FcLayer("fc", in_features=0, out_features=10)


class TestResNet34:
    def test_structure(self):
        layers = resnet34(shrink=0.0)
        convs = [l for l in layers if isinstance(l, ConvLayer)]
        # 1 stem + 2×(3+4+6+3) block convs + 3 downsample projections.
        assert len(convs) == 1 + 2 * sum(RESNET34_STAGES) + 3
        assert isinstance(layers[-1], FcLayer)

    def test_unshrunk_parameter_count_plausible(self):
        """ResNet-34 has ≈21.3M conv+fc weights (int8 → bytes)."""
        weights = sum_weight_bytes(resnet34(shrink=0.0))
        assert 19e6 < weights < 23e6

    def test_unshrunk_weight_bytes_and_last_conv(self):
        """Unshrunk at 224×224: 21 779 648 int8 weights, and the last
        conv layer maps a 7×7 map to a 7×7 map."""
        assert sum_weight_bytes(resnet34(shrink=0.0)) == 21_779_648
        last = conv_layers(shrink=0.0)[-1]
        assert (last.in_h, last.in_w, last.out_h, last.out_w) == (7,) * 4

    def test_shrink_reduces_size_monotonically(self):
        sizes = [sum_weight_bytes(resnet34(shrink=s))
                 for s in (0.0, 0.5, 0.9)]
        assert sizes[0] > sizes[1] > sizes[2]

    def test_ninety_percent_shrink_scale(self):
        """90% shrink ⇒ ~1% of the weights (both channel dims × 0.1)."""
        full = sum_weight_bytes(resnet34(shrink=0.0))
        tiny = sum_weight_bytes(resnet34(shrink=0.9))
        assert tiny < 0.05 * full

    def test_spatial_dims_chain_consistently(self):
        convs = conv_layers(shrink=0.9)
        for prev, cur in zip(convs, convs[1:]):
            if "downsample" in cur.name or prev.name == "conv1":
                # A max-pool sits between the stem and stage 1.
                continue
            assert cur.in_h in (prev.out_h, prev.out_h * cur.stride), (
                f"{prev.name} -> {cur.name}")

    def test_input_size_variants(self):
        small = resnet34(shrink=0.9, input_hw=112)
        big = resnet34(shrink=0.9, input_hw=224)
        convs = [layers[:-1] for layers in (small, big)]
        assert sum_in_act_bytes(convs[0]) < sum_in_act_bytes(convs[1])
        assert convs[0][-1].out_h < convs[1][-1].out_h

    def test_invalid_shrink(self):
        with pytest.raises(ValueError):
            resnet34(shrink=1.0)
