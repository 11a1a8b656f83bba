"""DNN layer shapes and their data footprints.

The DNN traffic generator needs, per layer: weight bytes and
input/output activation bytes — enough to derive the DMA transfer
sizes that shape NoC traffic.  All tensors are int8
(1 byte/element), the deployment datatype of the edge platforms the
paper targets.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Bytes per tensor element (int8 deployment).
BYTES_PER_ELEM = 1


@dataclass(frozen=True)
class ConvLayer:
    """A 2D convolution layer (optionally strided)."""

    name: str
    in_ch: int
    out_ch: int
    kernel: int
    stride: int
    in_h: int
    in_w: int
    padding: int = 1

    def __post_init__(self) -> None:
        for field in ("in_ch", "out_ch", "kernel", "stride", "in_h", "in_w"):
            if getattr(self, field) < 1:
                raise ValueError(f"{self.name}: {field} must be >= 1")

    @property
    def out_h(self) -> int:
        return (self.in_h + 2 * self.padding - self.kernel) // self.stride + 1

    @property
    def out_w(self) -> int:
        return (self.in_w + 2 * self.padding - self.kernel) // self.stride + 1

    @property
    def weight_bytes(self) -> int:
        return (self.out_ch * self.in_ch * self.kernel * self.kernel
                * BYTES_PER_ELEM)

    @property
    def in_act_bytes(self) -> int:
        return self.in_ch * self.in_h * self.in_w * BYTES_PER_ELEM

    @property
    def out_act_bytes(self) -> int:
        return self.out_ch * self.out_h * self.out_w * BYTES_PER_ELEM


@dataclass(frozen=True)
class FcLayer:
    """A fully-connected layer."""

    name: str
    in_features: int
    out_features: int

    def __post_init__(self) -> None:
        if self.in_features < 1 or self.out_features < 1:
            raise ValueError(f"{self.name}: features must be >= 1")

    @property
    def weight_bytes(self) -> int:
        return self.in_features * self.out_features * BYTES_PER_ELEM


Layer = ConvLayer | FcLayer

