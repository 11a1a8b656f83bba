"""DNN workload traffic generation (the GVSoC substitute): the ResNet-34
layer model, per-core command scripts and the three §IV-C workloads."""

from repro.traffic.dnn.layers import (
    BYTES_PER_ELEM,
    ConvLayer,
    FcLayer,
    Layer,
)
from repro.traffic.dnn.resnet import RESNET34_CHANNELS, RESNET34_STAGES, conv_layers, resnet34
from repro.traffic.dnn.script import CoreScript, Event, install_scripts
from repro.traffic.dnn.workloads import (
    WORKLOADS,
    DnnWorkload,
    distributed_training,
    parallel_conv,
    pipelined_conv,
)

__all__ = [
    "BYTES_PER_ELEM",
    "ConvLayer",
    "CoreScript",
    "DnnWorkload",
    "Event",
    "FcLayer",
    "Layer",
    "RESNET34_CHANNELS",
    "RESNET34_STAGES",
    "WORKLOADS",
    "conv_layers",
    "distributed_training",
    "install_scripts",
    "parallel_conv",
    "pipelined_conv",
    "resnet34",
]
