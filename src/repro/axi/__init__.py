"""AXI4 substrate: beats, links, compliance rules, and building blocks.

These are Python behavioural models of the open-source elementary AXI
blocks the paper builds on (Kurth et al., IEEE TComp 2022): crossbar
(a mux or demux is a crossbar with one egress or one ingress) and ID
remapper; every link is a register slice and the crossbar terminates
unroutable requests itself.
"""

from repro.axi.beats import AddrBeat, BBeat, RBeat, WBeat
from repro.axi.id_pool import IdRemapper
from repro.axi.link import CHANNELS, AxiLink
from repro.axi.memory_map import MemoryMap, Region
from repro.axi.transaction import Burst, Transfer, split_transfer
from repro.axi.types import (
    BOUNDARY_4K,
    MAX_BURST_BEATS,
    BurstType,
    Resp,
    validate_addr_width,
    validate_data_width,
    validate_id_width,
    validate_mot,
)
from repro.axi.xbar import ERROR_PORT, AxiCrossbar, ConnectivityError

__all__ = [
    "AddrBeat",
    "AxiCrossbar",
    "AxiLink",
    "BBeat",
    "BOUNDARY_4K",
    "Burst",
    "BurstType",
    "CHANNELS",
    "ConnectivityError",
    "ERROR_PORT",
    "IdRemapper",
    "MAX_BURST_BEATS",
    "MemoryMap",
    "RBeat",
    "Region",
    "Resp",
    "Transfer",
    "WBeat",
    "split_transfer",
    "validate_addr_width",
    "validate_data_width",
    "validate_id_width",
    "validate_mot",
]
