"""AXI4 substrate: beats, links, compliance rules, and building blocks.

These are Python behavioural models of the open-source elementary AXI
blocks the paper builds on (Kurth et al., IEEE TComp 2022): crossbar,
mux/demux and ID remapper; every link is a register slice and the
crossbar terminates unroutable requests itself.
"""

from repro.axi.beats import AddrBeat, BBeat, RBeat, WBeat
from repro.axi.id_pool import IdRemapper
from repro.axi.interleave import CompositeMap, InterleavedMap
from repro.axi.link import CHANNELS, AxiLink
from repro.axi.memory_map import MemoryMap, Region
from repro.axi.monitor import LinkMonitor
from repro.axi.transaction import Burst, Transfer, beat_sizes, split_transfer
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
from repro.axi.xbar import (
    ERROR_PORT,
    AxiCrossbar,
    ConnectivityError,
    make_demux,
    make_mux,
)

__all__ = [
    "AddrBeat",
    "AxiCrossbar",
    "AxiLink",
    "BBeat",
    "BOUNDARY_4K",
    "Burst",
    "BurstType",
    "CHANNELS",
    "CompositeMap",
    "ConnectivityError",
    "InterleavedMap",
    "ERROR_PORT",
    "IdRemapper",
    "LinkMonitor",
    "MAX_BURST_BEATS",
    "MemoryMap",
    "RBeat",
    "Region",
    "Resp",
    "Transfer",
    "WBeat",
    "beat_sizes",
    "make_demux",
    "make_mux",
    "split_transfer",
    "validate_addr_width",
    "validate_data_width",
    "validate_id_width",
    "validate_mot",
]
