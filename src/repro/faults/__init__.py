"""Fault injection and resilience (DESIGN.md §10).

Declarative, seed-deterministic fault scenarios: dead and degraded
links, dead router/crosspoint ports, payload corruption surfacing as
AXI SLVERR, and recovery (burst retransmission at the AXI DMA; fault-
aware rerouting on both fabrics).
"""

from repro.faults.runtime import (CorruptionModel, FaultStats, FaultTimeline,
                                  Recovery, degraded_pass, fault_rngs)
from repro.faults.spec import (RECOVERY_POLICIES, FaultSpec, LinkFault,
                               PortFault, StuckVcFault)

__all__ = [
    "RECOVERY_POLICIES",
    "CorruptionModel",
    "FaultSpec",
    "FaultStats",
    "FaultTimeline",
    "LinkFault",
    "PortFault",
    "Recovery",
    "StuckVcFault",
    "degraded_pass",
    "fault_rngs",
]
