"""Fault injection and resilience (DESIGN.md §10).

Declarative, seed-deterministic fault scenarios: dead and degraded
links, dead router/crosspoint ports, payload corruption surfacing as
AXI SLVERR, and endpoint recovery (end-to-end retransmission; fault-
aware rerouting in the packet baseline).
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
