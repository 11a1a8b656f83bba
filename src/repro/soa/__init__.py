"""Structure-of-arrays (SoA) hot-path kernels (DESIGN.md §11).

The ``kernel="soa"`` backend of :class:`~repro.noc.network.NocNetwork`
and the production stepper of
:class:`~repro.baseline.network.PacketMesh` replace per-object per-beat
dispatch with fused batched steppers over flattened state:

* :mod:`repro.soa.channel` — AXI W/B/R channel entries packed into
  single machine integers held in flat queues (no beat objects, no
  ``(ready, item)`` tuples on the hot channels);
* :mod:`repro.soa.fabric` — one fused machine stepping every crosspoint
  and endpoint of a :class:`NocNetwork` in registration order;
* :mod:`repro.soa.baseline` — two-pass request-mask switch allocation
  for the packet-baseline routers.

All backends are bit-identical to the ``always_step=True`` reference
(tests/test_soa.py mirrors the golden-equivalence methodology).
"""

from repro.soa.channel import SoaChannel

__all__ = ["SoaChannel"]
