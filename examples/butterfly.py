#!/usr/bin/env python
"""A butterfly network from the same AXI building blocks.

§II claims any regular topology — "torus, butterfly, or ring" — can be
built from the XP/crossbar primitives.  Rings and tori use the mesh
generator (`custom_topology.py`); the butterfly is an *indirect*
topology, so this example wires it directly from the public
:class:`~repro.axi.xbar.AxiCrossbar` and :class:`~repro.axi.link.AxiLink`
API: an 8-master → 8-slave 2-ary 3-fly (three stages of 2×2 switches,
destination-bit routing), with DMA engines and memories from the same
endpoint library.

This is the "plug-and-play" integration argument in miniature: no
protocol translation anywhere, just AXI links into AXI switches.
"""

from repro.axi.link import AxiLink
from repro.axi.memory_map import MemoryMap
from repro.axi.transaction import Transfer
from repro.axi.xbar import AxiCrossbar
from repro.endpoints.dma import DmaEngine
from repro.endpoints.memory import MemorySlave
from repro.sim.kernel import Simulator

N = 8           # masters = slaves = 8, switches are 2x2, 3 stages
STAGES = 3
REGION = 1 << 20


def stage_route(stage: int):
    """2-ary n-fly routing: stage k switches on destination bit
    (STAGES-1-k); out-port = that bit of the destination index."""
    shift = STAGES - 1 - stage

    def route(beat, in_port):
        if beat.dest < 0:
            return None
        return (beat.dest >> shift) & 1

    return route


def build():
    sim = Simulator()
    mmap = MemoryMap.uniform(N, region_size=REGION)
    # Switches: STAGES x (N/2) 2x2 crossbars.
    switches = [[AxiCrossbar(f"sw{s}_{k}", 2, 2, stage_route(s), id_width=4)
                 for k in range(N // 2)] for s in range(STAGES)]
    for row in switches:
        for sw in row:
            sim.add(sw)
    # Butterfly wiring between stage s and s+1.
    for s in range(STAGES - 1):
        for k in range(N // 2):
            for port in range(2):
                # Global output line index of (switch k, port).
                line = 2 * k + port
                # The butterfly permutation: exchange bit (STAGES-1-s-1)
                # with bit 0 region — classic k-ary n-fly wiring.
                span = 1 << (STAGES - 1 - s)
                group = line // (2 * span)
                offset = line % (2 * span)
                dest_line = (group * 2 * span
                             + (offset % 2) * span + offset // 2)
                nxt = switches[s + 1][dest_line // 2]
                link = AxiLink(f"sw{s}_{k}.{port}->sw{s+1}_{dest_line//2}")
                switches[s][k].connect_out(port, link)
                nxt.connect_in(dest_line % 2, link)
    # Masters into stage 0; slaves off the last stage.
    dmas, memories = [], []
    for m in range(N):
        link = AxiLink(f"dma{m}->sw0_{m // 2}")
        switches[0][m // 2].connect_in(m % 2, link)
        dma = DmaEngine(f"dma{m}", m, link, beat_bytes=8, id_width=4,
                        max_outstanding=8, issue_overhead=4,
                        memory_map=mmap)
        sim.add(dma)
        dmas.append(dma)
    for d in range(N):
        link = AxiLink(f"sw{STAGES-1}_{d // 2}->mem{d}")
        switches[STAGES - 1][d // 2].connect_out(d % 2, link)
        mem = MemorySlave(f"mem{d}", d, link, beat_bytes=8, latency=4)
        sim.add(mem)
        memories.append(mem)
    return sim, dmas, memories, switches


def main() -> None:
    sim, dmas, memories, switches = build()
    # Bit-reversal permutation traffic: classic butterfly exercise.
    sizes = {}
    for m in range(N):
        dest = int(f"{m:03b}"[::-1], 2)
        size = 1024 * (m + 1)
        sizes[dest] = size
        dmas[m].submit(Transfer(src=m, addr=dest * REGION, nbytes=size,
                                is_read=False))
    while not all(d.idle() for d in dmas) and sim.now < 100_000:
        sim.run(100)
    print("2-ary 3-fly butterfly, bit-reversal writes:")
    for d, mem in enumerate(memories):
        status = "ok" if mem.bytes_written == sizes.get(d, 0) else "MISMATCH"
        print(f"  mem{d}: {mem.bytes_written:6d} bytes ({status})")
    print(f"completed in {sim.now} cycles; "
          f"{sum(m.bytes_written for m in memories)} bytes total")


if __name__ == "__main__":
    main()
