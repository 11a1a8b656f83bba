"""Integration tests: the generator's modularity claim — ring and torus
networks built from the same XP blocks deliver traffic end to end."""

import pytest

from repro.axi.transaction import Transfer
from repro.noc.config import NocConfig
from repro.noc.network import NocNetwork
from repro.noc.topology import Torus2D, ring


class TestRing:
    def test_neighbour_transfers_complete(self):
        cfg = NocConfig(rows=1, cols=6)
        net = NocNetwork(cfg, topology=ring(6))
        for src in range(6):
            net.dmas[src].submit(Transfer(
                src=src, addr=net.addr_of((src + 1) % 6, 0), nbytes=512,
                is_read=False))
        net.drain(max_cycles=100_000)
        assert all(m.bytes_written == 512 for m in net.memories)

    def test_wraparound_is_shorter(self):
        """Node 0 → node 5 goes west across the wrap (1 hop), so it must
        complete no slower than 0 → 3 (3 hops east)."""
        cfg = NocConfig(rows=1, cols=6)

        def completion_time(dst):
            net = NocNetwork(cfg, topology=ring(6))
            done = []
            net.dmas[0].submit(Transfer(
                src=0, addr=net.addr_of(dst, 0), nbytes=64, is_read=False,
                on_complete=lambda now: done.append(now)))
            net.drain(max_cycles=50_000)
            return done[0]

        assert completion_time(5) <= completion_time(3)


class TestTorus:
    def test_all_to_one_completes(self):
        cfg = NocConfig(rows=3, cols=3)
        net = NocNetwork(cfg, topology=Torus2D(3, 3))
        for src in range(9):
            if src == 4:
                continue
            net.dmas[src].submit(Transfer(
                src=src, addr=net.addr_of(4, 1024 * src), nbytes=300,
                is_read=False))
        net.drain(max_cycles=100_000)
        assert net.memories[4].bytes_written == 8 * 300

    def test_reads_across_wrap(self):
        cfg = NocConfig(rows=4, cols=4)
        net = NocNetwork(cfg, topology=Torus2D(4, 4))
        # Corner to corner is 2 hops on the torus (both wraps).
        net.dmas[0].submit(Transfer(
            src=0, addr=net.addr_of(15, 0), nbytes=1000, is_read=True))
        net.drain(max_cycles=50_000)
        assert net.dmas[0].bytes_read == 1000

    def test_moderate_random_load_drains(self):
        import numpy as np
        cfg = NocConfig(rows=3, cols=3)
        net = NocNetwork(cfg, topology=Torus2D(3, 3))
        rng = np.random.default_rng(1)
        for _ in range(30):
            src = int(rng.integers(9))
            dst = int(rng.integers(9))
            net.dmas[src].submit(Transfer(
                src=src, addr=net.addr_of(dst, int(rng.integers(4096))),
                nbytes=int(rng.integers(1, 2000)),
                is_read=bool(rng.random() < 0.5)))
        net.drain(max_cycles=500_000)
        assert net.idle()


class TestConcentratedMesh:
    """§II: "in a concentrated mesh, multiple masters and slaves can
    connect to the same XP" — 16 cores on a 2×2 mesh, 4 per XP."""

    def build(self):
        from repro.noc.network import TileSpec
        cfg = NocConfig(rows=2, cols=2, id_width=4)
        tiles = [TileSpec(node=n // 4, name=f"core{n}") for n in range(16)]
        return NocNetwork(cfg, tiles=tiles)

    def test_builds_with_high_radix_xps(self):
        net = self.build()
        assert all(xp.n_in == 4 + 4 for xp in net.xps)

    def test_cross_cluster_traffic_completes(self):
        net = self.build()
        for src in range(16):
            dst = (src + 4) % 16  # always another XP's cluster
            net.dmas[src].submit(Transfer(
                src=src, addr=net.addr_of(dst, 0), nbytes=700,
                is_read=False))
        net.drain(max_cycles=200_000)
        assert sum(m.bytes_written for m in net.memories) == 16 * 700

    def test_intra_cluster_traffic_stays_local(self):
        """Same-XP transfers never touch mesh links."""
        net = self.build()
        mesh = [link for link in net.links
                if link.name.startswith("xp") and "->xp" in link.name]
        for src in range(16):
            dst = (src // 4) * 4 + (src + 1) % 4  # same cluster
            net.dmas[src].submit(Transfer(
                src=src, addr=net.addr_of(dst, 0), nbytes=400,
                is_read=False))
        net.drain(max_cycles=100_000)
        assert sum(m.bytes_written for m in net.memories) == 16 * 400
        for link in mesh:
            assert all(ch.pushed == ch.popped == len(ch) == 0
                       for ch in link.channels()), link.name


def test_butterfly_example_runs():
    """The butterfly example (indirect topology from raw blocks) is part
    of the library's modularity claim — keep it green."""
    import subprocess
    import sys
    from pathlib import Path
    script = Path(__file__).parent.parent / "examples" / "butterfly.py"
    proc = subprocess.run([sys.executable, str(script)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("(ok)") == 8
    assert "MISMATCH" not in proc.stdout
