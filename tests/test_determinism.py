"""Reproducibility: identical seeds give byte-identical simulations."""

from repro.noc.config import NocConfig
from repro.noc.network import NocNetwork
from repro.traffic.synthetic import MAX_TWO_HOP, build_synthetic_network, synthetic_traffic
from repro.traffic.uniform import uniform_random
from repro.baseline.network import PacketMesh, PacketMeshConfig


def fingerprint(net):
    return (net.total_bytes(), net.transfers_completed(), net.sim.now,
            tuple(sorted(net.counters.as_dict().items())))


def test_uniform_traffic_bitwise_reproducible():
    prints = []
    for _ in range(2):
        net = NocNetwork(NocConfig.slim())
        uniform_random(net, load=0.7, max_burst_bytes=3000,
                       seed=123).install()
        net.run(6000)
        prints.append(fingerprint(net))
    assert prints[0] == prints[1]


def test_synthetic_traffic_reproducible():
    prints = []
    for _ in range(2):
        net, _ = build_synthetic_network(NocConfig.slim(), MAX_TWO_HOP)
        synthetic_traffic(net, MAX_TWO_HOP, load=1.0, max_burst_bytes=1000,
                          seed=9).install()
        net.run(5000)
        prints.append(fingerprint(net))
    assert prints[0] == prints[1]


def test_baseline_reproducible():
    prints = []
    for _ in range(2):
        mesh = PacketMesh(PacketMeshConfig(n_vcs=2, buf_depth=8),
                          injection_rate=0.3, seed=77)
        mesh.run(5000)
        prints.append((mesh.flits_received, mesh.packets_received,
                       mesh.flits_offered))
    assert prints[0] == prints[1]


def test_seed_changes_results():
    nets = []
    for seed in (1, 2):
        net = NocNetwork(NocConfig.slim())
        uniform_random(net, load=0.7, max_burst_bytes=3000,
                       seed=seed).install()
        net.run(6000)
        nets.append(net.total_bytes())
    assert nets[0] != nets[1]

