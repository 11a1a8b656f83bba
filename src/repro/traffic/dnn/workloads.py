"""The three DNN workloads of §IV-C as per-core command scripts.

This module is the GVSoC substitute (DESIGN.md §2): GVSoC runs the real
software stack and extracts traffic traces for the RTL simulation; we
generate the same three communication structures directly from the
ResNet-34 layer table and the mapping strategy:

a) **Distributed training** — data-parallel training on 16 cores: every
   core reads the replicated weights from the shared L2 (L2→L1),
   computes forward/backward locally, then ring-all-reduces gradients
   with its ring neighbour (L1→L1) and checkpoints activations (L1→L2).
   The paper's "mix of L2 to L1, L1 to L2, and L1 to L1 transfers".
b) **Parallelized convolution** — layer-by-layer inference, every layer
   tiled across all 16 cores: tile and weight reads from L2, tile writes
   back to L2, a barrier between layers.  Pure L2↔L1; no inter-core
   traffic.
c) **Pipelined convolution** — depth-first inference: consecutive layer
   groups mapped to consecutive cores along a snake through the mesh;
   activation tiles flow core-to-core (L1→L1), only the first/last cores
   touch L2.

The scripts replay pure communication, as the paper's trace-driven RTL
evaluation does (its reported throughputs are NoC-bound).  Scripts
loop, so workloads are measured in steady state over a fixed window.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.noc.config import NocConfig
from repro.noc.network import NocNetwork, TileSpec
from repro.noc.topology import Mesh2D
from repro.traffic.dnn.layers import ConvLayer, Layer
from repro.traffic.dnn.resnet import conv_layers, resnet34
from repro.traffic.dnn.script import CoreScript, Event, install_scripts

#: Grid position of the shared L2 tile (matches the synthetic hot spot).
L2_COORDS = (2, 1)
#: Pipelined convolution: the tiles each image's activations are cut
#: into, and the tiles in flight per stage (multi-buffering, the
#: standard depth-first pipelining that keeps every link streaming).
PIPE_TILES_PER_IMAGE = 8
PIPE_BUFFERS = 4


@dataclass
class DnnWorkload:
    """A ready-to-install workload: tile placement plus per-core scripts."""

    key: str
    tiles: list[TileSpec]
    scripts: dict[int, list[tuple]]
    l2_endpoint: int

    def build_network(self, cfg: NocConfig, **net_kwargs) -> NocNetwork:
        return NocNetwork(cfg, tiles=self.tiles, **net_kwargs)

    def install(self, net: NocNetwork) -> list[CoreScript]:
        return install_scripts(net, self.scripts)


def _dnn_tiles(cfg: NocConfig) -> tuple[list[TileSpec], int]:
    """16 compute tiles (DMA + L1) plus one shared L2 slave tile."""
    topo = Mesh2D(cfg.rows, cfg.cols)
    tiles = [TileSpec(node=n, name=f"core{n}") for n in range(cfg.n_nodes)]
    l2_node = topo.node(*L2_COORDS) if cfg.rows >= 2 and cfg.cols >= 3 else 0
    tiles.append(TileSpec(node=l2_node, name="l2", has_dma=False,
                          has_memory=True, memory_bytes=64 << 20))
    return tiles, cfg.n_nodes


def _snake_order(topo: Mesh2D) -> list[int]:
    """Boustrophedon node order so consecutive cores are mesh neighbours
    (the Fig. 7c arrangement: 0..3 / 7..4 / 8..11 / 15..12)."""
    order = []
    for y in range(topo.rows):
        xs = range(topo.cols) if y % 2 == 0 else range(topo.cols - 1, -1, -1)
        order.extend(topo.node(x, y) for x in xs)
    return order


# ----------------------------------------------------------------------
# a) distributed training
# ----------------------------------------------------------------------
def distributed_training(cfg: NocConfig, *, shrink: float = 0.9,
                         input_hw: int = 224) -> DnnWorkload:
    """Data-parallel ResNet-34 training on all cores (Fig. 7a).

    The model is replicated across cores ("Model Replication") with
    weights resident in L1 (the shrunk ResNet-34 fits).  Per batch each
    core

    * reads its minibatch shard from L2 (L2→L1),
    * computes forward and backward locally ("Independent FWDs/BWDs" —
      activations stay in L1),
    * joins a hierarchical gradient reduction along the mesh snake:
      log₂(N) rounds of L1→L1 gradient sends towards the root core
      ("Weight Updates (Reduction Step)"),
    * the root writes the updated model to the shared L2 (L1→L2), and
    * every core reads the new weights back (L2→L1 — the replication).

    This produces the paper's "mix of L2 to L1 (core), L1 (core) to L2,
    and L1 (core) to L1 (core) transfers".
    """
    tiles, l2 = _dnn_tiles(cfg)
    layers = resnet34(shrink=shrink, input_hw=input_hw)
    n_cores = cfg.n_nodes
    topo = Mesh2D(cfg.rows, cfg.cols)
    chain = _snake_order(topo)
    snake_pos = {core: k for k, core in enumerate(chain)}
    weight_bytes = sum(l.weight_bytes for l in layers)
    input_bytes = max(1, layers[0].in_act_bytes // n_cores)
    weights_off = 0
    input_off = _round_up(weight_bytes, 4096)
    n_rounds = max(1, (n_cores - 1).bit_length())
    events = {f"red{k}_{r}": Event(f"red{k}_{r}")
              for k in range(n_cores) for r in range(n_rounds)}
    ev_weights = Event("weights_ready")
    scripts: dict[int, list[tuple]] = {}
    for core in range(n_cores):
        pos = snake_pos[core]
        ops: list[tuple] = []
        # Minibatch shard in; forward and backward stay in L1.
        ops.append(("read", l2, input_off, input_bytes))
        # Hierarchical reduction along the snake: in round r, positions
        # with bit r set send their (partially reduced) gradients to the
        # position 2**r below and drop out; receivers wait, reduce, and
        # continue.
        for r in range(n_rounds):
            stride = 1 << r
            if pos % (2 * stride) == stride:
                partner = chain[pos - stride]
                ops.append(("write_async", partner, 0, weight_bytes,
                            events[f"red{snake_pos[partner]}_{r}"]))
                ops.append(("drain",))
                break  # sent up the tree; wait for the new model below
            if pos % (2 * stride) == 0 and pos + stride < n_cores:
                ops.append(("await_next", events[f"red{pos}_{r}"], 1))
        if pos == 0:
            # Root: write the updated model to L2 and publish it.
            ops.append(("write", l2, weights_off, weight_bytes))
            ops.append(("signal", ev_weights))
        # Model replication: everyone pulls the new weights from L2.
        ops.append(("await_next", ev_weights, 1))
        ops.append(("read", l2, weights_off, weight_bytes))
        scripts[core] = ops
    return DnnWorkload(key="train", tiles=tiles, scripts=scripts,
                       l2_endpoint=l2)


# ----------------------------------------------------------------------
# b) parallelized convolution
# ----------------------------------------------------------------------
def parallel_conv(cfg: NocConfig, *, shrink: float = 0.9,
                  input_hw: int = 224) -> DnnWorkload:
    """Layer-parallel CNN inference: every layer tiled over all cores
    (Fig. 7b) — pure L2↔L1 traffic, a barrier between layers."""
    tiles, l2 = _dnn_tiles(cfg)
    layers = conv_layers(shrink=shrink, input_hw=input_hw)
    n_cores = cfg.n_nodes
    l2_offsets = _l2_layout(layers)
    barrier = Event("layer_barrier")
    scripts: dict[int, list[tuple]] = {}
    for core in range(n_cores):
        ops: list[tuple] = []
        for layer in layers:
            in_tile = max(1, layer.in_act_bytes // n_cores)
            out_tile = max(1, layer.out_act_bytes // n_cores)
            ops.append(("read", l2, l2_offsets[layer.name], in_tile))
            ops.append(("read", l2, l2_offsets[layer.name],
                        layer.weight_bytes))
            ops.append(("write", l2, l2_offsets[layer.name], out_tile))
            ops.append(("signal", barrier))
            ops.append(("await_next", barrier, n_cores))
        scripts[core] = ops
    return DnnWorkload(key="par", tiles=tiles, scripts=scripts,
                       l2_endpoint=l2)


# ----------------------------------------------------------------------
# c) pipelined convolution
# ----------------------------------------------------------------------
def pipelined_conv(cfg: NocConfig, *, shrink: float = 0.9,
                   input_hw: int = 224) -> DnnWorkload:
    """Depth-first CNN inference: layer groups chained along a mesh snake
    (Fig. 7c) — predominantly L1→L1 neighbour traffic, with
    :data:`PIPE_BUFFERS` tiles in flight per stage."""
    tiles, l2 = _dnn_tiles(cfg)
    layers = conv_layers(shrink=shrink, input_hw=input_hw)
    topo = Mesh2D(cfg.rows, cfg.cols)
    chain = _snake_order(topo)
    n_stages = len(chain)
    groups = _balance_layers(layers, n_stages)
    events = {f"in{k}": Event(f"in{k}") for k in range(n_stages)}
    scripts: dict[int, list[tuple]] = {}
    for stage, core in enumerate(chain):
        group = groups[stage]
        out_bytes = group[-1].out_act_bytes if group else 1
        in_bytes = group[0].in_act_bytes if group else 1
        tile_out = max(1, out_bytes // PIPE_TILES_PER_IMAGE)
        tile_in = max(1, in_bytes // PIPE_TILES_PER_IMAGE)
        ops: list[tuple] = []
        if stage == 0:
            ops.append(("read_async", l2, 0, tile_in, None))
        else:
            ops.append(("await_next", events[f"in{stage}"], 1))
        if stage == n_stages - 1:
            ops.append(("write_async", l2, 0, tile_out, None))
        else:
            next_core = chain[stage + 1]
            ops.append(("write_async", next_core, 0, tile_out,
                        events[f"in{stage + 1}"]))
        ops.append(("throttle", PIPE_BUFFERS))
        scripts[core] = ops
    return DnnWorkload(key="pipe", tiles=tiles, scripts=scripts,
                       l2_endpoint=l2)


WORKLOADS = {
    "train": distributed_training,
    "par": parallel_conv,
    "pipe": pipelined_conv,
}


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _l2_layout(layers: list[Layer]) -> dict[str, int]:
    """Assign every layer a disjoint L2 offset for weights/activations."""
    offsets: dict[str, int] = {}
    cursor = 0
    for layer in layers:
        offsets[layer.name] = cursor
        need = layer.weight_bytes
        if isinstance(layer, ConvLayer):
            need = max(need, layer.in_act_bytes, layer.out_act_bytes)
        cursor += _round_up(need, 4096)
    return offsets


def _round_up(x: int, quantum: int) -> int:
    return (x + quantum - 1) // quantum * quantum


def _balance_layers(layers: list[ConvLayer],
                    n_stages: int) -> list[list[ConvLayer]]:
    """Greedy contiguous partition of layers into groups balanced by
    the activation bytes they emit: that equalises link load along the
    pipeline."""
    if n_stages < 1:
        raise ValueError("need at least one stage")
    if len(layers) < n_stages:
        raise ValueError(
            f"cannot spread {len(layers)} layers over {n_stages} stages")
    total = sum(l.out_act_bytes for l in layers)
    target = total / n_stages
    groups: list[list[ConvLayer]] = [[] for _ in range(n_stages)]
    stage = 0
    acc = 0
    for idx, layer in enumerate(layers):
        remaining = len(layers) - idx  # layers left, including this one
        stages_after = n_stages - stage - 1
        if groups[stage] and stages_after > 0:
            # Must advance when later stages need one layer each; may
            # advance when the current stage is full enough.
            must = remaining == stages_after
            may = (acc + layer.out_act_bytes / 2 > target
                   and remaining > stages_after)
            if must or may:
                stage += 1
                acc = 0
        groups[stage].append(layer)
        acc += layer.out_act_bytes
    return groups
