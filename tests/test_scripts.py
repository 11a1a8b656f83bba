"""Tests for the per-core command-script execution engine."""

import pytest

from repro.noc.config import NocConfig
from repro.noc.network import NocNetwork
from repro.traffic.dnn.script import CoreScript, Event, install_scripts


def make_net():
    return NocNetwork(NocConfig(rows=2, cols=2))


class TestOps:
    def test_compute_advances_time(self):
        net = make_net()
        script = CoreScript(net, 0, [("compute", 50)], loop=False)
        net.sim.add(script)
        net.run(10)
        assert not script.done
        net.run(60)
        assert script.done

    def test_blocking_write_waits_for_completion(self):
        net = make_net()
        script = CoreScript(net, 0, [("write", 3, 0, 256)], loop=False)
        net.sim.add(script)
        net.drain(max_cycles=10_000)
        assert script.done
        assert net.memories[3].bytes_written == 256

    def test_blocking_read(self):
        net = make_net()
        script = CoreScript(net, 0, [("read", 1, 64, 100)], loop=False)
        net.sim.add(script)
        net.drain(max_cycles=10_000)
        assert script.done
        assert net.dmas[0].bytes_read == 100

    def test_signal_and_await(self):
        net = make_net()
        ev = Event("go")
        waiter = CoreScript(net, 0, [("await", ev, 1), ("write", 1, 0, 32)],
                            loop=False)
        signaller = CoreScript(net, 2, [("compute", 30), ("signal", ev)],
                               loop=False)
        net.sim.add(waiter)
        net.sim.add(signaller)
        net.run(20)
        assert net.memories[1].bytes_written == 0  # still waiting
        net.drain(max_cycles=10_000)
        assert waiter.done and net.memories[1].bytes_written == 32

    def test_await_next_consumes_per_iteration(self):
        """await_next works across loop iterations (relative counting)."""
        net = make_net()
        ev = Event("tick")
        producer = CoreScript(net, 0, [("compute", 5), ("signal", ev)],
                              loop=True)
        consumer = CoreScript(net, 1, [("await_next", ev, 1),
                                       ("write", 2, 0, 16)], loop=True)
        net.sim.add(producer)
        net.sim.add(consumer)
        net.run(400)
        # Consumer iterations track producer signals, not just the first
        # (an absolute 'await' would stick after iteration one).
        assert consumer.iterations >= 5

    def test_write_async_signals_event_on_completion(self):
        net = make_net()
        ev = Event("done")
        script = CoreScript(net, 0, [("write_async", 3, 0, 64, ev),
                                     ("drain",)], loop=False)
        net.sim.add(script)
        net.drain(max_cycles=10_000)
        assert ev.count == 1
        assert ev.last_cycle > 0

    def test_throttle_blocks_runahead(self):
        net = make_net()
        script = CoreScript(
            net, 0, [("write_async", 3, 0, 64, None), ("throttle", 2)],
            loop=True)
        net.sim.add(script)
        peak = 0
        for _ in range(300):
            net.run(1)
            peak = max(peak, net.dmas[0].backlog())
        assert peak <= 3  # throttle bound (2) + one freshly submitted

    def test_loop_false_runs_once(self):
        net = make_net()
        script = CoreScript(net, 0, [("compute", 1)], loop=False)
        net.sim.add(script)
        net.run(10)
        assert script.done and script.iterations == 1

    def test_unknown_op_raises(self):
        net = make_net()
        script = CoreScript(net, 0, [("teleport", 1)], loop=False)
        net.sim.add(script)
        with pytest.raises(ValueError):
            net.run(2)

    def test_core_without_dma_rejected(self):
        from repro.noc.network import TileSpec
        cfg = NocConfig(rows=2, cols=2)
        tiles = [TileSpec(node=0, has_dma=False, has_memory=True)] + [
            TileSpec(node=n) for n in range(1, 4)]
        net = NocNetwork(cfg, tiles=tiles)
        with pytest.raises(ValueError):
            CoreScript(net, 0, [("compute", 1)])

    def test_install_scripts(self):
        net = make_net()
        runners = install_scripts(net, {0: [("compute", 1)],
                                        1: [("compute", 2)]})
        assert len(runners) == 2 and all(r.loop for r in runners)
        for r in runners:
            r.loop = False
        net.run(10)
        assert all(r.done for r in runners)

    def test_empty_script_is_done(self):
        net = make_net()
        script = CoreScript(net, 0, [], loop=False)
        assert script.done
