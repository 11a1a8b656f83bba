"""Tests for the DMA engine and memory slave endpoint models."""

import pytest

from repro.axi.beats import BBeat, RBeat
from repro.axi.transaction import Transfer
from repro.endpoints.scoreboard import Scoreboard
from repro.faults import FaultSpec
from repro.noc.config import NocConfig
from repro.noc.network import NocNetwork


#: Arms the DMA's transaction-lifetime guards; the link fault itself
#: never fires.
WATCHDOG = FaultSpec(links=[{"src": 0, "dst": 1, "start": 10**9}],
                     txn_timeout=100)


def tiny_net(**cfg_kwargs):
    cfg = NocConfig(rows=2, cols=2, **cfg_kwargs)
    return NocNetwork(cfg)


class TestDmaEngine:
    def test_splits_transfer_into_axi_bursts(self):
        net = tiny_net()
        # 2100 bytes at 4 B/beat = 525 beats → 3 bursts (256+256+13),
        # subject to 4 KiB alignment of the region base (aligned here).
        net.dmas[0].submit(Transfer(src=0, addr=net.addr_of(3, 0),
                                    nbytes=2100, is_read=False))
        net.drain(max_cycles=20_000)
        assert net.memories[3].bursts_written == 3
        assert net.memories[3].bytes_written == 2100

    def test_outstanding_respects_mot(self):
        net = tiny_net(max_outstanding=2)
        dma = net.dmas[0]
        for _ in range(6):
            dma.submit(Transfer(src=0, addr=net.addr_of(1, 0), nbytes=1024,
                                is_read=False))
        peak = 0
        for _ in range(6000):
            net.run(1)
            peak = max(peak, len(dma._wr_out))
            if dma.idle():
                break
        assert peak <= 2

    def test_latency_recorded_per_transfer(self):
        net = tiny_net()
        for _ in range(3):
            net.dmas[0].submit(Transfer(src=0, addr=net.addr_of(2, 0),
                                        nbytes=64, is_read=True))
        net.drain(max_cycles=20_000)
        assert net.dmas[0].latency_stats.count == 3
        assert net.dmas[0].latency_stats.min > 0

    def test_transfers_complete_in_order_per_dma(self):
        net = tiny_net()
        completions = []
        for k in range(4):
            net.dmas[0].submit(Transfer(
                src=0, addr=net.addr_of(3, 0), nbytes=128, is_read=False,
                on_complete=lambda now, k=k: completions.append(k)))
        net.drain(max_cycles=30_000)
        assert completions == [0, 1, 2, 3]

    def test_next_event_names_only_future_cycles(self):
        """With work queued, an elapsed descriptor gap is not an event:
        the kernel clamps a past wake to ``now + 1``, which would re-wake
        an engine blocked behind a full FIFO every cycle."""
        net = tiny_net()
        dma = net.dmas[0]
        dma.submit(Transfer(src=0, addr=net.addr_of(3, 0), nbytes=4096,
                            is_read=False))  # four bursts
        net.run(3)  # split started, first burst out
        gap_end = dma._idle_until
        assert dma._cur is not None and gap_end > net.sim.now
        assert dma.next_event(net.sim.now) == gap_end
        assert dma.next_event(gap_end - 1) == gap_end
        assert dma.next_event(gap_end) is None
        assert dma.next_event(gap_end + 100) is None

    def test_engine_behind_a_full_fifo_sleeps_until_a_pop(self):
        """Back-pressure is not polled: with the W channel full the
        engine leaves the active set, and the crosspoint's next pop
        brings it back."""
        net = tiny_net()
        dma, xp = net.dmas[0], net.xps[0]
        real_step, xp.step = xp.step, lambda now: True  # crosspoint stalls
        dma.submit(Transfer(src=0, addr=net.addr_of(3, 0), nbytes=1024,
                            is_read=False))
        net.run(50)
        assert not dma.link.w.can_push()
        assert net.sim.blocked() == [dma] and net.sim.active_count == 0
        assert dma.blocked_on() == "full: tile0.dma->xp0.w"
        before = net.sim.steps
        net.run(1000)
        assert net.sim.steps == before  # nobody polled
        del xp.step
        assert xp.step == real_step
        xp.wake()
        net.drain(max_cycles=20_000)
        assert net.memories[3].bytes_written == 1024

    def test_engine_out_of_mot_room_sleeps_and_charges_the_stall_on_wake(
            self):
        """An ID/MOT stall is an interval, not a poll: the engine leaves
        the active set, a read of the counter between runs finds the
        cycles slept so far on it, and both schedulers count the same."""
        stalls = {}
        for always_step in (False, True):
            net = NocNetwork(NocConfig(rows=2, cols=2, max_outstanding=1),
                             always_step=always_step)
            dma = net.dmas[0]
            net.memories[3].step = lambda now: True  # never answers
            for _ in range(2):
                dma.submit(Transfer(src=0, addr=net.addr_of(3, 0), nbytes=64,
                                    is_read=True))
            net.run(100)
            assert len(dma._rd_out) == 1 and not dma._pending
            seen = [net.counters["dma_rd_mot_stall"]]
            before = net.sim.steps
            for _ in range(3):
                net.run(250)
                seen.append(net.counters["dma_rd_mot_stall"])
            assert [b - a for a, b in zip(seen, seen[1:])] == [250] * 3
            if not always_step:
                assert net.sim.steps == before  # nobody polled
                assert dma in net.sim.blocked()
                assert dma.blocked_on().startswith("dma_rd_mot_stall since ")
            stalls[always_step] = seen
        assert stalls[False] == stalls[True]

    @pytest.mark.parametrize("armed", [False, True])
    @pytest.mark.parametrize("beat, message", [
        (BBeat(9), "tile0.dma: response for unknown id 9"),
        (RBeat(9, True, 4), "tile0.dma: R beat for unknown id 9")])
    def test_response_nobody_waits_for_is_a_modelling_bug(self, armed, beat,
                                                           message):
        """The one response sink, armed or not: an id that is neither
        outstanding nor a zombie fails loudly, as it always did."""
        net = tiny_net() if not armed else NocNetwork(
            NocConfig(rows=2, cols=2), faults=WATCHDOG)
        channel = net.dmas[0].link.b if type(beat) is BBeat \
            else net.dmas[0].link.r
        channel.push(beat, net.sim.now)
        with pytest.raises(AssertionError, match=message):
            net.run(3)

    @pytest.mark.parametrize("is_read", [False, True])
    def test_late_response_for_an_aborted_burst_frees_its_id(self, is_read):
        """Only an armed engine can make a zombie: the watchdog aborts
        the burst and quarantines its id; the response that trickles in
        later is absorbed and the id is free again."""
        net = NocNetwork(NocConfig(rows=2, cols=2), faults=WATCHDOG)
        dma = net.dmas[0]
        net.memories[3].step = lambda now: True  # never answers
        dma.submit(Transfer(src=0, addr=net.addr_of(3, 0), nbytes=8,
                            is_read=is_read))
        net.run(200)  # issued, orphaned at the deadline, not retried
        zombies = dma._rd_zombie if is_read else dma._wr_zombie
        free = dma._rd_free if is_read else dma._wr_free
        assert list(zombies) == [0] and 0 not in free
        assert net.fault_stats.orphaned == 1
        assert not dma._wr_out and not dma._rd_out
        if is_read:
            dma.link.r.push(RBeat(0, False, 4), net.sim.now)
            net.run(3)
            assert list(zombies) == [0]  # only the tail ends the burst
            dma.link.r.push(RBeat(0, True, 4), net.sim.now)
        else:
            dma.link.b.push(BBeat(0), net.sim.now)
        net.run(3)
        assert not zombies and 0 in free
        assert dma.bytes_read == 0 and dma.errors == 0

    def test_queue_depth_visible(self):
        net = tiny_net()
        for _ in range(5):
            net.dmas[0].submit(Transfer(src=0, addr=net.addr_of(1, 0),
                                        nbytes=8, is_read=False))
        assert net.dmas[0].backlog() == 5


class TestMemorySlave:
    def test_latency_delays_b_response(self):
        fast = tiny_net(memory_latency=0)
        slow = tiny_net(memory_latency=40)
        for net in (fast, slow):
            net.dmas[0].submit(Transfer(src=0, addr=net.addr_of(1, 0),
                                        nbytes=4, is_read=False))
            net.drain(max_cycles=20_000)
        assert slow.sim.now > fast.sim.now

    def test_read_data_latency(self):
        fast = tiny_net(memory_latency=0)
        slow = tiny_net(memory_latency=40)
        for net in (fast, slow):
            net.dmas[0].submit(Transfer(src=0, addr=net.addr_of(1, 0),
                                        nbytes=4, is_read=True))
            net.drain(max_cycles=20_000)
        assert slow.sim.now > fast.sim.now

    def test_scoreboard_records_bursts(self):
        cfg = NocConfig(rows=2, cols=2)
        sb = Scoreboard()
        net = NocNetwork(cfg, scoreboard=sb)
        net.dmas[0].submit(Transfer(src=0, addr=net.addr_of(3, 0),
                                    nbytes=2100, is_read=False))
        net.dmas[1].submit(Transfer(src=1, addr=net.addr_of(3, 4096),
                                    nbytes=100, is_read=False))
        net.drain(max_cycles=30_000)
        assert sb.bytes_written_to(3) == 2200
        assert sb.bursts_written_to(3) == 4
        assert sum(sb.write_size_histogram().values()) == 4

    def test_memory_idle_after_drain(self):
        net = tiny_net()
        net.dmas[0].submit(Transfer(src=0, addr=net.addr_of(1, 0),
                                    nbytes=4096, is_read=True))
        net.drain(max_cycles=30_000)
        assert all(m.idle() for m in net.memories if m is not None)

    def test_reads_served(self):
        net = tiny_net()
        net.dmas[2].submit(Transfer(src=2, addr=net.addr_of(0, 64),
                                    nbytes=1500, is_read=True))
        net.drain(max_cycles=30_000)
        assert net.memories[0].bursts_read == 2  # 375 beats → 256 + 119
        assert net.dmas[2].bytes_read == 1500

    def test_memory_behind_a_full_r_channel_sleeps_until_a_pop(self):
        """A due R beat behind a full channel is not polled: the memory
        leaves the active set and the crosspoint's next pop brings it
        back."""
        net = tiny_net()
        mem, xp = net.memories[3], net.xps[3]
        net.dmas[0].submit(Transfer(src=0, addr=net.addr_of(3, 0),
                                    nbytes=1024, is_read=True))
        net.run(10_000, until=lambda now: mem.link.r.pushed > 0)
        real_step, xp.step = xp.step, lambda now: True  # crosspoint stalls
        net.run(50)
        assert not mem.link.r.can_push()
        assert mem in net.sim.blocked() and net.sim.active_count == 0
        assert mem.blocked_on() == "full: xp3->tile3.mem.r"
        before = net.sim.steps
        net.run(1000)
        assert net.sim.steps == before  # nobody polled
        del xp.step
        assert xp.step == real_step
        xp.wake()
        net.drain(max_cycles=20_000)
        assert net.dmas[0].bytes_read == 1024

    def test_memory_waiting_for_w_data_sleeps_until_a_push(self):
        """A W burst mid-reception with nothing on the W channel waits
        for a push, which wakes the memory: it does not poll either."""
        net = tiny_net()
        mem, xp = net.memories[3], net.xps[3]
        net.dmas[0].submit(Transfer(src=0, addr=net.addr_of(3, 0),
                                    nbytes=1024, is_read=False))
        net.run(10_000, until=lambda now: mem.link.w.popped > 0)
        real_step, xp.step = xp.step, lambda now: True  # crosspoint stalls
        net.run(50)
        assert mem.link.idle() and 0 < mem.bytes_written < 1024
        assert mem in net.sim.blocked()
        assert mem.blocked_on() == "W data of 1 open bursts"
        before = net.sim.steps
        net.run(1000)
        assert net.sim.steps == before  # nobody polled
        del xp.step
        assert xp.step == real_step
        xp.wake()
        net.drain(max_cycles=20_000)
        assert mem.bytes_written == 1024
