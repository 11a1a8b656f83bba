"""Benchmark: regenerate Fig. 4 (uniform random, PATRONoC vs baseline)."""


def test_fig4(render):
    """Uniform random, PATRONoC vs baseline:

    * at ≤4 B bursts PATRONoC performs like the classical NoC,
    * throughput grows with DMA burst length,
    * at large bursts PATRONoC beats the best baseline by a large factor
      (8.4× in the paper; ≥4× asserted here to absorb quick-mode noise),
    * the better-provisioned baseline (VC=4, buf=32) beats (VC=1, buf=4).
    """
    sat = {row[0]: row[1] for row in render("fig4").sections[2].rows}
    small = sat["burst<4"]
    large = max(sat["burst<10000"], sat["burst<64000"])
    base_small = sat["noxim VC=1,Buf=4"]
    base_big = sat["noxim VC=4,Buf=32"]

    # Parity at CPU-like transfers (within 2x either way).
    assert 0.5 < small / base_small < 2.0
    # Monotone benefit from bursts.
    assert sat["burst<100"] > sat["burst<4"]
    assert large > 4 * base_big, (
        f"expected >=4x over best baseline, got {large / base_big:.1f}x")
    # VC/buffer provisioning helps the baseline.
    assert base_big > base_small
    # The headline ratio row exists and is large.
    assert sat["PATRONoC best / baseline best"] > 4
