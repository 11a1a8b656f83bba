"""Benchmark: regenerate Fig. 8 (DNN workloads on the slim and wide NoC)."""


def test_fig8(render):
    """DNN workloads on the slim and wide NoC: pipelined convolution
    (core-to-core) is the fastest workload on both NoCs, the wide NoC
    scales every workload up by roughly the DW ratio, and parallel
    convolution is bounded by the single shared-L2 port."""
    result = render("fig8")
    slim, wide = ({row[0]: row[1] for row in section.rows}
                  for section in result.sections[:2])

    for values in (slim, wide):
        assert values["Pipelined Convolution"] > values["Parallelized Convolution"]
        assert values["Pipelined Convolution"] > values["Distributed Training"]

    # Wide NoC benefits every workload substantially (paper: ~16x).
    for key in slim:
        assert wide[key] > 4 * slim[key], f"{key} did not scale with DW"

    # Parallel conv is L2-port bound on slim: it cannot exceed the
    # duplex bandwidth of one DW=32 endpoint (8 GB/s ≈ 7.45 GiB/s).
    assert slim["Parallelized Convolution"] < 7.5
