"""Benchmark: regenerate Fig. 2 (2×2 area vs bisection BW vs ESP-NoC)."""

from repro.eval import fig2


def test_fig2(render):
    """2×2 area vs bisection bandwidth vs ESP-NoC."""
    result = render("fig2")
    points = {row[0]: (row[1], row[2]) for row in result.sections[0].rows}
    esp = {row[0]: (row[1], row[2]) for row in result.sections[1].rows}

    # Anchors from the paper text.
    for label, kge in fig2.PAPER_AREAS.items():
        assert abs(points[label][0] - kge) < 1.0

    # Area grows monotonically with DW at fixed AW.
    dw_order = ["AXI_32_32_2", "AXI_32_64_2", "AXI_32_128_2", "AXI_32_512_2"]
    areas = [points[k][0] for k in dw_order]
    assert areas == sorted(areas)

    # PATRONoC sits above the ESP Pareto line: better Gbps/kGE at the
    # comparison point, for both ESP flit widths.
    ours = points["AXI_32_64_2"]
    eff = ours[1] / ours[0]
    for name, (area, bw) in esp.items():
        assert eff > bw / area, f"not Pareto-better than {name}"

    # The 34 % headline is reproduced.
    headline = {row[0]: row[1] for row in result.sections[2].rows}
    assert headline["PATRONoC area-efficiency gain"] == "34%"
