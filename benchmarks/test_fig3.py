"""Benchmark: regenerate Fig. 3 (4×4 area scaling, MOT/area tradeoff)."""


def test_fig3(render):
    """4×4 scaling, MOT/area tradeoff."""
    result = render("fig3")
    left = {row[0]: (row[1], row[2]) for row in result.sections[0].rows}
    # 4x4 DW=64 lands at the paper's ~1000 kGE anchor.
    assert abs(left["AXI_32_64_4"][0] - 1000.0) < 20.0
    # Bandwidth doubles with DW; area grows sublinearly at small DW.
    assert left["AXI_32_128_4"][1] == 2 * left["AXI_32_64_4"][1]

    mot_rows = result.sections[1].rows
    areas = [row[1] for row in mot_rows]
    mots = [row[0] for row in mot_rows]
    assert mots == sorted(mots)
    assert areas == sorted(areas), "area must grow with MOT"
    # Paper's endpoints: ~1000 kGE at MOT=1, ~2200 kGE at MOT=128.
    assert abs(areas[0] - 1000.0) < 20.0
    assert abs(areas[-1] - 2200.0) < 40.0
