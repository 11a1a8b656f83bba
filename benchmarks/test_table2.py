"""Benchmark: regenerate Table II (state-of-the-art comparison).

Its one point is Fig. 6's wide max-1-hop 64 kB bar, so after
``test_fig6`` it is a store hit."""


def test_table2(render):
    """State-of-the-art comparison."""
    rows = {row[0]: row for row in render("table2").sections[0].rows}
    ours = rows["PATRONoC (this repro)"]
    # PATRONoC is the only open-source, fully-AXI, burst-capable,
    # configurable entry (with its substrate [9]).
    assert ours[1:5] == ["yes", "yes", "yes", "yes"]
    full_axi_rows = [r for r in rows.values() if r[2] == "yes"]
    assert len(full_axi_rows) == 2  # [9] and PATRONoC
    # Measured NoC bandwidth is in the multi-Tbps class like the paper's
    # 2700 Gbps entry.
    assert float(ours[5]) > 1000
