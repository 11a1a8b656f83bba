"""Benchmark: regenerate the §III power numbers."""

from repro.eval import power


def test_power(render):
    """§III power at 1 GHz, and the < 10 % platform share."""
    result = render("power")
    powers = {row[0]: row[1] for row in result.sections[0].rows}
    for dw, mw in power.PAPER_POWER.items():
        assert abs(powers[dw] - mw) < 0.5
    values = [powers[dw] for dw in sorted(powers)]
    assert values == sorted(values)  # monotone in DW
    assert all(row[2] < 10.0 for row in result.sections[1].rows)
