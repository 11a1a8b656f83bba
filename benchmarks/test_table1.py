"""Benchmark: regenerate Table I (the configuration space)."""


def test_table1(render):
    result = render("table1")
    rows = {row[0]: row[1] for row in result.sections[0].rows}
    assert len(rows) == 9  # Table I's rows
    assert rows["Data Width"] == "8 bits to 1024 bits"
    assert rows["Max #Outstanding Trans."] == "1 to 128"
    assert all(row[-1] == "yes" for row in result.sections[1].rows)
