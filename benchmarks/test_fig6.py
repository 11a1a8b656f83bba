"""Benchmark: regenerate Fig. 6 (synthetic patterns, slim+wide).

Asserts the pattern ordering the paper reports: at large bursts the
all-global hot spot is slowest, max-2-hop is faster, max-1-hop fastest;
at ≤4 B bursts utilization collapses to the same endpoint-bound value
(4.7 % slim / 0.29 % wide in the paper) regardless of pattern.
"""

from conftest import run_once

from repro.eval.fig6 import run


def test_fig6(benchmark, figure_store):
    result = run_once(benchmark, run, True, cache="rw",
                      store=figure_store)
    # sections: slim a/b/c then wide a/b/c; rows indexed by burst cap.
    by_title = {sec.title: {row[0]: (row[1], row[2]) for row in sec.rows}
                for sec in result.sections}

    for noc in ("slim", "wide"):
        a, b, c = (next(v for k, v in by_title.items()
                        if k.startswith(noc) and pat in k)
                   for pat in ("All Global", "Max 2 Hop", "Max 1 Hop"))
        # Large-burst ordering a < b < c (throughput).
        assert a[64000][0] < b[64000][0] < c[64000][0]
        # Tiny bursts: pattern-independent within 20 %.
        tiny = [a[4][0], b[4][0], c[4][0]]
        assert max(tiny) / min(tiny) < 1.2

    # Slim tiny-burst utilization ≈ the paper's 4.7 %.
    slim_a = next(v for k, v in by_title.items()
                  if k.startswith("slim") and "All Global" in k)
    assert abs(slim_a[4][1] - 4.7) < 1.5
    # Wide tiny-burst utilization ≈ the paper's 0.29 %.
    wide_a = next(v for k, v in by_title.items()
                  if k.startswith("wide") and "All Global" in k)
    assert abs(wide_a[4][1] - 0.29) < 0.15
