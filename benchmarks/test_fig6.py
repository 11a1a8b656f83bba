"""Benchmark: regenerate Fig. 6 (synthetic patterns, slim and wide)."""

from repro.eval import fig6


def test_fig6(render):
    """Synthetic patterns, slim and wide: at large bursts the all-global
    hot spot is slowest, max-2-hop faster, max-1-hop fastest; at ≤4 B
    bursts utilization collapses to the same endpoint-bound value
    regardless of pattern."""
    # sections: slim a/b/c then wide a/b/c; rows indexed by burst cap.
    by_title = {sec.title: {row[0]: (row[1], row[2]) for row in sec.rows}
                for sec in render("fig6").sections}

    for noc in ("slim", "wide"):
        a, b, c = (next(v for k, v in by_title.items()
                        if k.startswith(noc) and pat in k)
                   for pat in ("All Global", "Max 2 Hop", "Max 1 Hop"))
        # Large-burst ordering a < b < c (throughput).
        assert a[64000][0] < b[64000][0] < c[64000][0]
        # Tiny bursts: pattern-independent within 20 %.
        tiny = [a[4][0], b[4][0], c[4][0]]
        assert max(tiny) / min(tiny) < 1.2
        # Tiny-burst utilization ≈ the paper's (4.7 % slim, 0.29 % wide).
        paper = fig6.PAPER_UTILIZATION[(noc, "all_global")][4]
        assert abs(a[4][1] - paper) < {"slim": 1.5, "wide": 0.15}[noc]
