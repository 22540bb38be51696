"""Bench: regenerate Figure 10 — flushing overhead vs k.

Panel (a): policy bookkeeping memory.  Paper claims it is stable in k,
LRU is the most expensive (a global per-item list; ~2-2.5x the kFlushing
variants, which pay per-entry timestamps plus a temporary flush buffer),
FIFO the cheapest (segment headers only).

Panel (b): digestion rate under unbounded arrival with wall-clock-paced
queries.  Paper claims FIFO ~120K/s > kFlushing ~100K/s > kFlushing-MK
~80K/s >> LRU ~29K/s.  Single-threaded Python cannot reproduce the lock
*contention* that buries the paper's LRU, so the assertion here is the
part that does transfer: FIFO is fastest and the per-item/per-check
policies (LRU, kFlushing-MK) pay a clear penalty against plain
kFlushing.  See EXPERIMENTS.md for the deviation discussion.
"""

import dataclasses

from conftest import series_at

from repro.experiments.figures import FIGURES, run_figure


#: Per-k wall-clock rates at tiny scale still jitter a few percent even
#: after seed averaging; the per-k assertions allow that band while the
#: k-averaged means (far more stable) must hold the strict ordering.
NOISE_TOLERANCE = 0.95


def _mean_series(panel, name):
    return sum(series_at(panel, name, k) for k in panel.xs) / len(panel.xs)


def test_fig10_overhead(benchmark, preset, record_figure):
    # Both panels read wall-clock-paced runs, so single-seed runs are
    # noisy at tiny scale; averaging every point over 5 seeds keeps the
    # ordering assertions below stable.
    figure = benchmark.pedantic(
        run_figure,
        args=(dataclasses.replace(FIGURES["fig10"], seeds=5), preset),
        rounds=1,
        iterations=1,
    )
    record_figure(figure)
    by_id = {panel.panel_id: panel for panel in figure.panels}

    overhead = by_id["fig10a"]
    for k in overhead.xs:
        lru = series_at(overhead, "lru", k)
        fifo = series_at(overhead, "fifo", k)
        kf = series_at(overhead, "kflushing", k)
        assert lru > kf > fifo, f"overhead ordering violated at k={k}"

    digestion = by_id["fig10b"]
    for k in digestion.xs:
        fifo = series_at(digestion, "fifo", k)
        kf = series_at(digestion, "kflushing", k)
        mk = series_at(digestion, "kflushing-mk", k)
        lru = series_at(digestion, "lru", k)
        assert fifo > kf * NOISE_TOLERANCE, f"FIFO should digest fastest (k={k})"
        assert kf > mk * NOISE_TOLERANCE, f"MK checks should cost (k={k})"
        assert kf > lru * NOISE_TOLERANCE, f"per-item LRU should trail (k={k})"
    # The k-averaged ordering is the paper's actual claim and must hold
    # strictly.
    fifo = _mean_series(digestion, "fifo")
    kf = _mean_series(digestion, "kflushing")
    mk = _mean_series(digestion, "kflushing-mk")
    lru = _mean_series(digestion, "lru")
    assert fifo > kf > mk, "k-averaged digestion ordering violated"
    assert kf > lru, "k-averaged digestion ordering violated"
