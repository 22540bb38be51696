"""Bench: regenerate the Section V-A / Figure 1 memory snapshot.

Paper claim: under temporal (FIFO) flushing, most of the memory (>75% on
real tweets at k=20) is consumed by postings beyond their keyword's top-k
— microblogs that can never appear in any top-k answer — while kFlushing
drives the snapshot toward "every keyword holds exactly k".
"""

from repro.experiments.figures import run_figure


def test_fig1_snapshot(benchmark, preset, record_figure):
    figure = benchmark.pedantic(
        run_figure, args=("fig1", preset), rounds=1, iterations=1
    )
    record_figure(figure)
    panel = figure.panels[0]
    rows = {row[0]: row for row in panel.rows}
    fifo_useless_pct = rows["fifo"][3]
    kf_useless_pct = rows["kflushing"][3]
    # Shape: FIFO wastes a large share of memory on useless postings;
    # kFlushing reduces it by an order of magnitude and k-fills more keys.
    assert fifo_useless_pct > 25.0
    assert kf_useless_pct < fifo_useless_pct / 3
    assert rows["kflushing"][7] > rows["fifo"][7]
