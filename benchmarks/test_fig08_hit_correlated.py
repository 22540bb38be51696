"""Bench: regenerate Figure 8 — memory hit ratio on the correlated
query load (1/3 single-keyword, 1/3 AND, 1/3 OR queries drawn with
occurrence-proportional probabilities).

Paper claims: kFlushing variants beat FIFO by 12-20 absolute points and
LRU by 2-18; hit ratio decreases with k and flushing budget, increases
with memory budget; kFlushing-MK adds 7-9 points over plain kFlushing
by serving AND queries from memory.
"""

from conftest import series_at

from repro.experiments.figures import run_figure


def test_fig8_hit_correlated(benchmark, preset, record_figure):
    figure = benchmark.pedantic(
        run_figure, args=("fig8", preset), rounds=1, iterations=1
    )
    record_figure(figure)
    by_id = {panel.panel_id: panel for panel in figure.panels}

    panel_a = by_id["fig8a"]
    # kFlushing above FIFO at every k; decreasing trend in k.
    for k in panel_a.xs:
        assert series_at(panel_a, "kflushing", k) > series_at(panel_a, "fifo", k)
    assert panel_a.series["kflushing"][0] > panel_a.series["kflushing"][-1]

    # At the paper's default k=20 the kFlushing variants also beat LRU.
    assert series_at(panel_a, "kflushing", 20) > series_at(panel_a, "lru", 20)

    # Memory sweep: increasing in memory, kFlushing above FIFO throughout.
    panel_c = by_id["fig8c"]
    assert panel_c.series["kflushing"][-1] > panel_c.series["kflushing"][0]
    for gb in panel_c.xs:
        assert series_at(panel_c, "kflushing", gb) > series_at(panel_c, "fifo", gb)
