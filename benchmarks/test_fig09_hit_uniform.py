"""Bench: regenerate Figure 9 — memory hit ratio on the uniform query
load (keys drawn uniformly from the whole key space, the worst-case /
quality-of-service workload).

Paper claims: absolute hit ratios are low for every policy (<9% on their
data) because a uniform load is dominated by rare keys; the kFlushing
variants nevertheless deliver 100-330% *relative* improvement over FIFO
and 26-240% over LRU.
"""

from conftest import series_at

from repro.experiments.figures import run_figure


def test_fig9_hit_uniform(benchmark, preset, record_figure):
    figure = benchmark.pedantic(
        run_figure, args=("fig9", preset), rounds=1, iterations=1
    )
    record_figure(figure)
    by_id = {panel.panel_id: panel for panel in figure.panels}

    panel_a = by_id["fig9a"]
    # Uniform-load hit ratios sit far below the correlated ones for every
    # policy, but kFlushing still gives a large relative gain over FIFO.
    for k in panel_a.xs:
        fifo = series_at(panel_a, "fifo", k)
        kf = series_at(panel_a, "kflushing", k)
        assert kf >= fifo
    k20_fifo = series_at(panel_a, "fifo", 20)
    k20_kf = series_at(panel_a, "kflushing", 20)
    if k20_fifo > 0:
        assert k20_kf / k20_fifo > 1.25, "relative gain should be large"

    # Memory sweep: increasing with memory for kFlushing.
    panel_c = by_id["fig9c"]
    assert panel_c.series["kflushing"][-1] >= panel_c.series["kflushing"][0]
