"""Bench: regenerate Figure 12 — kFlushing on the user attribute.

Records are indexed by posting user for timeline queries ("most recent k
microblogs by user U").  Paper claims the same improvement pattern as the
keyword and spatial attributes — in fact stronger on the correlated load,
because user activity is even more skewed than keyword frequency (highly
active users produce more useless beyond-top-k microblogs).
"""

from conftest import series_at

from repro.experiments.figures import run_figure


def test_fig12_user(benchmark, preset, record_figure):
    figure = benchmark.pedantic(
        run_figure, args=("fig12", preset), rounds=1, iterations=1
    )
    record_figure(figure)
    by_id = {panel.panel_id: panel for panel in figure.panels}

    k_filled = by_id["fig12a"]
    for gb in k_filled.xs:
        assert series_at(k_filled, "kflushing", gb) > series_at(k_filled, "fifo", gb)

    hit = by_id["fig12b"]
    for gb in hit.xs:
        kf = series_at(hit, "kflushing-correlated", gb)
        fifo = series_at(hit, "fifo-correlated", gb)
        assert kf >= fifo, f"kFlushing below FIFO (correlated, {gb}GB)"
