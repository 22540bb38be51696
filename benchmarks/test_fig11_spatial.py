"""Bench: regenerate Figure 11 — kFlushing on the spatial attribute.

Records are indexed by equal-area grid tile (paper: 4 mi^2 tiles); the
query loads ask "most recent k microblogs posted in tile T".  Paper
claims: kFlushing k-fills 2-5x more tiles than FIFO/LRU across memory
budgets, and beats both on hit ratio for the uniform and correlated
loads, with the biggest margins at tight budgets.  kFlushing-MK is
omitted: spatial AND queries are semantically invalid, so it degenerates
to plain kFlushing (Section V-D).
"""

from conftest import series_at

from repro.experiments.figures import run_figure


def test_fig11_spatial(benchmark, preset, record_figure):
    figure = benchmark.pedantic(
        run_figure, args=("fig11", preset), rounds=1, iterations=1
    )
    record_figure(figure)
    by_id = {panel.panel_id: panel for panel in figure.panels}

    k_filled = by_id["fig11a"]
    for gb in k_filled.xs:
        assert series_at(k_filled, "kflushing", gb) > series_at(k_filled, "fifo", gb)
        assert series_at(k_filled, "kflushing", gb) > series_at(k_filled, "lru", gb)

    hit = by_id["fig11b"]
    for mode in ("correlated", "uniform"):
        for gb in hit.xs:
            kf = series_at(hit, f"kflushing-{mode}", gb)
            fifo = series_at(hit, f"fifo-{mode}", gb)
            assert kf >= fifo, f"kFlushing below FIFO ({mode}, {gb}GB)"
