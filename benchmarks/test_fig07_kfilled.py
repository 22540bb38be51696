"""Bench: regenerate Figure 7 — the number of k-filled keywords under
FIFO, kFlushing, kFlushing-MK, and LRU.

Paper claims: (a) k-filled keys decrease with k for every policy, with
the kFlushing variants several times above FIFO (>=7x in the paper) and
LRU (up to 3x); (b) they decrease with the flushing budget; (c) the
kFlushing advantage is largest at tight memory budgets.
"""

from conftest import series_at

from repro.experiments.figures import run_figure


def test_fig7_k_filled(benchmark, preset, record_figure):
    figure = benchmark.pedantic(
        run_figure, args=("fig7", preset), rounds=1, iterations=1
    )
    record_figure(figure)
    by_id = {panel.panel_id: panel for panel in figure.panels}

    # (a) vs k: decreasing, kFlushing above both baselines at every k.
    panel_a = by_id["fig7a"]
    for policy in ("fifo", "kflushing", "lru"):
        ys = panel_a.series[policy]
        assert ys[0] > ys[-1], f"{policy} should decrease with k"
    for k in panel_a.xs:
        assert series_at(panel_a, "kflushing", k) > series_at(panel_a, "fifo", k)
        assert series_at(panel_a, "kflushing", k) > series_at(panel_a, "lru", k)

    # At the paper's default k=20 the margin is a multiple, not a sliver.
    assert series_at(panel_a, "kflushing", 20) > 2 * series_at(panel_a, "fifo", 20)

    # (b) vs flushing budget: at 100% everything is flushed -> all equal-ish;
    # at 20% kFlushing dominates.
    panel_b = by_id["fig7b"]
    assert series_at(panel_b, "kflushing", 20) > series_at(panel_b, "fifo", 20)

    # (c) vs memory: kFlushing wins at the tightest budget too.
    panel_c = by_id["fig7c"]
    assert series_at(panel_c, "kflushing", 10.0) > series_at(panel_c, "fifo", 10.0)
    assert series_at(panel_c, "kflushing", 10.0) > series_at(panel_c, "lru", 10.0)
