"""Bench: regenerate Figure 5, the memory-consumption behaviour of the
kFlushing phases.

Paper claim: flushing with Phase 1 alone saturates — each flush frees
less until the policy is invoked constantly for almost nothing (Fig 5a) —
while the full three-phase policy settles into freeing the configured
budget every cycle (Fig 5b).
"""

from repro.experiments.figures import run_figure


def test_fig5_timeline(benchmark, preset, record_figure):
    figure = benchmark.pedantic(
        run_figure, args=("fig5", preset), rounds=1, iterations=1
    )
    record_figure(figure)
    panel = figure.panels[0]
    phase1 = panel.series["phase1-only"]
    full = panel.series["phases-1+2+3"]
    # Saturation: phase-1-only frees ever less.
    assert phase1[-1] < phase1[0] / 4
    # Steady state: the full policy keeps meeting (approximately) the
    # 10% budget on late flushes.
    assert full[-1] > 8.0
