"""Benches for the two extension experiments (beyond the paper's figures).

* **ext1 — skew sensitivity**: kFlushing's advantage over FIFO is a
  function of keyword-frequency skew (the useless beyond-top-k mass
  temporal flushing wastes).  At Zipf exponent 0 the policies converge;
  the margin grows monotonically with skew.  This is the controlled
  version of the paper's implicit premise and explains why raw-Twitter
  margins (>75% useless memory) exceed our synthetic ones.

* **ext2 — AND accounting**: the gap between the paper's operational AND
  hit definition and this repo's provable (strict) criterion, i.e. how
  much of kFlushing-MK's AND win rests on unprovable-but-served answers.
"""

from repro.experiments.figures import run_figure


def test_ext1_skew_sensitivity(benchmark, preset, record_figure):
    figure = benchmark.pedantic(
        run_figure, args=("ext1", preset), rounds=1, iterations=1
    )
    record_figure(figure)
    panel = figure.panels[0]
    gains = panel.series["kflushing-gain-pts"]
    # The hit-ratio margin is a hump: near-flat at zero skew, peaking at
    # moderate skew (where the mid-tail both matters and is salvageable),
    # and narrowing again at extreme skew where a correlated load is
    # served off the head by any policy.  Assert the hump: some non-zero
    # skew point carries a clear margin and no point is strongly negative.
    assert max(gains[1:]) > 1.0
    assert max(gains) >= gains[0]
    assert min(gains) > -1.0
    kf = panel.series["kflushing"]
    assert kf[-1] > kf[0]  # absolute hit ratio grows with skew


def test_ext2_and_semantics(benchmark, preset, record_figure):
    figure = benchmark.pedantic(
        run_figure, args=("ext2", preset), rounds=1, iterations=1
    )
    record_figure(figure)
    panel = figure.panels[0]
    for policy in ("kflushing", "kflushing-mk"):
        operational, strict = panel.series[policy]
        assert strict <= operational + 1e-9, f"{policy}: strict above operational"
    # MK's raison d'être: a clear operational AND win over plain kFlushing.
    assert panel.series["kflushing-mk"][0] > panel.series["kflushing"][0]
