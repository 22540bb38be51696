"""Simulated query latency: the cost a query pays for missing memory.

The paper's introduction motivates memory hit ratio through tail-latency
service objectives ("web search engines optimize ... to serve 95% of
their search queries within a certain threshold, e.g., 50-100ms"): a
memory miss is not just a counter, it is a disk round-trip added to one
user's response time.  This module prices each query:

* an in-memory component — a fixed dispatch cost plus a per-searched-key
  hash probe;
* the disk component — whatever simulated I/O time the
  :class:`~repro.storage.disk.DiskCostModel` charged for the lookups and
  reads this query triggered.

Latencies are aggregated in a :class:`~repro.obs.metrics.Histogram`
(``QueryStats.latency``), so experiments can report p50/p95/p99 without
storing millions of samples.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["QueryCostModel"]


@dataclass(frozen=True)
class QueryCostModel:
    """In-memory evaluation costs (the disk part comes from DiskCostModel)."""

    #: Fixed per-query dispatch cost.
    base_seconds: float = 20e-6
    #: Per-searched-key hash probe and candidate scan.
    per_key_seconds: float = 30e-6

    def memory_cost(self, key_count: int) -> float:
        return self.base_seconds + key_count * self.per_key_seconds
