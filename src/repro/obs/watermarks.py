"""Resource high-watermark accounting.

Point-in-time gauges (``memory.bytes_used``) answer "how much *now*?";
capacity planning needs "how much at the worst moment?".  A
:class:`WatermarkTracker` keeps the running maximum of every resource it
is shown and mirrors each one into a ``watermark.<name>`` gauge, so
high-water marks ride along in every registry snapshot, the Prometheus
export, and the flight-recorder dump with zero extra plumbing.

The facade samples at flush-cycle boundaries — the moments memory and
cache occupancy peak (a flush fires precisely because memory crossed
its budget), so per-record sampling would add hot-path cost without
raising any watermark.  Always on: the cost is a handful
of dict operations per flush.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import MetricsRegistry

__all__ = ["WatermarkTracker"]


class WatermarkTracker:
    """Running maxima over named resource samples, exported as gauges."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry
        self._marks: dict[str, float] = {}

    def observe(self, name: str, value: float) -> None:
        """Record one sample; updates the watermark only on a new high."""
        current = self._marks.get(name)
        if current is not None and value <= current:
            return
        self._marks[name] = value
        if self.registry is not None:
            self.registry.gauge(f"watermark.{name}").set(value)

    def get(self, name: str) -> Optional[float]:
        return self._marks.get(name)

    def table(self) -> dict[str, float]:
        """All watermarks, name-sorted (snapshot/inspection surface)."""
        return dict(sorted(self._marks.items()))

    def __len__(self) -> int:
        return len(self._marks)
