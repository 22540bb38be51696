"""System configuration: one validated object describing a whole system.

A :class:`SystemConfig` captures the paper's experimental knobs — policy,
search attribute, ranking function, ``k``, memory budget, and flushing
budget ``B`` — together with the byte-cost and disk-cost models.  The
:class:`~repro.engine.system.MicroblogSystem` is built from one of these.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Union

from repro.core import POLICY_NAMES
from repro.errors import ConfigurationError
from repro.model.attributes import AttributeExtractor, attribute_from_name
from repro.model.ranking import RankingFunction, ranking_from_name
from repro.storage.disk import DiskCostModel
from repro.storage.memory_model import MemoryModel

__all__ = ["SystemConfig"]

#: Default memory budget: the paper's 30 GB at the repo's 1 GB -> 1 MB
#: simulation scale (see ``repro.experiments.scale``).
DEFAULT_CAPACITY_BYTES = 30_000_000


@dataclass(frozen=True)
class SystemConfig:
    """Validated configuration for one microblogs data-management system.

    Attributes
    ----------
    policy:
        Flushing policy name: ``"kflushing"``, ``"kflushing-mk"``,
        ``"fifo"``, or ``"lru"``.
    attribute:
        Search attribute: ``"keyword"`` (default), ``"user"``,
        ``"spatial"``, or a custom :class:`AttributeExtractor`.
    ranking:
        Ranking function: ``"temporal"`` (default), ``"popularity"``, or a
        custom :class:`RankingFunction`.
    k:
        Top-k answer size (the paper's default is 20).
    memory_capacity_bytes:
        Modelled main-memory budget; flushing triggers when the data
        (records + index) reaches this.
    flush_fraction:
        The flushing budget B as a fraction of memory contents
        (paper default 10%).
    memory_model / disk_cost:
        Byte-cost and I/O-cost models.
    tile_side_degrees:
        Grid tile side used when ``attribute="spatial"``.
    shards:
        Number of hash-partitioned shards the system is split into
        (1 = the paper's single-partition system).  Each shard owns its
        own memory engine, budget, flush cycle, and disk-archive
        namespace; see ``docs/ARCHITECTURE.md``.
    shard_capacity_bytes:
        Optional per-shard memory budgets (one entry per shard).  When
        None, ``memory_capacity_bytes`` is split evenly across shards
        (the first ``memory_capacity_bytes % shards`` shards absorb the
        remainder byte each).

    Flushing is synchronous: the ingest that crosses a partition's
    budget runs the whole flush before it returns (see
    ``docs/PERFORMANCE.md``, "Why flushing is synchronous").  kFlushing
    runs with one global ``k`` and static budgets, and every disk
    lookup pays one modelled seek (see "Why there is no adaptive
    controller or disk cache" in the same document).
    """

    policy: str = "kflushing"
    attribute: Union[str, AttributeExtractor] = "keyword"
    ranking: Union[str, RankingFunction] = "temporal"
    k: int = 20
    memory_capacity_bytes: int = DEFAULT_CAPACITY_BYTES
    flush_fraction: float = 0.10
    memory_model: MemoryModel = field(default_factory=MemoryModel)
    disk_cost: DiskCostModel = field(default_factory=DiskCostModel)
    tile_side_degrees: float = 0.03
    #: Optional caps on AND-query evaluation depth (per-key in-memory scan
    #: and per-key disk read).  None = unbounded, exact answers.  The
    #: experiment harness bounds these the way a production system would;
    #: capped answers are flagged via ``QueryResult.provably_exact``.
    and_scan_depth: Union[int, None] = None
    and_disk_limit: Union[int, None] = None
    #: Hash-partitioned shard count (1 = unsharded, the paper's system).
    shards: int = 1
    #: Optional per-shard budgets overriding the even capacity/N split.
    shard_capacity_bytes: Union[tuple[int, ...], None] = None
    #: Declarative SLO objectives (``repro.obs.slo``): a spec dict, a
    #: JSON string, or a path to a spec file.  None (default) = no
    #: tracker is built and flush boundaries pay one None test.
    slo_spec: Union[str, dict, None] = None
    #: Flight-recorder ring-buffer capacity in events (0 = off, the
    #: default).  When on, the system's tracing routes through a
    #: bounded :class:`~repro.obs.recorder.FlightRecorder` that dumps a
    #: JSONL black box on SLO breach or on demand.
    flight_recorder_events: int = 0
    #: Where breach-triggered flight-recorder dumps land (None = the
    #: default ``flight_recorder_dump.jsonl`` in the working directory).
    flight_recorder_path: Union[str, None] = None

    def __post_init__(self) -> None:
        if self.policy not in POLICY_NAMES:
            valid = ", ".join(POLICY_NAMES)
            raise ConfigurationError(
                f"unknown policy {self.policy!r}; expected one of: {valid}"
            )
        if self.k <= 0:
            raise ConfigurationError(f"k must be positive, got {self.k}")
        if self.memory_capacity_bytes <= 0:
            raise ConfigurationError(
                f"memory_capacity_bytes must be positive, got {self.memory_capacity_bytes}"
            )
        if not 0.0 < self.flush_fraction <= 1.0:
            raise ConfigurationError(
                f"flush_fraction must be in (0, 1], got {self.flush_fraction}"
            )
        if self.tile_side_degrees <= 0:
            raise ConfigurationError(
                f"tile_side_degrees must be positive, got {self.tile_side_degrees}"
            )
        for name in ("and_scan_depth", "and_disk_limit"):
            value = getattr(self, name)
            if value is not None and value < self.k:
                raise ConfigurationError(
                    f"{name} must be None or >= k, got {value} (k={self.k})"
                )
        if self.shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {self.shards}")
        if self.shard_capacity_bytes is not None:
            budgets = self.shard_capacity_bytes
            if len(budgets) != self.shards:
                raise ConfigurationError(
                    f"shard_capacity_bytes needs one entry per shard: got "
                    f"{len(budgets)} entries for {self.shards} shards"
                )
            for i, budget in enumerate(budgets):
                if budget <= 0:
                    raise ConfigurationError(
                        f"shard_capacity_bytes[{i}] must be positive, got {budget}"
                    )
        if self.flight_recorder_events < 0:
            raise ConfigurationError(
                f"flight_recorder_events must be >= 0, got "
                f"{self.flight_recorder_events}"
            )
        # Fail fast on unknown names rather than at system build time.
        # An inline slo_spec dict/JSON string is validated eagerly too;
        # a file path is resolved lazily at system build (the file may
        # be written after the config is constructed).
        if isinstance(self.slo_spec, dict) or (
            isinstance(self.slo_spec, str) and self.slo_spec.strip().startswith("{")
        ):
            try:
                self.build_slo_spec()
            except (ValueError, TypeError) as exc:
                raise ConfigurationError(f"invalid slo_spec: {exc}") from exc
        self.build_attribute()
        self.build_ranking()

    def shard_capacity(self, shard_id: int) -> int:
        """Memory budget of one shard.

        Explicit ``shard_capacity_bytes`` wins; otherwise the global
        budget is split evenly, with the first ``capacity % shards``
        shards absorbing one remainder byte each so the shard budgets
        always sum to ``memory_capacity_bytes``.
        """
        if not 0 <= shard_id < self.shards:
            raise ConfigurationError(
                f"shard_id must be in [0, {self.shards}), got {shard_id}"
            )
        if self.shard_capacity_bytes is not None:
            return self.shard_capacity_bytes[shard_id]
        base, remainder = divmod(self.memory_capacity_bytes, self.shards)
        return base + (1 if shard_id < remainder else 0)

    @property
    def total_capacity_bytes(self) -> int:
        """Summed memory budget across all shards."""
        if self.shard_capacity_bytes is not None:
            return sum(self.shard_capacity_bytes)
        return self.memory_capacity_bytes

    def build_slo_spec(self):
        """The parsed :class:`~repro.obs.slo.SLOSpec`, or None when
        ``slo_spec`` is unset (the legacy untracked path)."""
        if self.slo_spec is None:
            return None
        from repro.obs.slo import SLOSpec

        return SLOSpec.parse(self.slo_spec)

    def resolved_flight_recorder_path(self) -> str:
        """Where a breach-triggered flight-recorder dump is written."""
        if self.flight_recorder_path is not None:
            return self.flight_recorder_path
        return "flight_recorder_dump.jsonl"

    def build_attribute(self) -> AttributeExtractor:
        """Resolve the configured attribute to an extractor instance."""
        if isinstance(self.attribute, AttributeExtractor):
            return self.attribute
        if self.attribute == "spatial":
            return attribute_from_name("spatial", tile_side_degrees=self.tile_side_degrees)
        return attribute_from_name(self.attribute)

    def build_ranking(self) -> RankingFunction:
        """Resolve the configured ranking to a function instance."""
        if isinstance(self.ranking, RankingFunction):
            return self.ranking
        return ranking_from_name(self.ranking)

    def with_overrides(self, **changes) -> "SystemConfig":
        """Return a copy with ``changes`` applied (sweep helper)."""
        return replace(self, **changes)
