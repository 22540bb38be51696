"""Query engine and system facade."""

from repro.engine.clock import LogicalClock
from repro.engine.executor import QueryExecutor, QueryResult
from repro.engine.latency import QueryCostModel
from repro.engine.parser import parse_query
from repro.engine.queries import (
    AndQuery,
    CombineMode,
    KeywordQuery,
    OrQuery,
    SpatialQuery,
    TopKQuery,
    UserQuery,
)
from repro.engine.sharded import ShardRouter, build_system
from repro.engine.stats import IngestStats, QueryStats, SystemStats, TimelinePoint
from repro.engine.system import MicroblogSystem, Partition

__all__ = [
    "AndQuery",
    "CombineMode",
    "IngestStats",
    "KeywordQuery",
    "LogicalClock",
    "MicroblogSystem",
    "OrQuery",
    "Partition",
    "QueryCostModel",
    "QueryExecutor",
    "QueryResult",
    "QueryStats",
    "ShardRouter",
    "build_system",
    "parse_query",
    "SpatialQuery",
    "SystemStats",
    "TimelinePoint",
    "TopKQuery",
    "UserQuery",
]
