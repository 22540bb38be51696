"""Brute-force reference answers for sampled queries.

The oracle replays the ingest history and keeps, per verified key, every
posting ever ingested in one list sorted by the system's own ranking
function — no budget, no floors, no disk tier.  The true top-k of a query
is then read straight off those lists as they stood when the query ran.
Single and OR answers must always equal it; AND answers only when the
executor flags them ``provably_exact`` (depth-capped AND evaluation may be
inexact and says so).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass

from repro.engine.queries import CombineMode, TopKQuery


@dataclass
class Check:
    """One answered query to verify."""

    text: str
    expected_query: TopKQuery
    parsed_query: TopKQuery
    result: object
    fetched_ids: tuple[int, ...]
    #: Records the system had ingested when the query ran.
    ingested: int


class Oracle:
    def __init__(self, system, keys) -> None:
        self._attribute, self._ranking = system.attribute, system.ranking
        #: key -> [(sort_key, blog_id)], ascending, never trimmed.
        self._ranked: dict = {key: [] for key in keys}
        self._ids: dict = {key: set() for key in keys}
        self._sort_key: dict = {}

    def ingest(self, record) -> None:
        for key in self._attribute.keys(record):
            if key in self._ranked:
                sort_key = self._ranking.sort_key(record)
                insort(self._ranked[key], (sort_key, record.blog_id))
                self._ids[key].add(record.blog_id)
                self._sort_key[record.blog_id] = sort_key

    def top_k(self, query: TopKQuery) -> tuple[int, ...]:
        if query.mode is CombineMode.AND:
            common = set.intersection(*(self._ids[key] for key in query.keys))
            candidates = [(self._sort_key[blog_id], blog_id) for blog_id in common]
        else:
            # The union's top-k is drawn from the per-key top-k lists.
            candidates = set()
            for key in query.keys:
                candidates.update(self._ranked[key][-query.k:])
        return tuple(blog_id for _, blog_id in sorted(candidates, reverse=True)[: query.k])

    def mismatch(self, check: Check) -> str | None:
        """Why ``check`` is wrong, or None when it is right.  Call once the
        oracle has ingested exactly ``check.ingested`` records."""
        if check.parsed_query != check.expected_query:
            return f"parse_query({check.text!r}) gave {check.parsed_query!r}"
        result = check.result
        answer = tuple(result.blog_ids)
        if check.fetched_ids != answer:
            return f"{check.text!r}: fetched records {check.fetched_ids} != answer {answer}"
        if check.expected_query.mode is CombineMode.AND and not result.provably_exact:
            return None
        truth = self.top_k(check.expected_query)
        if answer != truth:
            return f"{check.text!r}: answered {answer}, oracle says {truth}"
        return None


def verify(system, records, checks) -> list[str]:
    """Mismatch descriptions for ``checks`` (empty when all are right).

    ``records`` is the full ingest history in order; each check is judged
    against the first ``check.ingested`` of them.
    """
    oracle = Oracle(system, {key for check in checks for key in check.expected_query.keys})
    reasons = []
    position = 0
    for check in sorted(checks, key=lambda check: check.ingested):
        while position < check.ingested:
            oracle.ingest(records[position])
            position += 1
        reason = oracle.mismatch(check)
        if reason is not None:
            reasons.append(reason)
    return reasons
