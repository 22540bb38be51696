"""Victim selection for Phases 2 and 3: pick the least-recent entry set.

Section III-B: the straightforward implementation sorts all n in-memory
keys by their timestamp and takes a prefix — O(n log n).  The paper's
"smarter algorithm that is only O(n)" keeps a bounded max-heap of chosen
victims: seed it with entries until the requested budget is covered, then
for each remaining entry that is *older* than the heap's most recent
member, insert it and pop the most recent members for as long as the
budget stays covered.

Both algorithms are implemented here — the heap one defines kFlushing's
victims, the sort one exists as the comparison baseline for the ablation
benchmark (``benchmarks/test_ablation_victim_selection.py``) and as a
cross-check in property tests.  They are *not* interchangeable: besides
the seed member the heap may keep, the two break timestamp ties at the
coverage boundary differently (the heap sheds the earliest-fed member of
a tie group first, the stable sort keeps it).

:func:`select_victims_pruned` is how kFlushing runs the heap without a
full scan: it replays :func:`select_victims_heap` on the few candidates
that can influence its result, read off a recency-ordered view of the
same population, and returns exactly the set the full scan would.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, TypeVar

__all__ = [
    "select_victims_heap",
    "select_victims_pruned",
    "select_victims_sort",
    "Candidate",
]

T = TypeVar("T")

#: (recency_timestamp, cost_bytes, payload) — lower timestamp = older =
#: preferred victim.  ``cost_bytes`` must be positive.
Candidate = tuple[float, int, T]


def select_victims_heap(
    candidates: Iterable[Candidate],
    target_bytes: int,
) -> list[Candidate]:
    """Single-pass bounded-heap selection (the paper's O(n) algorithm).

    Returns a subset of ``candidates`` whose total cost is at least
    ``target_bytes`` and whose members are the least-recent ones that can
    cover it.  When all candidates together cannot cover the target, all
    of them are returned (the caller escalates to the next phase).
    """
    if target_bytes <= 0:
        return []
    # Max-heap on recency: most recent victim on top, ready to be replaced
    # by an older candidate.  heapq is a min-heap, so negate the timestamp.
    # The sequence number breaks ties without comparing payloads.
    heap: list[tuple[float, int, int, T]] = []
    total = 0
    for seq, (ts, cost, payload) in enumerate(candidates):
        if cost <= 0:
            raise ValueError(f"candidate cost must be positive, got {cost}")
        if total < target_bytes:
            heapq.heappush(heap, (-ts, seq, cost, payload))
            total += cost
            continue
        most_recent_ts = -heap[0][0]
        if ts >= most_recent_ts:
            continue
        # An older candidate: bring it in, then shed the most recent
        # members while the budget stays covered.
        heapq.heappush(heap, (-ts, seq, cost, payload))
        total += cost
        while heap and total - heap[0][2] >= target_bytes:
            total -= heapq.heappop(heap)[2]
    return [(-neg_ts, cost, payload) for neg_ts, _seq, cost, payload in heap]


def select_victims_pruned(
    in_order: Iterable[Candidate],
    oldest_first: Iterable[Candidate],
    target_bytes: int,
    position: Callable[[Candidate], Any],
) -> list[Candidate]:
    """The victim set of ``select_victims_heap(in_order, target_bytes)``,
    computed from O(victims) candidates instead of all of them.

    ``in_order`` and ``oldest_first`` are two lazy views of one candidate
    population: the order the full scan feeds the heap, and non-decreasing
    timestamp order.  ``position(candidate)`` is the candidate's rank in
    ``in_order``.  The heap is replayed, in ``in_order`` order, on:

    1. *S*, the shortest prefix of ``in_order`` whose costs cover the
       target — the heap's seed;
    2. every candidate with timestamp <= ``ts*``, where ``ts*`` is the
       timestamp at which walking ``oldest_first`` first covers the
       target (its whole tie group included);
    3. the first candidate after *S* older than S's newest member — the
       first one the heap would push after seeding — when item 2 does not
       already contain it.

    Why that is exact: after the first post-seed push the heap always
    holds the shortest covering prefix, in (timestamp, feed order), of
    what it has pushed, and its newest member ends at or below ``ts*``.
    A later candidate newer than ``ts*`` is either skipped or pushed
    above every item-2 member and shed before the end; it never decides
    whether an item-2 candidate is pushed or popped.  Without any
    post-seed push the heap ends as *S*.  Either way the replay returns
    the same set as the full scan, ties included.  (The list order may
    differ; callers that need a canonical order sort by ``position``.)
    """
    if target_bytes <= 0:
        return []
    # Item 2: walk from the cold end until the target is covered, then
    # finish the tie group at that timestamp.
    cold: list[Candidate] = []
    covered = 0
    ts_star = None
    for candidate in oldest_first:
        if ts_star is not None and candidate[0] > ts_star:
            break
        cold.append(candidate)
        covered += candidate[1]
        if ts_star is None and covered >= target_bytes:
            ts_star = candidate[0]
    chosen = {position(c): c for c in cold}
    if ts_star is not None:
        # Item 1: the seed prefix S.
        remaining = iter(in_order)
        total = 0
        newest = None
        for candidate in remaining:
            chosen.setdefault(position(candidate), candidate)
            if newest is None or candidate[0] > newest:
                newest = candidate[0]
            total += candidate[1]
            if total >= target_bytes:
                break
        # Item 3: only needed when it may be newer than ts*.
        if ts_star < newest:
            for candidate in remaining:
                if candidate[0] < newest:
                    chosen.setdefault(position(candidate), candidate)
                    break
    return select_victims_heap(
        [chosen[rank] for rank in sorted(chosen)], target_bytes
    )


def select_victims_sort(
    candidates: Iterable[Candidate],
    target_bytes: int,
) -> list[Candidate]:
    """Reference O(n log n) selection: sort by recency, take a prefix."""
    if target_bytes <= 0:
        return []
    ordered = sorted(candidates, key=lambda c: c[0])
    chosen: list[Candidate] = []
    total = 0
    for candidate in ordered:
        if candidate[1] <= 0:
            raise ValueError(f"candidate cost must be positive, got {candidate[1]}")
        if total >= target_bytes:
            break
        chosen.append(candidate)
        total += candidate[1]
    return chosen
