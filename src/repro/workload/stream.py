"""Synthetic microblog stream: the 2B-tweet substitute.

Generates a deterministic, Twitter-shaped stream of
:class:`~repro.model.microblog.Microblog` records:

* hashtags drawn Zipf-distributed over a synthetic vocabulary (the skew
  the whole paper rests on — few tags far above k, a long tail below it);
* 1–3 tags per record (tweets carry few hashtags);
* posting users drawn Zipf-distributed over a user population, each user
  carrying a Pareto-distributed follower count;
* point locations drawn from Gaussian population hotspots;
* arrival timestamps spaced at a configurable rate (the paper replays its
  dataset at Twitter's 6,000 tweets/second).

Generation is batched and numpy-vectorised so that multi-million-record
experiment runs spend their time in the system under test, not here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.errors import WorkloadError
from repro.model.microblog import GeoPoint, Microblog
from repro.workload.cooccurrence import CooccurrenceModel
from repro.workload.distributions import HotspotGeoSampler, ParetoSampler, ZipfSampler
from repro.workload.vocabulary import Vocabulary

__all__ = ["StreamConfig", "MicroblogStream"]

#: Tweets per second the paper replays its dataset at.
PAPER_ARRIVAL_RATE = 6000.0


def _make_text_pool(rng: random.Random, size: int = 512) -> tuple[str, ...]:
    """A pool of filler sentences records cycle through.

    Only the byte length matters (memory model); the pool gives realistic
    variation without per-record string synthesis cost.
    """
    words = [
        "breaking", "news", "game", "tonight", "city", "update", "watch",
        "live", "score", "final", "storm", "traffic", "vote", "market",
        "launch", "crowd", "photo", "report", "street", "morning", "video",
        "team", "win", "loss", "rain", "concert", "festival", "crash",
    ]
    pool = []
    for _ in range(size):
        n = rng.randint(4, 10)
        pool.append(" ".join(rng.choice(words) for _ in range(n)))
    return tuple(pool)


@dataclass(frozen=True)
class StreamConfig:
    """Knobs of the synthetic stream."""

    seed: int = 42
    vocabulary_size: int = 20_000
    keyword_zipf_exponent: float = 1.0
    #: Probability of a record carrying 1, 2, or 3 hashtags.
    tags_per_record_probs: tuple[float, ...] = (0.55, 0.30, 0.15)
    user_count: int = 50_000
    user_zipf_exponent: float = 0.8
    #: Probability that each extra tag on a record is a *companion* of the
    #: record's first tag instead of an independent draw (tag correlation
    #: is what makes AND queries answerable; see workload.cooccurrence).
    cooccurrence_prob: float = 0.5
    arrival_rate_per_second: float = PAPER_ARRIVAL_RATE
    start_time: float = 0.0
    with_locations: bool = True
    batch_size: int = 8192

    def __post_init__(self) -> None:
        if self.vocabulary_size <= 0:
            raise WorkloadError("vocabulary_size must be positive")
        if self.user_count <= 0:
            raise WorkloadError("user_count must be positive")
        if self.arrival_rate_per_second <= 0:
            raise WorkloadError("arrival_rate_per_second must be positive")
        if self.batch_size <= 0:
            raise WorkloadError("batch_size must be positive")
        probs = self.tags_per_record_probs
        if not probs or abs(sum(probs) - 1.0) > 1e-9 or any(p < 0 for p in probs):
            raise WorkloadError(
                f"tags_per_record_probs must be a probability vector, got {probs!r}"
            )
        if not 0.0 <= self.cooccurrence_prob <= 1.0:
            raise WorkloadError(
                f"cooccurrence_prob must be in [0, 1], got {self.cooccurrence_prob}"
            )


class MicroblogStream:
    """Deterministic generator of Twitter-shaped microblog records."""

    def __init__(self, config: StreamConfig = StreamConfig()) -> None:
        self.config = config
        self.vocabulary = Vocabulary.synthetic(config.vocabulary_size, seed=config.seed)
        self._rng = np.random.default_rng(config.seed)
        self._keyword_sampler = ZipfSampler(
            config.vocabulary_size, config.keyword_zipf_exponent, self._rng
        )
        self._user_sampler = ZipfSampler(
            config.user_count, config.user_zipf_exponent, self._rng
        )
        follower_rng = np.random.default_rng(config.seed + 1)
        self._followers = ParetoSampler(follower_rng).sample_many(config.user_count)
        self._geo = (
            HotspotGeoSampler(np.random.default_rng(config.seed + 2))
            if config.with_locations
            else None
        )
        self._text_pool = _make_text_pool(random.Random(config.seed + 3))
        self.cooccurrence = CooccurrenceModel(
            config.vocabulary_size, seed=config.seed + 4
        )
        self._next_id = 0

    @property
    def records_emitted(self) -> int:
        return self._next_id

    def keyword_probability(self, tag: str) -> float:
        """Exact occurrence probability of ``tag`` per sampled slot."""
        return self._keyword_sampler.probability(self.vocabulary.rank(tag))

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------

    def take(self, count: int) -> list[Microblog]:
        """Generate the next ``count`` records."""
        if count < 0:
            raise WorkloadError(f"count must be non-negative, got {count}")
        out: list[Microblog] = []
        while len(out) < count:
            out.extend(self._batch(min(self.config.batch_size, count - len(out))))
        return out

    def __iter__(self) -> Iterator[Microblog]:
        """An unbounded stream of records."""
        while True:
            yield from self._batch(self.config.batch_size)

    def _batch(self, n: int) -> list[Microblog]:
        cfg = self.config
        rng = self._rng
        tag_counts = rng.choice(
            np.arange(1, len(cfg.tags_per_record_probs) + 1),
            size=n,
            p=np.asarray(cfg.tags_per_record_probs),
        )
        total_tags = int(tag_counts.sum())
        # One independent Zipf draw per tag slot, a coin per extra slot
        # deciding whether it is replaced by a companion of the record's
        # first tag (see CooccurrenceModel).
        tag_ranks = self._keyword_sampler.sample_many(total_tags)
        companion_coins = rng.random(total_tags)
        user_ranks = self._user_sampler.sample_many(n)
        if self._geo is not None:
            points = [self._geo.sample() for _ in range(n)]
        else:
            points = None
        vocab = self.vocabulary
        pool = self._text_pool
        rate = cfg.arrival_rate_per_second
        records: list[Microblog] = []
        cursor = 0
        for i in range(n):
            blog_id = self._next_id
            self._next_id += 1
            count = int(tag_counts[i])
            ranks = [int(r) for r in tag_ranks[cursor : cursor + count]]
            primary = ranks[0]
            for j in range(1, count):
                if companion_coins[cursor + j] < cfg.cooccurrence_prob:
                    ranks[j] = self.cooccurrence.sample_companion(primary, rng)
            cursor += count
            # A Zipf head tag can be drawn twice; Microblog keeps the
            # first appearance.
            keywords = [vocab.tag(r) for r in ranks]
            user_id = int(user_ranks[i])
            location = None
            if points is not None:
                lat, lon = points[i]
                location = GeoPoint(lat, lon)
            records.append(
                Microblog(
                    blog_id=blog_id,
                    timestamp=cfg.start_time + blog_id / rate,
                    user_id=user_id,
                    text=pool[blog_id % len(pool)],
                    keywords=keywords,
                    location=location,
                    followers=int(self._followers[user_id]),
                )
            )
        return records
