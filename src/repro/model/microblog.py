"""The microblog record: the unit of data the whole system manages.

A :class:`Microblog` mirrors the information the paper's environment keeps
for each tweet-like item (Section II-A): a unique id, an arrival timestamp,
the posting user, the raw text, the extracted keywords (the paper uses
hashtags), an optional point location, and the user's follower count (used
by the popularity ranking function of Section IV-B).

Records are immutable; all mutable bookkeeping (reference counts, index
membership) lives in the storage layer, keyed by ``blog_id``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

__all__ = ["Microblog", "GeoPoint"]


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """A WGS-84 point location attached to a microblog.

    Latitude is in degrees in ``[-90, 90]``; longitude in ``[-180, 180)``.
    Validation is performed on construction because tile assignment in the
    spatial index assumes in-range coordinates.
    """

    latitude: float
    longitude: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError(f"latitude out of range: {self.latitude!r}")
        if not -180.0 <= self.longitude < 180.0001:
            raise ValueError(f"longitude out of range: {self.longitude!r}")


@dataclass(frozen=True, slots=True)
class Microblog:
    """One immutable microblog record.

    Parameters
    ----------
    blog_id:
        Unique, monotonically increasing integer id.  Ids are assigned by
        the stream source; the storage layer rejects duplicates.
    timestamp:
        Arrival time in (possibly simulated) seconds.  The temporal ranking
        function orders by this field, newest first.
    user_id:
        Integer id of the posting user.
    text:
        Raw text of the microblog.  Only its length matters to the memory
        model, but examples render it.
    keywords:
        Extracted, normalised keywords (the paper uses hashtags).  Kept
        distinct, in first-appearance order.  May be empty, in which case
        the record is unindexable by keyword and a keyword-attribute
        system ignores it.
    location:
        Optional point location; required for spatial indexing.
    followers:
        Follower count of the posting user at posting time; input to the
        popularity ranking function.
    """

    blog_id: int
    timestamp: float
    user_id: int
    text: str = ""
    keywords: tuple[str, ...] = field(default=())
    location: Optional[GeoPoint] = None
    followers: int = 0

    def __post_init__(self) -> None:
        if self.blog_id < 0:
            raise ValueError(f"blog_id must be non-negative, got {self.blog_id}")
        if self.followers < 0:
            raise ValueError(f"followers must be non-negative, got {self.followers}")
        # Accept any iterable, but store a tuple (hashable, immutable) of
        # distinct keywords: a repeated one would be indexed twice.  Keep
        # first-appearance order: key order is index insert order, so a
        # set would tie the stored record to the hash seed.
        keywords = tuple(dict.fromkeys(self.keywords))
        if keywords != self.keywords:
            object.__setattr__(self, "keywords", keywords)
        for kw in self.keywords:
            if not kw:
                raise ValueError("keywords must be non-empty strings")

    @property
    def has_location(self) -> bool:
        """Whether the record can participate in a spatial index."""
        return self.location is not None

    @property
    def keyword_count(self) -> int:
        """Number of distinct keywords attached to this record."""
        return len(self.keywords)

    def with_keywords(self, keywords: Iterable[str]) -> "Microblog":
        """Return a copy of this record with ``keywords`` replaced."""
        return replace(self, keywords=tuple(keywords))

    def age_at(self, now: float) -> float:
        """Seconds elapsed between this record's arrival and ``now``."""
        return now - self.timestamp

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        tags = " ".join(f"#{kw}" for kw in self.keywords)
        return f"[{self.blog_id} @t={self.timestamp:.2f} u={self.user_id}] {self.text} {tags}".rstrip()
