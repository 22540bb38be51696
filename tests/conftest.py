"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import itertools

import pytest

from repro.config import SystemConfig
from repro.engine.system import MicroblogSystem
from repro.model.attributes import KeywordAttribute
from repro.model.microblog import GeoPoint, Microblog
from repro.model.ranking import TemporalRanking
from repro.storage.disk import DiskArchive
from repro.storage.memory_model import MemoryModel

_id_counter = itertools.count(1)


def make_blog(
    keywords=("alpha",),
    timestamp=None,
    blog_id=None,
    user_id=1,
    text="hello world",
    followers=0,
    location=None,
):
    """Create a microblog with auto-assigned id/timestamp for terseness."""
    if blog_id is None:
        blog_id = next(_id_counter)
    if timestamp is None:
        timestamp = float(blog_id)
    return Microblog(
        blog_id=blog_id,
        timestamp=timestamp,
        user_id=user_id,
        text=text,
        keywords=tuple(keywords),
        location=location,
        followers=followers,
    )


def make_blogs(count, keywords=("alpha",), start_id=None, **kwargs):
    """A list of ``count`` records with consecutive ids/timestamps."""
    blogs = []
    for _ in range(count):
        blogs.append(make_blog(keywords=keywords, blog_id=start_id, **kwargs))
        if start_id is not None:
            start_id += 1
    return blogs


def insert(engine, *records):
    """Digest ``records`` into a bare engine as the facade does: each
    under every key the engine's attribute extracts from it."""
    for record in records:
        engine.insert(record, engine.attribute.keys(record))


def disk_counter(disk, name):
    """The value of an archive's ``disk.<name>`` registry counter."""
    return disk.obs.registry.snapshot()["counters"][f"disk.{name}"]


@pytest.fixture
def model():
    return MemoryModel()


@pytest.fixture
def disk(model):
    return DiskArchive(model)


@pytest.fixture
def ranking():
    return TemporalRanking()


@pytest.fixture
def attribute():
    return KeywordAttribute()


def engine_kwargs(model, disk, k=3, capacity=100_000, flush_fraction=0.2):
    """Standard constructor kwargs for memory engines in unit tests."""
    return dict(
        model=model,
        ranking=TemporalRanking(),
        attribute=KeywordAttribute(),
        k=k,
        capacity_bytes=capacity,
        flush_fraction=flush_fraction,
        disk=disk,
    )


def tiny_system(policy="kflushing", **overrides):
    """A MicroblogSystem small enough for unit tests."""
    defaults = dict(
        policy=policy,
        k=3,
        memory_capacity_bytes=60_000,
        flush_fraction=0.2,
    )
    defaults.update(overrides)
    return MicroblogSystem(SystemConfig(**defaults))


@pytest.fixture
def geo():
    return GeoPoint(40.0, -74.0)
