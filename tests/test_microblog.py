"""Unit tests for the Microblog record and GeoPoint."""

import pytest

from repro.model.microblog import GeoPoint, Microblog


class TestGeoPoint:
    def test_valid_point(self):
        p = GeoPoint(40.7, -74.0)
        assert p.latitude == 40.7
        assert p.longitude == -74.0

    @pytest.mark.parametrize("lat", [-90.0, 0.0, 90.0])
    def test_latitude_bounds_inclusive(self, lat):
        assert GeoPoint(lat, 0.0).latitude == lat

    @pytest.mark.parametrize("lat", [-90.1, 91.0, 180.0])
    def test_latitude_out_of_range(self, lat):
        with pytest.raises(ValueError, match="latitude"):
            GeoPoint(lat, 0.0)

    @pytest.mark.parametrize("lon", [-180.1, 181.0])
    def test_longitude_out_of_range(self, lon):
        with pytest.raises(ValueError, match="longitude"):
            GeoPoint(0.0, lon)

    def test_is_frozen(self):
        p = GeoPoint(1.0, 2.0)
        with pytest.raises(AttributeError):
            p.latitude = 5.0


class TestMicroblog:
    def test_basic_construction(self):
        blog = Microblog(
            blog_id=7,
            timestamp=12.5,
            user_id=3,
            text="go team",
            keywords=("nba", "finals"),
            followers=10,
        )
        assert blog.blog_id == 7
        assert blog.timestamp == 12.5
        assert blog.keywords == ("nba", "finals")
        assert blog.keyword_count == 2
        assert blog.followers == 10

    def test_repeated_keywords_kept_once_in_order(self):
        blog = Microblog(blog_id=1, timestamp=0.0, user_id=0, keywords=["b", "a", "b"])
        assert blog.keywords == ("b", "a")
        assert blog.keyword_count == 2

    def test_defaults(self):
        blog = Microblog(blog_id=1, timestamp=0.0, user_id=0)
        assert blog.text == ""
        assert blog.keywords == ()
        assert blog.location is None
        assert blog.followers == 0
        assert not blog.has_location

    def test_negative_blog_id_rejected(self):
        with pytest.raises(ValueError, match="blog_id"):
            Microblog(blog_id=-1, timestamp=0.0, user_id=0)

    def test_negative_followers_rejected(self):
        with pytest.raises(ValueError, match="followers"):
            Microblog(blog_id=1, timestamp=0.0, user_id=0, followers=-5)

    def test_empty_keyword_rejected(self):
        with pytest.raises(ValueError, match="keywords"):
            Microblog(blog_id=1, timestamp=0.0, user_id=0, keywords=("ok", ""))

    def test_keywords_iterable_coerced_to_tuple(self):
        blog = Microblog(blog_id=1, timestamp=0.0, user_id=0, keywords=["a", "b"])
        assert blog.keywords == ("a", "b")
        assert isinstance(blog.keywords, tuple)

    def test_has_location(self):
        blog = Microblog(
            blog_id=1, timestamp=0.0, user_id=0, location=GeoPoint(1.0, 2.0)
        )
        assert blog.has_location

    def test_with_keywords_returns_copy(self):
        blog = Microblog(blog_id=1, timestamp=0.0, user_id=0, keywords=("a",))
        other = blog.with_keywords(["x", "y"])
        assert other.keywords == ("x", "y")
        assert blog.keywords == ("a",)
        assert other.blog_id == blog.blog_id

    def test_age_at(self):
        blog = Microblog(blog_id=1, timestamp=10.0, user_id=0)
        assert blog.age_at(25.0) == 15.0

    def test_is_frozen(self):
        blog = Microblog(blog_id=1, timestamp=0.0, user_id=0)
        with pytest.raises(AttributeError):
            blog.text = "nope"

    def test_str_contains_id_and_tags(self):
        blog = Microblog(
            blog_id=9, timestamp=1.0, user_id=2, text="hi", keywords=("tag",)
        )
        rendered = str(blog)
        assert "9" in rendered
        assert "#tag" in rendered

    def test_hashable(self):
        blog = Microblog(blog_id=1, timestamp=0.0, user_id=0, keywords=("a",))
        assert blog in {blog}
