"""Unit tests for Request and RequestStream."""

import math

import pytest

from repro.core.bundle import FileBundle
from repro.core.request import Request, RequestStream


def _req(i, files=("a",), t=0.0):
    return Request(request_id=i, bundle=FileBundle(files), arrival_time=t)


class TestRequest:
    def test_valid(self):
        r = _req(0)
        assert r.priority == 1.0

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            _req(-1)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            _req(0, t=-1.0)

    def test_nonpositive_priority_rejected(self):
        with pytest.raises(ValueError):
            Request(0, FileBundle(["a"]), priority=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_priority_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            Request(0, FileBundle(["a"]), priority=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_arrival_time_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            _req(0, t=value)


class TestRequestStream:
    def test_append_and_iterate(self):
        s = RequestStream([_req(0), _req(1, ("b",))])
        assert len(s) == 2
        assert [r.request_id for r in s] == [0, 1]
        assert s[1].bundle == FileBundle(["b"])

    def test_ids_must_increase(self):
        s = RequestStream([_req(0)])
        with pytest.raises(ValueError, match="strictly increasing"):
            s.append(_req(0))

    def test_times_must_not_decrease(self):
        s = RequestStream([_req(0, t=5.0)])
        with pytest.raises(ValueError, match="non-decreasing"):
            s.append(_req(1, t=4.0))

    def test_bundles_and_distinct(self):
        s = RequestStream([_req(0, ("a",)), _req(1, ("a",)), _req(2, ("b",))])
        assert len(s.bundles()) == 3
        assert s.distinct_bundles() == {FileBundle(["a"]), FileBundle(["b"])}

    def test_file_ids(self):
        s = RequestStream([_req(0, ("a", "b")), _req(1, ("b", "c"))])
        assert s.file_ids() == {"a", "b", "c"}

    def test_from_bundles(self):
        s = RequestStream.from_bundles([FileBundle(["a"]), FileBundle(["b"])])
        assert [r.request_id for r in s] == [0, 1]

    def test_from_bundles_start_id(self):
        s = RequestStream.from_bundles([FileBundle(["a"])], start_id=10)
        assert s[0].request_id == 10
