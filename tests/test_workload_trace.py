"""Unit tests for Trace and its JSONL serialization."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bundle import FileBundle
from repro.core.request import Request, RequestStream
from repro.errors import TraceFormatError
from repro.types import FileCatalog
from repro.workload.trace import Trace, encode_header, encode_request_line


def make_trace():
    catalog = FileCatalog({"a": 5, "b": 7, "c": 11})
    stream = RequestStream(
        [
            Request(0, FileBundle(["a", "b"]), arrival_time=0.5),
            Request(1, FileBundle(["c"]), arrival_time=1.5, priority=2.0),
        ]
    )
    return Trace(catalog, stream, meta={"note": "test"})


class TestTrace:
    def test_rejects_unknown_files(self):
        with pytest.raises(TraceFormatError):
            Trace(
                FileCatalog({"a": 1}),
                RequestStream([Request(0, FileBundle(["zzz"]))]),
            )

    def test_len_iter_bundles(self):
        t = make_trace()
        assert len(t) == 2
        assert [r.request_id for r in t] == [0, 1]
        assert t.bundles()[1] == FileBundle(["c"])

    def test_total_requested_bytes(self):
        assert make_trace().total_requested_bytes() == (5 + 7) + 11

    def test_distinct_request_types(self):
        assert make_trace().distinct_request_types() == 2


class TestSerialization:
    def test_roundtrip_lines(self):
        t = make_trace()
        t2 = Trace.load_lines(t.dump_lines())
        assert t2.meta == t.meta
        assert t2.catalog.as_dict() == t.catalog.as_dict()
        assert t2.bundles() == t.bundles()
        assert t2.stream[1].priority == 2.0
        assert t2.stream[1].arrival_time == 1.5

    def test_roundtrip_file(self, tmp_path):
        t = make_trace()
        path = tmp_path / "trace.jsonl"
        t.dump(path)
        t2 = Trace.load(path)
        assert t2.bundles() == t.bundles()

    def test_empty_input_rejected(self):
        with pytest.raises(TraceFormatError, match="empty"):
            Trace.load_lines([])

    def test_missing_header_rejected(self):
        with pytest.raises(TraceFormatError, match="header"):
            Trace.load_lines(['{"type": "job", "id": 0, "files": ["a"]}'])

    def test_bad_version_rejected(self):
        with pytest.raises(TraceFormatError, match="version"):
            Trace.load_lines(
                ['{"type": "header", "version": 99, "files": {"a": 1}}']
            )

    def test_invalid_json_rejected(self):
        with pytest.raises(TraceFormatError, match="JSON"):
            Trace.load_lines(["not json"])

    def test_non_object_line_rejected(self):
        with pytest.raises(TraceFormatError, match="object"):
            Trace.load_lines(["[1,2]"])

    def test_bad_job_record_rejected(self):
        header = '{"type": "header", "version": 1, "files": {"a": 1}}'
        with pytest.raises(TraceFormatError, match="bad job"):
            Trace.load_lines([header, '{"type": "job", "files": ["a"]}'])

    def test_unexpected_record_type_rejected(self):
        header = '{"type": "header", "version": 1, "files": {"a": 1}}'
        with pytest.raises(TraceFormatError, match="unexpected"):
            Trace.load_lines([header, '{"type": "mystery"}'])

    def test_blank_lines_skipped(self):
        t = make_trace()
        lines = list(t.dump_lines())
        lines.insert(1, "")
        assert len(Trace.load_lines(lines)) == 2


# --------------------------------------------------------------------- #
# the one header and job-line encoder, pinned to the historical inline forms


def _inline_header(meta, catalog):
    return json.dumps(
        {
            "type": "header",
            "version": 1,
            "meta": meta,
            "files": {fid: size for fid, size in catalog.items()},
        },
        sort_keys=True,
    )


def _inline_job(req):
    return json.dumps(
        {
            "files": sorted(req.bundle.files),
            "id": req.request_id,
            "priority": req.priority,
            "t": req.arrival_time,
            "type": "job",
        }
    )


@st.composite
def _traces(draw):
    # non-ASCII file ids exercise json's \u escapes on both sides
    fids = draw(
        st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=8, unique=True)
    )
    catalog = FileCatalog(
        {fid: draw(st.integers(min_value=1, max_value=2**40)) for fid in fids}
    )
    n_jobs = draw(st.integers(min_value=0, max_value=6))
    times = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
                min_size=n_jobs,
                max_size=n_jobs,
            )
        )
    )
    priorities = st.one_of(
        st.integers(min_value=1, max_value=10**6),
        st.floats(min_value=1e-9, max_value=1e9, allow_nan=False),
    )
    first_id = draw(st.integers(min_value=0, max_value=10**6))
    stream = RequestStream(
        Request(
            first_id + k,
            FileBundle(draw(st.lists(st.sampled_from(fids), min_size=1))),
            arrival_time=t,
            priority=draw(priorities),
        )
        for k, t in enumerate(times)
    )
    meta = draw(
        st.dictionaries(st.text(max_size=5), st.one_of(st.integers(), st.text()))
    )
    return Trace(catalog, stream, meta=meta)


@given(_traces())
@settings(max_examples=200, deadline=None)
def test_shared_encoders_match_the_inline_forms_and_round_trip(t):
    """The arrivals record and workload files are written by these two
    encoders; their bytes must equal what the inline ``json.dumps`` call
    sites wrote, so records written before and after stay identical."""
    header = encode_header(t.meta, t.catalog)
    assert header == _inline_header(t.meta, t.catalog)
    for req in t:
        assert encode_request_line(req) == _inline_job(req)
    lines = list(t.dump_lines())
    assert lines == [header] + [_inline_job(req) for req in t]

    back = Trace.load_lines(lines)
    assert back.meta == t.meta
    assert back.catalog.as_dict() == t.catalog.as_dict()
    assert [
        (r.request_id, r.bundle, r.arrival_time, r.priority) for r in back
    ] == [(r.request_id, r.bundle, r.arrival_time, r.priority) for r in t]
