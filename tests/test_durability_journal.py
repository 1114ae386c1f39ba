"""Unit tests for the durability primitives: atomic IO, WAL, checkpoints.

The recovery-path integration tests (crash → resume → byte-identical)
live in ``test_durability_recovery.py``; this file pins down the
building blocks those paths rely on — frame encoding, CRC rejection,
torn-tail tolerance, checkpoint validation and fallback.
"""

import json
import warnings
import zlib

import pytest

from repro.durability import (
    JOURNAL_MAGIC,
    JournalReader,
    JournalWriter,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    latest_checkpoint,
    list_checkpoints,
    load_checkpoint,
    read_journal_dir,
    write_checkpoint,
)
from repro.durability.checkpoint import CHECKPOINT_SCHEMA_VERSION, KEEP_CHECKPOINTS
from repro.durability.journal import _HEADER
from repro.errors import (
    CheckpointError,
    JournalCorruptError,
    JournalError,
    TraceTruncatedWarning,
)
from repro.telemetry import JsonlSink, validate_trace_file


# --------------------------------------------------------------------- #
# atomic IO


class TestAtomicIO:
    def test_write_text_replaces_atomically(self, tmp_path):
        p = tmp_path / "out.txt"
        atomic_write_text(p, "one")
        atomic_write_text(p, "two", fsync=False)
        assert p.read_text() == "two"
        # no temp litter left behind
        assert [f.name for f in tmp_path.iterdir()] == ["out.txt"]

    def test_write_bytes_and_json(self, tmp_path):
        atomic_write_bytes(tmp_path / "b.bin", b"\x00\x01", fsync=False)
        assert (tmp_path / "b.bin").read_bytes() == b"\x00\x01"
        atomic_write_json(tmp_path / "d.json", {"b": 2, "a": 1}, fsync=False)
        assert json.loads((tmp_path / "d.json").read_text()) == {"a": 1, "b": 2}


# --------------------------------------------------------------------- #
# the write-ahead journal


def _frames(n, start=0):
    return [{"job": i, "trace_offset": i * 100} for i in range(start, start + n)]


def _encoded(payload):
    # the compact JSON the durable runner's frame encoder writes
    return json.dumps(payload, separators=(",", ":")).encode()


class TestJournal:
    def test_round_trip(self, tmp_path):
        d = tmp_path / "journal"
        with JournalWriter(d) as w:
            for payload in _frames(5):
                w.append(_encoded(payload))
        frames, torn = read_journal_dir(d)
        assert not torn
        assert [f.payload for f in frames] == _frames(5)
        assert [f.job for f in frames] == list(range(5))

    def test_segment_rotation(self, tmp_path):
        d = tmp_path / "journal"
        with JournalWriter(d, max_segment_bytes=64) as w:
            for payload in _frames(10):
                w.append(_encoded(payload))
        segments = sorted(p.name for p in d.iterdir())
        assert len(segments) > 1
        frames, torn = read_journal_dir(d)
        assert not torn
        assert [f.payload for f in frames] == _frames(10)

    def test_bad_crc_rejected(self, tmp_path):
        d = tmp_path / "journal"
        with JournalWriter(d) as w:
            w.append(_encoded({"job": 0}))
        seg = next(iter(d.iterdir()))
        data = bytearray(seg.read_bytes())
        data[-1] ^= 0xFF  # flip a payload byte under an intact header
        seg.write_bytes(bytes(data))
        with pytest.raises(JournalCorruptError) as exc:
            read_journal_dir(d)
        assert "CRC32" in str(exc.value)

    def test_bad_magic_rejected(self, tmp_path):
        d = tmp_path / "journal"
        d.mkdir()
        (d / "wal-000000.log").write_bytes(b"NOTMAGIC")
        with pytest.raises(JournalCorruptError):
            read_journal_dir(d)

    def test_torn_tail_in_final_segment_tolerated(self, tmp_path):
        d = tmp_path / "journal"
        with JournalWriter(d) as w:
            for payload in _frames(3):
                w.append(_encoded(payload))
        seg = next(iter(d.iterdir()))
        seg.write_bytes(seg.read_bytes()[:-4])  # tear the last frame
        frames, torn = read_journal_dir(d)
        assert torn
        assert [f.job for f in frames] == [0, 1]

    def test_torn_interior_segment_is_corruption(self, tmp_path):
        d = tmp_path / "journal"
        w = JournalWriter(d, max_segment_bytes=48)
        for payload in _frames(8):
            w.append(_encoded(payload))
        w.close()
        segments = sorted(d.iterdir())
        assert len(segments) >= 2
        first = segments[0]
        first.write_bytes(first.read_bytes()[:-4])
        with pytest.raises(JournalCorruptError):
            read_journal_dir(d)

    def test_full_frame_with_wrong_length_prefix(self, tmp_path):
        d = tmp_path / "journal"
        d.mkdir()
        payload = b'{"job":0}'
        # header claims 4 more bytes than exist, with a matching CRC of
        # nothing useful — the reader must not tolerate this mid-file
        frame = _HEADER.pack(len(payload) + 4, zlib.crc32(payload)) + payload
        (d / "wal-000000.log").write_bytes(JOURNAL_MAGIC + frame + frame)
        with pytest.raises(JournalCorruptError):
            list(JournalReader(d / "wal-000000.log"))

    def test_truncate_to_checkpoint_clears_frames(self, tmp_path):
        d = tmp_path / "journal"
        w = JournalWriter(d)
        for payload in _frames(4):
            w.append(_encoded(payload))
        w.truncate_to_checkpoint()
        w.append(_encoded({"job": 99}))
        w.close()
        frames, torn = read_journal_dir(d)
        assert not torn
        assert [f.job for f in frames] == [99]

    def test_closed_writer_refuses_appends(self, tmp_path):
        w = JournalWriter(tmp_path / "j")
        w.close()
        with pytest.raises(JournalError):
            w.append(_encoded({"job": 0}))

    def test_invalid_config(self, tmp_path):
        with pytest.raises(JournalError):
            JournalWriter(tmp_path / "j", fsync="sometimes")
        with pytest.raises(JournalError):
            JournalWriter(tmp_path / "j", max_segment_bytes=0)


# --------------------------------------------------------------------- #
# checkpoints


def _write_ckpt(d, job, state=None):
    return write_checkpoint(
        d,
        job=job,
        arrivals_consumed=job,
        trace_offset=job * 1000,
        trace_seq=job * 10,
        state=state or {"cache": {"resident": []}, "policy": {}, "metrics": {}},
        fsync=False,
    )


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        path = _write_ckpt(tmp_path / "ck", 100)
        ck = load_checkpoint(path)
        assert ck.job == 100
        assert ck.trace_offset == 100_000
        assert ck.trace_seq == 1000
        assert ck.doc["schema_version"] == CHECKPOINT_SCHEMA_VERSION

    def test_crc_tamper_rejected(self, tmp_path):
        path = _write_ckpt(tmp_path / "ck", 100)
        doc = json.loads(path.read_text())
        doc["job"] = 200  # tamper without recomputing the CRC
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        assert "CRC" in str(exc.value)

    def test_unsupported_schema_version_rejected(self, tmp_path):
        path = _write_ckpt(tmp_path / "ck", 100)
        doc = json.loads(path.read_text())
        doc.pop("crc32")
        doc["schema_version"] = CHECKPOINT_SCHEMA_VERSION + 1
        body = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        doc["crc32"] = zlib.crc32(body)
        path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        assert "schema" in str(exc.value)

    def test_latest_falls_back_past_corrupt_newest(self, tmp_path):
        d = tmp_path / "ck"
        _write_ckpt(d, 100)
        newest = _write_ckpt(d, 200)
        newest.write_text("{ not json")
        ck = latest_checkpoint(d)
        assert ck is not None
        assert ck.job == 100

    def test_latest_none_when_all_corrupt(self, tmp_path):
        d = tmp_path / "ck"
        _write_ckpt(d, 100).write_text("")
        assert latest_checkpoint(d) is None
        assert latest_checkpoint(tmp_path / "missing") is None

    def test_retention_prunes_oldest(self, tmp_path):
        d = tmp_path / "ck"
        for job in (100, 200, 300, 400):
            _write_ckpt(d, job)
        kept = list_checkpoints(d)
        assert len(kept) == KEEP_CHECKPOINTS
        assert [load_checkpoint(p).job for p in kept] == [300, 400]


# --------------------------------------------------------------------- #
# sink accounting + torn-trace tolerance


class TestSinkAndTornTrace:
    def test_jsonl_sink_tracks_byte_frontier(self, tmp_path):
        p = tmp_path / "t.jsonl"
        sink = JsonlSink(p)
        sink.emit_line('{"a":1}')
        sink.emit_line('{"b":2}')
        sink.close()
        assert sink.bytes_written == p.stat().st_size
        assert sink.lines_written == 2
        appended = JsonlSink(p, append=True)
        assert appended.bytes_written == p.stat().st_size
        appended.close()

    def test_validate_trace_file_warns_on_torn_final_line(self, tmp_path):
        p = tmp_path / "t.jsonl"
        line = json.dumps(
            {"seq": 0, "kind": "JobArrived", "job": 0, "request_id": 1,
             "n_files": 2, "bytes_requested": 10},
            sort_keys=True,
        )
        intact = line + "\n"
        p.write_text(intact + '{"seq": 1, "kind": "Pl')  # torn mid-write
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            count = validate_trace_file(p)
        assert count == 1
        torn = [w for w in caught if issubclass(w.category, TraceTruncatedWarning)]
        assert len(torn) == 1
        assert torn[0].message.byte_offset == len(intact.encode())

    def test_validate_trace_file_intact(self, tmp_path):
        p = tmp_path / "t.jsonl"
        line = json.dumps(
            {"seq": 0, "kind": "JobArrived", "job": 0, "request_id": 1,
             "n_files": 2, "bytes_requested": 10},
            sort_keys=True,
        )
        p.write_text(line + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert validate_trace_file(p) == 1
