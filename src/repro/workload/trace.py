"""Trace container and JSONL (de)serialization.

A :class:`Trace` bundles the file catalog (sizes) with the job stream so a
workload is fully self-contained and replayable.  The on-disk format is
line-delimited JSON: one header line with metadata and the catalog,
followed by one line per job — appendable, diffable, and streamable.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.core.bundle import FileBundle
from repro.core.request import Request, RequestStream
from repro.errors import TraceFormatError
from repro.types import FileCatalog

__all__ = ["Trace", "encode_header", "encode_request_line"]

_FORMAT_VERSION = 1


class Trace:
    """A replayable workload: file catalog + ordered job stream + metadata."""

    def __init__(
        self,
        catalog: FileCatalog,
        stream: RequestStream,
        meta: dict[str, Any] | None = None,
    ):
        for fid in stream.file_ids():
            if fid not in catalog:
                raise TraceFormatError(f"job references unknown file {fid!r}")
        self.catalog = catalog
        self.stream = stream
        self.meta: dict[str, Any] = dict(meta or {})

    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.stream)

    def __iter__(self) -> Iterator[Request]:
        return iter(self.stream)

    def bundles(self) -> list[FileBundle]:
        return self.stream.bundles()

    def total_requested_bytes(self) -> int:
        """Sum over jobs of their bundle size (the byte-miss denominator)."""
        sizes = self.catalog
        return sum(r.bundle.size_under(sizes.as_dict()) for r in self.stream)

    def distinct_request_types(self) -> int:
        return len(self.stream.distinct_bundles())

    # ------------------------------------------------------------------ #
    # serialization

    def dump(self, path: str | Path) -> None:
        """Atomically write the trace as JSONL (temp file + rename)."""
        # imported lazily: repro.durability pulls in the simulator, which
        # imports this module
        from repro.durability.atomicio import atomic_write_text

        try:
            atomic_write_text(
                Path(path), "".join(line + "\n" for line in self.dump_lines())
            )
        except OSError as exc:
            raise TraceFormatError(f"{path}: unwritable trace: {exc}") from None

    def dump_lines(self) -> Iterable[str]:
        yield encode_header(self.meta, self.catalog)
        for req in self.stream:
            yield encode_request_line(req)

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        """Read a trace written by :meth:`dump`."""
        path = Path(path)
        try:
            with path.open("r", encoding="utf-8") as fh:
                return cls.load_lines(fh)
        except OSError as exc:
            raise TraceFormatError(f"{path}: unreadable trace: {exc}") from None

    @classmethod
    def load_lines(cls, lines: Iterable[str]) -> "Trace":
        it = iter(lines)
        try:
            first = next(it)
        except StopIteration:
            raise TraceFormatError("empty trace") from None
        header = _parse_json(first)
        if header.get("type") != "header":
            raise TraceFormatError("first line must be the header record")
        if header.get("version") != _FORMAT_VERSION:
            raise TraceFormatError(
                f"unsupported trace version {header.get('version')!r}"
            )
        files = header.get("files")
        if not isinstance(files, dict):
            raise TraceFormatError("header has no file catalog")
        catalog = FileCatalog({str(k): int(v) for k, v in files.items()})

        stream = RequestStream()
        for line in it:
            if not line.strip():
                continue
            rec = _parse_json(line)
            if rec.get("type") != "job":
                raise TraceFormatError(f"unexpected record type {rec.get('type')!r}")
            try:
                stream.append(
                    Request(
                        request_id=int(rec["id"]),
                        bundle=FileBundle(rec["files"]),
                        arrival_time=float(rec.get("t", 0.0)),
                        priority=float(rec.get("priority", 1.0)),
                    )
                )
            except (KeyError, ValueError, TypeError) as exc:
                raise TraceFormatError(f"bad job record {rec!r}: {exc}") from exc
        return cls(catalog, stream, meta=dict(header.get("meta") or {}))


def encode_header(meta: dict[str, Any], catalog: FileCatalog) -> str:
    """The header line of a workload or arrivals trace (no newline)."""
    return json.dumps(
        {
            "type": "header",
            "version": _FORMAT_VERSION,
            "meta": meta,
            "files": dict(catalog.items()),
        },
        sort_keys=True,
    )


def encode_request_line(req: Request) -> str:
    """One job line of a workload or arrivals trace (no newline).

    Keys are listed in sorted order so insertion order is the canonical
    order and per-line ``sort_keys`` work is skipped (this is on the
    durable runner's setup path and the service's write path).
    """
    return json.dumps(
        {
            "files": sorted(req.bundle.files),
            "id": req.request_id,
            "priority": req.priority,
            "t": req.arrival_time,
            "type": "job",
        }
    )


def _parse_json(line: str) -> dict[str, Any]:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"invalid JSON line: {exc}") from exc
    if not isinstance(obj, dict):
        raise TraceFormatError("each trace line must be a JSON object")
    return obj
