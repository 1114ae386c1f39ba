"""Request arrivals and streams.

A :class:`Request` is one *arrival* of a file bundle — the unit the cache
simulator processes.  Several requests may carry the same bundle; the bundle
is the request *type* whose popularity ``v(r)`` the history tracks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.core.bundle import FileBundle
from repro.errors import ConfigError

__all__ = ["Request", "RequestStream"]


@dataclass(frozen=True, slots=True)
class Request:
    """One job arrival requesting a file bundle.

    Attributes
    ----------
    request_id:
        Sequence number of the arrival (unique within a trace).
    bundle:
        The set of files that must be simultaneously resident.
    arrival_time:
        Simulated arrival time in seconds (0.0 for untimed traces); finite
        and non-negative.
    priority:
        Optional external importance weight, finite and positive; the
        default value function of the history ignores it (the paper uses a
        pure occurrence counter) but priority-weighted values are
        supported as an extension.
    """

    request_id: int
    bundle: FileBundle
    arrival_time: float = 0.0
    priority: float = 1.0

    def __post_init__(self) -> None:
        if self.request_id < 0:
            raise ConfigError(f"request_id must be non-negative, got {self.request_id}")
        # NaN fails every comparison; a non-finite value would reach the
        # arrivals record as NaN or Infinity, which is not JSON
        if not 0 <= self.arrival_time < math.inf:
            raise ConfigError(
                f"arrival_time must be finite and non-negative, got {self.arrival_time}"
            )
        if not 0 < self.priority < math.inf:
            raise ConfigError(
                f"priority must be finite and positive, got {self.priority}"
            )


class RequestStream:
    """An ordered sequence of :class:`Request` arrivals.

    Thin wrapper over a list providing integrity checks (ids strictly
    increasing, arrival times non-decreasing) and convenience accessors.
    """

    __slots__ = ("_requests",)

    def __init__(self, requests: Iterable[Request] = ()):
        self._requests: list[Request] = []
        for req in requests:
            self.append(req)

    def append(self, request: Request) -> None:
        if self._requests:
            last = self._requests[-1]
            if request.request_id <= last.request_id:
                raise ConfigError(
                    f"request ids must be strictly increasing: "
                    f"{request.request_id} after {last.request_id}"
                )
            if request.arrival_time < last.arrival_time:
                raise ConfigError(
                    f"arrival times must be non-decreasing: "
                    f"{request.arrival_time} after {last.arrival_time}"
                )
        self._requests.append(request)

    def __len__(self) -> int:
        return len(self._requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self._requests)

    def __getitem__(self, index: int) -> Request:
        return self._requests[index]

    def bundles(self) -> list[FileBundle]:
        """The bundle of each arrival, in order."""
        return [r.bundle for r in self._requests]

    def distinct_bundles(self) -> set[FileBundle]:
        """The set of distinct request types appearing in the stream."""
        return {r.bundle for r in self._requests}

    def file_ids(self) -> set[str]:
        """All file ids referenced anywhere in the stream."""
        out: set[str] = set()
        for r in self._requests:
            out.update(r.bundle.files)
        return out

    @staticmethod
    def from_bundles(
        bundles: Sequence[FileBundle], *, start_id: int = 0
    ) -> "RequestStream":
        """Build an untimed stream from bundles in arrival order."""
        return RequestStream(
            Request(request_id=start_id + i, bundle=b) for i, b in enumerate(bundles)
        )
