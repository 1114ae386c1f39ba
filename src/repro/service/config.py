"""Configuration of the online cache-coordinator service.

A :class:`ServiceConfig` is the service-shaped view of the same knobs
the batch drivers take: the simulation parameters
(:class:`~repro.sim.simulator.SimulationConfig` minus queueing — the
service admits jobs in arrival order), the durability parameters of
:class:`~repro.durability.runner.DurabilityConfig`, and the chaos specs
(:class:`~repro.faults.crash.CrashSpec`,
:class:`~repro.faults.spec.FaultSpec`).

``workload`` names a workload-trace file; the service takes its file
catalog (and, for clairvoyant policies, the ``future`` bundle sequence)
from it, so a differential replay of that trace through the server and
through the batch simulator sees identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any

from repro.durability.journal import DEFAULT_SEGMENT_BYTES
from repro.durability.runner import DurabilityConfig
from repro.errors import ConfigError
from repro.faults.crash import CrashSpec
from repro.faults.spec import FaultSpec
from repro.service.slo import SloConfig

__all__ = ["ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Parameters of one coordinator-service run.

    Attributes
    ----------
    workload:
        Workload-trace file supplying the file catalog and the future
        bundle sequence (clairvoyant policies).
    cache_size:
        Cache capacity in bytes.
    run_dir:
        The durable run directory (arrivals record, telemetry trace,
        journal, checkpoints — the PR-6 layout plus ``arrivals.jsonl``).
    policy / policy_kwargs:
        Replacement-policy registry name and factory kwargs.
    warmup:
        Jobs excluded from reported metrics (cache state still updates).
    check_invariants:
        Assert cache consistency after every job.
    checkpoint_every:
        Snapshot full state every N jobs (journal truncated each time).
    fsync:
        ``"rotate"`` (OS-buffered between checkpoints) or ``"always"``
        (fsync every commit) — the durable runner's contract.
    max_segment_bytes:
        Journal segment rotation threshold.
    crash:
        Optional deterministic crash injection, ticked once per journal
        commit (chaos testing).
    fault:
        Optional grid-fault model; transfer faults are consulted per
        demand load and surface as simulated retries in the response
        payload and the ``service_transfer_faults_total`` counter (they
        never enter the decision trace, so fault chaos does not break
        differential trace comparison).  Latency spikes add a simulated
        stall to the SLO latency signal (again: metrics only).
    debug_ring:
        Capacity of the request-tracing ring behind ``/v1/debug/requests``
        (0 disables request tracing entirely; the decision trace is
        byte-identical either way).
    slow_threshold_ms:
        Requests at or over this server-side duration land in the
        ``/v1/debug/slow`` ring.
    profile_stream:
        Also append one JSON line per traced request to
        ``<run_dir>/profile.jsonl`` — host timings, a profiling artifact
        deliberately separate from ``trace.jsonl``.
    slo:
        Online SLO engine knobs (:class:`~repro.service.slo.SloConfig`).
    """

    workload: Path
    cache_size: int
    run_dir: Path
    policy: str = "optbundle"
    policy_kwargs: dict[str, Any] = field(default_factory=dict)
    warmup: int = 0
    check_invariants: bool = False
    checkpoint_every: int = 100
    fsync: str = "rotate"
    max_segment_bytes: int = DEFAULT_SEGMENT_BYTES
    crash: CrashSpec | None = None
    fault: FaultSpec | None = None
    debug_ring: int = 256
    slow_threshold_ms: float = 100.0
    profile_stream: bool = False
    slo: SloConfig = field(default_factory=SloConfig)

    def __post_init__(self) -> None:
        object.__setattr__(self, "workload", Path(self.workload))
        object.__setattr__(self, "run_dir", Path(self.run_dir))
        if self.cache_size <= 0:
            raise ConfigError(
                f"cache_size must be positive, got {self.cache_size}"
            )
        if self.warmup < 0:
            raise ConfigError(f"warmup must be non-negative, got {self.warmup}")
        if self.debug_ring < 0:
            raise ConfigError(
                f"debug_ring must be non-negative, got {self.debug_ring}"
            )
        if self.slow_threshold_ms <= 0:
            raise ConfigError(
                f"slow_threshold_ms must be positive, got {self.slow_threshold_ms}"
            )
        self.durability  # validates checkpoint_every, fsync, max_segment_bytes

    @cached_property
    def durability(self) -> DurabilityConfig:
        """The run's durability parameters, built (and validated) once."""
        return DurabilityConfig(
            run_dir=self.run_dir,
            checkpoint_every=self.checkpoint_every,
            fsync=self.fsync,
            max_segment_bytes=self.max_segment_bytes,
            crash=self.crash,
        )
