"""Cross-driver differential: the durable runner and the service commit alike.

Both drivers run the same journaled commit pipeline, so the same
workload fed in order through :class:`CoordinatorState` and through
:func:`run_durable` (``queue_length=1``) must leave byte-identical
telemetry traces, the same journal payloads and the same checkpoint
records — uninterrupted, and after an injected crash at the same job
followed by each driver's own resume.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.history import TruncationMode
from repro.durability import DurabilityConfig, resume_run, run_durable
from repro.durability.checkpoint import latest_checkpoint, load_checkpoint
from repro.durability.journal import read_journal_dir
from repro.durability.runner import _encode_frame
from repro.errors import InjectedCrashError
from repro.faults.crash import CrashSpec
from repro.service import CoordinatorState, ServiceConfig
from repro.sim.simulator import SimulationConfig
from repro.types import MB
from repro.workload.generator import WorkloadSpec, generate_trace

CACHE = 64 * MB
CKPT_EVERY = 100
#: lands 57 jobs past the checkpoint at job 200
CRASH_AT = 257

CONFIGS = {
    "optbundle": ("optbundle", {}),
    "optbundle-full": ("optbundle", {"truncation": TruncationMode.FULL}),
    "landlord": ("landlord", {}),
}


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    trace = generate_trace(
        WorkloadSpec(
            cache_size=CACHE,
            n_files=100,
            n_request_types=60,
            n_jobs=430,
            popularity="zipf",
            max_file_fraction=0.05,
            max_bundle_fraction=0.25,
            seed=3,
        )
    )
    path = tmp_path_factory.mktemp("workload") / "workload.jsonl"
    trace.dump(path)
    return trace, path


def _batch(trace, run_dir, policy, kwargs, crash):
    config = SimulationConfig(
        cache_size=CACHE, policy=policy, policy_kwargs=kwargs, queue_length=1
    )
    durability = DurabilityConfig(
        run_dir=run_dir, checkpoint_every=CKPT_EVERY, crash=crash
    )
    if crash is None:
        run_durable(trace, config, durability)
        return None
    with pytest.raises(InjectedCrashError):
        run_durable(trace, config, durability)
    return _tail_frames(run_dir), resume_run(run_dir).replayed_jobs


def _feed(state, requests):
    for request in requests:
        state.submit(sorted(request.bundle.files), priority=request.priority)


def _service(trace, path, run_dir, policy, kwargs, crash):
    state = CoordinatorState.create(
        ServiceConfig(
            workload=path,
            cache_size=CACHE,
            run_dir=run_dir,
            policy=policy,
            policy_kwargs=kwargs,
            checkpoint_every=CKPT_EVERY,
            crash=crash,
        )
    )
    requests = list(trace)
    try:
        if crash is None:
            _feed(state, requests)
        else:
            with pytest.raises(InjectedCrashError):
                _feed(state, requests)
    finally:
        # the HTTP layer tears the state down the same way after a crash
        state.close()
    if crash is None:
        return None
    tail = _tail_frames(run_dir)
    resumed = CoordinatorState.resume(run_dir)
    try:
        _feed(resumed, requests[resumed.next_job :])
    finally:
        resumed.close()
    return tail, len(tail)


def _tail_frames(run_dir):
    """Journal payloads past the newest checkpoint: what a resume replays.

    A resume that succeeds has verified every one of them (each driver
    raises when re-execution produces fewer frames than survived).
    """
    ckpt = latest_checkpoint(run_dir / "checkpoints")
    start = 0 if ckpt is None else ckpt.job
    frames, _torn = read_journal_dir(run_dir / "journal")
    return [f.payload for f in frames if f.job >= start]


def _artifacts(run_dir):
    frames, torn = read_journal_dir(run_dir / "journal")
    checkpoints = []
    for path in sorted((run_dir / "checkpoints").iterdir()):
        ckpt = load_checkpoint(path)
        checkpoints.append(
            (ckpt.job, ckpt.trace_offset, ckpt.trace_seq, ckpt.state)
        )
    return {
        "trace": (run_dir / "trace.jsonl").read_bytes(),
        "journal": [f.payload for f in frames],
        "torn": torn,
        "checkpoints": checkpoints,
    }


@pytest.mark.parametrize("crash_at", [None, CRASH_AT], ids=["clean", "crash"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_drivers_commit_identically(workload, tmp_path, name, crash_at):
    trace, path = workload
    policy, kwargs = CONFIGS[name]
    crash = None if crash_at is None else CrashSpec(at_mutation=crash_at, mode="raise")

    batch_dir = tmp_path / "batch"
    service_dir = tmp_path / "service"
    batch_resume = _batch(trace, batch_dir, policy, kwargs, crash)
    service_resume = _service(trace, path, service_dir, policy, kwargs, crash)

    batch = _artifacts(batch_dir)
    service = _artifacts(service_dir)
    assert batch["trace"] == service["trace"]
    assert batch["journal"] == service["journal"]
    assert batch["checkpoints"] == service["checkpoints"]
    assert [c[0] for c in batch["checkpoints"]]
    if crash is not None:
        batch_tail, batch_replayed = batch_resume
        service_tail, service_replayed = service_resume
        assert batch_tail == service_tail
        assert batch_replayed == service_replayed == CRASH_AT - 200


FRAME_KEYS = (
    "job",
    "request_id",
    "trace_start",
    "trace_offset",
    "seq",
    "arrivals_consumed",
)


@given(st.tuples(*(st.integers(min_value=0) for _ in FRAME_KEYS)))
@settings(max_examples=200, deadline=None)
def test_hand_rolled_frame_encoder_matches_the_journal_encoding(values):
    """The journal frame's one encoder writes compact ``json.dumps``
    bytes: replay compares decoded frames, so only this pins key order
    and spacing."""
    frame = dict(zip(FRAME_KEYS, values))
    assert _encode_frame(frame) == json.dumps(frame, separators=(",", ":")).encode()
