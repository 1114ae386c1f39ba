"""The trace line format, end to end: old run directories and job responses.

``encode_event`` replaced a ``json.dumps`` per event; these tests pin
what that must not change:

* a run directory whose first part was written by the reference encoder
  resumes under the new one — the replay oracle accepts every surviving
  frame and its trace bytes, and the stitched trace equals an
  uninterrupted reference-encoder run byte for byte (both drivers);
* a ``POST /v1/jobs`` body, which splices the job's trace lines in
  verbatim, is the canonical JSON of its parsed form, with or without
  the debug ring's ``timing_ms``;
* a job's lines are exactly its own: nothing emitted after ``submit``
  returns is appended to them.
"""

from __future__ import annotations

import http.client
import json
from contextlib import contextmanager

import pytest

import repro.durability.runner as runner
import repro.telemetry.sinks as sinks
from repro.durability import DurabilityConfig, resume_run, run_durable
from repro.durability.journal import read_journal_dir
from repro.errors import InjectedCrashError
from repro.faults.crash import CrashSpec
from repro.service import CoordinatorState, ServiceConfig
from repro.service.http import json_response
from repro.service.testing import running_service
from repro.sim.simulator import SimulationConfig
from repro.telemetry.events import FaultInjected, event_to_dict
from repro.types import MB
from repro.workload.generator import WorkloadSpec, generate_trace

CACHE = 48 * MB
CKPT_EVERY = 100
#: 50 jobs past the checkpoint at job 100
CRASH_AT = 150
POLICIES = ("optbundle", "landlord")


def _reference_line(seq, event):
    return json.dumps(event_to_dict(seq, event), sort_keys=True, separators=(",", ":"))


@contextmanager
def _reference_encoder():
    """Write trace lines the way every run before ``encode_event`` did."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "encode_event", _reference_line)
        mp.setattr(sinks, "encode_event", _reference_line)
        yield


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    trace = generate_trace(
        WorkloadSpec(
            cache_size=CACHE,
            n_files=90,
            n_request_types=50,
            n_jobs=260,
            popularity="zipf",
            max_file_fraction=0.05,
            max_bundle_fraction=0.25,
            seed=41,
        )
    )
    path = tmp_path_factory.mktemp("workload") / "workload.jsonl"
    trace.dump(path)
    return trace, path


def _sim_config(policy):
    return SimulationConfig(cache_size=CACHE, policy=policy, queue_length=1)


def _service_config(path, run_dir, policy, **kw):
    return ServiceConfig(
        workload=path,
        cache_size=CACHE,
        run_dir=run_dir,
        policy=policy,
        checkpoint_every=CKPT_EVERY,
        **kw,
    )


def _feed(state, requests):
    for request in requests:
        state.submit(sorted(request.bundle.files), priority=request.priority)


def _surviving_frames(run_dir):
    frames, _torn = read_journal_dir(run_dir / "journal")
    return [f for f in frames if f.job >= CKPT_EVERY]


@pytest.mark.parametrize("policy", POLICIES)
def test_batch_run_written_by_the_reference_encoder_resumes(
    workload, tmp_path, policy
):
    trace, _path = workload
    with _reference_encoder():
        run_durable(
            trace,
            _sim_config(policy),
            DurabilityConfig(run_dir=tmp_path / "ref", checkpoint_every=CKPT_EVERY),
        )
        with pytest.raises(InjectedCrashError):
            run_durable(
                trace,
                _sim_config(policy),
                DurabilityConfig(
                    run_dir=tmp_path / "run",
                    checkpoint_every=CKPT_EVERY,
                    crash=CrashSpec(at_mutation=CRASH_AT, mode="raise"),
                ),
            )
    survivors = len(_surviving_frames(tmp_path / "run"))
    assert survivors == CRASH_AT - CKPT_EVERY

    report = resume_run(tmp_path / "run", verify=True)
    assert report.resumed_from_job == CKPT_EVERY
    assert report.replayed_jobs == survivors
    assert (tmp_path / "run" / "trace.jsonl").read_bytes() == (
        tmp_path / "ref" / "trace.jsonl"
    ).read_bytes()


@pytest.mark.parametrize("policy", POLICIES)
def test_service_run_written_by_the_reference_encoder_resumes(
    workload, tmp_path, policy
):
    trace, path = workload
    requests = list(trace)
    with _reference_encoder():
        with CoordinatorState.create(
            _service_config(path, tmp_path / "ref", policy)
        ) as state:
            _feed(state, requests)
        state = CoordinatorState.create(
            _service_config(
                path,
                tmp_path / "run",
                policy,
                crash=CrashSpec(at_mutation=CRASH_AT, mode="raise"),
            )
        )
        try:
            with pytest.raises(InjectedCrashError):
                _feed(state, requests)
        finally:
            state.close()
    survivors = len(_surviving_frames(tmp_path / "run"))
    assert survivors == CRASH_AT - CKPT_EVERY

    # a resume that returns has checked every surviving frame and its
    # trace bytes against the re-executed job (it raises otherwise)
    with CoordinatorState.resume(tmp_path / "run", verify=True) as resumed:
        assert resumed.resumed_from_job == CKPT_EVERY
        assert resumed.journaled.replayed == survivors
        _feed(resumed, requests[resumed.next_job :])
    assert (tmp_path / "run" / "trace.jsonl").read_bytes() == (
        tmp_path / "ref" / "trace.jsonl"
    ).read_bytes()


def _post(port, files):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("POST", "/v1/jobs", body=json.dumps({"files": files}))
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


@pytest.mark.parametrize("debug_ring", [256, 0], ids=["ring", "no-ring"])
@pytest.mark.parametrize("policy", POLICIES)
def test_job_response_is_the_canonical_form_of_its_payload(
    workload, tmp_path, policy, debug_ring
):
    trace, path = workload
    run_dir = tmp_path / "run"
    state = CoordinatorState.create(
        _service_config(path, run_dir, policy, debug_ring=debug_ring)
    )
    bodies = []
    with running_service(state) as svc:
        for request in list(trace)[:120]:
            status, body = _post(svc.port, sorted(request.bundle.files))
            assert status == 200
            bodies.append(body)

    trace_lines = (run_dir / "trace.jsonl").read_bytes().splitlines()
    at = 0
    for body in bodies:
        doc = json.loads(body)
        assert body == json_response(doc).body
        assert ("timing_ms" in doc) == (debug_ring > 0)
        # the splice relies on "events" sorting first among the keys
        assert all("events" < key for key in doc if key != "events")
        # ... and carries the job's trace lines byte for byte
        lines = trace_lines[at : at + len(doc["events"])]
        assert body.startswith(b'{"events":[' + b",".join(lines) + b"],")
        at += len(lines)
    assert at == len(trace_lines)


def test_response_body_matches_json_response_of_as_dict(workload, tmp_path):
    trace, path = workload
    with CoordinatorState.create(
        _service_config(path, tmp_path / "run", "landlord")
    ) as state:
        for request in list(trace)[:60]:
            result = state.submit(sorted(request.bundle.files))
            assert result.response_body() == json_response(result.as_dict()).body
            timing = {"decision_ms": 0.25, "total_ms": 1.5}
            doc = result.as_dict()
            doc["timing_ms"] = timing
            assert result.response_body(timing) == json_response(doc).body


def test_lines_emitted_after_submit_stay_out_of_the_job(workload, tmp_path):
    trace, path = workload
    requests = list(trace)
    with CoordinatorState.create(
        _service_config(path, tmp_path / "run", "optbundle")
    ) as state:
        first = state.submit(sorted(requests[0].bundle.files))
        lines = list(first.lines)
        state.recorder.emit(FaultInjected(fault="drive", component="between-jobs"))
        assert first.lines == lines
        second = state.submit(sorted(requests[1].bundle.files))
        assert first.lines == lines
        assert not any("between-jobs" in line for line in second.lines)
        assert json.loads(second.lines[0])["kind"] == "JobArrived"
