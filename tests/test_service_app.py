"""End-to-end coordinator service tests: HTTP surface + differential.

The headline contracts:

* at client concurrency 1 the service's decision trace is
  **byte-identical** to the batch simulator's on the same workload;
* at higher concurrency the trace still passes invariant checking and
  reconstructs the live cache exactly (only arrival order interleaves);
* an injected crash mid-load, followed by ``--resume`` and a loadgen
  continuation from ``/healthz``, yields a stitched trace and final
  metrics byte-identical to an uninterrupted run (SIGKILL variant runs
  through the real CLI in a subprocess).
"""

from __future__ import annotations

import http.client
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.durability.runner import _config_to_manifest
from repro.errors import InjectedCrashError
from repro.faults.crash import CrashSpec
from repro.faults.spec import FaultSpec
from repro.service import (
    ROUTES,
    CoordinatorState,
    ServiceConfig,
    run_loadgen,
)
from repro.service.state import _simulation_config
from repro.service.testing import running_service
from repro.sim.simulator import SimulationConfig, simulate_trace
from repro.telemetry.forensics.reconstruct import (
    reconstruct,
    verify_against_cache,
)
from repro.telemetry.metrics import PROMETHEUS_CONTENT_TYPE
from repro.telemetry.recorder import TraceRecorder
from repro.telemetry.sinks import JsonlSink
from repro.types import MB
from repro.workload.generator import WorkloadSpec, generate_trace

CACHE = 32 * MB
POLICY = "landlord"
CKPT_EVERY = 25


@pytest.fixture(scope="module")
def trace():
    return generate_trace(
        WorkloadSpec(
            cache_size=CACHE,
            n_files=80,
            n_request_types=40,
            n_jobs=100,
            popularity="zipf",
            max_file_fraction=0.05,
            max_bundle_fraction=0.25,
            seed=23,
        )
    )


@pytest.fixture(scope="module")
def workload_path(trace, tmp_path_factory):
    path = tmp_path_factory.mktemp("svc") / "workload.jsonl"
    trace.dump(path)
    return path


def _config(workload_path, run_dir, **kw) -> ServiceConfig:
    return ServiceConfig(
        workload=workload_path,
        cache_size=CACHE,
        run_dir=run_dir,
        policy=POLICY,
        checkpoint_every=CKPT_EVERY,
        **kw,
    )


def _get(port: int, path: str, method: str = "GET", body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        payload = json.dumps(body) if body is not None else None
        conn.request(method, path, body=payload)
        response = conn.getresponse()
        data = response.read()
        return response.status, response.getheader("Content-Type"), data
    finally:
        conn.close()


def _batch_reference(trace, path) -> object:
    with TraceRecorder(JsonlSink(path)) as rec:
        return simulate_trace(
            trace,
            SimulationConfig(cache_size=CACHE, policy=POLICY),
            recorder=rec,
        )


class TestHttpSurface:
    def test_read_endpoints_and_job_submission(self, workload_path, tmp_path):
        state = CoordinatorState.create(_config(workload_path, tmp_path / "run"))
        with running_service(state) as svc:
            status, ctype, body = _get(svc.port, "/healthz")
            assert status == 200 and ctype == "application/json"
            health = json.loads(body)
            assert health["status"] == "ok" and health["jobs"] == 0
            assert health["policy"] == POLICY

            status, _, body = _get(svc.port, "/v1/config")
            config = json.loads(body)
            assert config["policy"] == POLICY
            assert config["cache_size"] == CACHE
            assert config["checkpoint_every"] == CKPT_EVERY

            files = sorted(state.sizes)[:2]
            status, _, body = _get(
                svc.port, "/v1/jobs", "POST",
                {"files": files, "priority": 2.0},
            )
            assert status == 200
            doc = json.loads(body)
            assert doc["outcome"]["job"] == 0
            assert doc["outcome"]["loaded"] == files
            assert doc["retries"] == 0
            assert [e["kind"] for e in doc["events"]][0] == "JobArrived"

            status, _, body = _get(svc.port, "/v1/cache")
            cache = json.loads(body)
            assert cache["capacity"] == CACHE and cache["jobs"] == 1
            resident_ids = {fid for fid, _size in cache["residents"]}
            assert set(files) <= resident_ids
            assert cache["used"] == sum(s for _f, s in cache["residents"])

            status, ctype, body = _get(svc.port, "/metrics")
            assert status == 200 and ctype == PROMETHEUS_CONTENT_TYPE
            text = body.decode()
            assert "service_http_requests_total" in text
            assert "service_decision_seconds_count" in text

    def test_error_statuses(self, workload_path, tmp_path):
        state = CoordinatorState.create(_config(workload_path, tmp_path / "run"))
        with running_service(state) as svc:
            assert _get(svc.port, "/nope")[0] == 404
            assert _get(svc.port, "/v1/jobs", "GET")[0] == 405
            assert _get(svc.port, "/healthz", "POST")[0] == 405

            for bad in (
                [1, 2],                        # not an object
                {"files": "f1"},               # files not a list
                {"files": []},                 # empty bundle
                {"files": ["not-a-file"]},     # outside the catalog
                {"files": ["f000001"], "priority": True},  # bool priority
            ):
                status, _, body = _get(svc.port, "/v1/jobs", "POST", bad)
                assert status == 400, bad
                assert "error" in json.loads(body)

            # malformed JSON body
            conn = http.client.HTTPConnection("127.0.0.1", svc.port, timeout=10)
            conn.request("POST", "/v1/jobs", body="{nope")
            assert conn.getresponse().status == 400
            conn.close()

            # rejected jobs are not persisted
            status, _, body = _get(svc.port, "/healthz")
            assert json.loads(body)["jobs"] == 0

    def test_routes_table_matches_served_surface(self, workload_path, tmp_path):
        """Every ROUTES entry answers 200; ROUTES is exhaustive."""
        state = CoordinatorState.create(_config(workload_path, tmp_path / "run"))
        files = sorted(state.sizes)[:1]
        with running_service(state) as svc:
            for method, path in ROUTES:
                body = {"files": files} if method == "POST" else None
                status, _, _ = _get(svc.port, path, method, body)
                assert status == 200, (method, path)


class TestDifferential:
    def test_sequential_load_byte_identical_to_batch(
        self, trace, workload_path, tmp_path
    ):
        reference = _batch_reference(trace, tmp_path / "batch.jsonl")
        run_dir = tmp_path / "run"
        state = CoordinatorState.create(_config(workload_path, run_dir))
        with running_service(state) as svc:
            report = run_loadgen(trace, svc.host, svc.port, concurrency=1)
        assert report.jobs == len(list(trace)) and report.errors == 0
        assert (run_dir / "trace.jsonl").read_bytes() == (
            tmp_path / "batch.jsonl"
        ).read_bytes()
        snap = state.metrics.snapshot()
        assert snap.byte_miss_ratio == reference.metrics.byte_miss_ratio
        assert report.byte_miss_ratio == pytest.approx(
            reference.metrics.byte_miss_ratio
        )

    def test_concurrent_load_reconstructs_live_cache(
        self, trace, workload_path, tmp_path
    ):
        run_dir = tmp_path / "run"
        state = CoordinatorState.create(
            _config(workload_path, run_dir, check_invariants=True)
        )
        with running_service(state) as svc:
            report = run_loadgen(trace, svc.host, svc.port, concurrency=4)
        assert report.jobs == len(list(trace)) and report.errors == 0
        recon = reconstruct(run_dir / "trace.jsonl", capacity=CACHE)
        recon.raise_if_violations()
        assert verify_against_cache(recon, state.cache) == []

    def test_fault_injection_stays_out_of_the_trace(
        self, trace, workload_path, tmp_path
    ):
        """Chaos surfaces as retries + a counter, never as trace events."""
        reference = tmp_path / "batch.jsonl"
        _batch_reference(trace, reference)
        run_dir = tmp_path / "run"
        state = CoordinatorState.create(
            _config(
                workload_path,
                run_dir,
                fault=FaultSpec(seed=3, transfer_failure_rate=0.2),
            )
        )
        with running_service(state) as svc:
            report = run_loadgen(trace, svc.host, svc.port, concurrency=1)
        assert report.retries > 0
        assert (run_dir / "trace.jsonl").read_bytes() == reference.read_bytes()


class TestCrashResume:
    def test_injected_crash_then_resume_byte_identical(
        self, trace, workload_path, tmp_path
    ):
        reference = tmp_path / "batch.jsonl"
        reference_result = _batch_reference(trace, reference)
        run_dir = tmp_path / "run"
        crash_at = CKPT_EVERY + 7  # past a checkpoint boundary
        state = CoordinatorState.create(
            _config(
                workload_path,
                run_dir,
                crash=CrashSpec(at_mutation=crash_at, mode="raise"),
            )
        )
        with pytest.raises(InjectedCrashError):
            with running_service(state) as svc:
                report = run_loadgen(trace, svc.host, svc.port, concurrency=1)
                assert report.errors >= 1  # the in-flight job died

        resumed = CoordinatorState.resume(run_dir)
        assert resumed.resumed_from_job == CKPT_EVERY
        with running_service(resumed) as svc:
            report = run_loadgen(
                trace, svc.host, svc.port, concurrency=1, start_job="auto"
            )
        assert report.errors == 0
        assert (run_dir / "trace.jsonl").read_bytes() == reference.read_bytes()
        snap = resumed.metrics.snapshot()
        assert snap.byte_miss_ratio == reference_result.metrics.byte_miss_ratio
        assert snap.jobs == reference_result.metrics.jobs

    def test_sigkill_mid_load_then_cli_resume(
        self, trace, workload_path, tmp_path
    ):
        """The real thing: serve in a subprocess, SIGKILL it mid-load,
        resume through the CLI, finish with --start-job auto, and the
        stitched trace equals the uninterrupted reference's bytes."""
        reference = tmp_path / "batch.jsonl"
        _batch_reference(trace, reference)
        run_dir = tmp_path / "run"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")

        def _spawn(extra):
            return subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "serve",
                    "--run-dir", str(run_dir),
                    "--policy", POLICY,
                    "--cache-size", str(CACHE),
                    "--checkpoint-every", str(CKPT_EVERY),
                    *extra,
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
                env=env,
            )

        def _port_of(proc):
            deadline = time.monotonic() + 30
            line = ""
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                match = re.search(r"listening on http://[^:]+:(\d+)", line)
                if match:
                    return int(match.group(1))
            raise AssertionError(f"no listening line, last: {line!r}")

        server = _spawn([str(workload_path)])
        try:
            port = _port_of(server)
            run_loadgen(trace, "127.0.0.1", port, concurrency=1, limit=40)
            os.kill(server.pid, signal.SIGKILL)
            server.wait(timeout=30)
        finally:
            if server.poll() is None:
                server.kill()

        server = _spawn(["--resume"])
        try:
            port = _port_of(server)
            report = run_loadgen(
                trace, "127.0.0.1", port, concurrency=1, start_job="auto"
            )
            assert report.errors == 0
            os.kill(server.pid, signal.SIGTERM)
            assert server.wait(timeout=30) == 0
        finally:
            if server.poll() is None:
                server.kill()

        assert (run_dir / "trace.jsonl").read_bytes() == reference.read_bytes()
        recon = reconstruct(run_dir / "trace.jsonl", capacity=CACHE)
        recon.raise_if_violations()


class TestStateValidation:
    def test_create_refuses_existing_run(self, workload_path, tmp_path):
        run_dir = tmp_path / "run"
        CoordinatorState.create(_config(workload_path, run_dir)).close()
        with pytest.raises(Exception, match="already"):
            CoordinatorState.create(_config(workload_path, run_dir))

    def test_submit_after_close_rejected(self, workload_path, tmp_path):
        state = CoordinatorState.create(_config(workload_path, tmp_path / "r"))
        files = sorted(state.sizes)[:1]
        state.close()
        from repro.errors import ServiceError

        with pytest.raises(ServiceError, match="closed"):
            state.submit(files)
        state.close()  # idempotent


class TestNonFiniteNumbers:
    """NaN and the infinities are not JSON: the arrivals record must never
    see one, so a job carrying one is refused before it is persisted."""

    @pytest.mark.parametrize(
        "literal",
        ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
        ids=["nan", "inf", "-inf", "float-overflow", "int-beyond-float"],
    )
    def test_post_job_refuses_non_finite_priority(
        self, workload_path, tmp_path, literal
    ):
        state = CoordinatorState.create(_config(workload_path, tmp_path / "run"))
        arrivals = tmp_path / "run" / "arrivals.jsonl"
        files = sorted(state.sizes)[:2]
        with running_service(state) as svc:
            assert _get(svc.port, "/v1/jobs", "POST", {"files": files})[0] == 200
            before = arrivals.read_bytes()
            conn = http.client.HTTPConnection("127.0.0.1", svc.port, timeout=10)
            try:
                conn.request(
                    "POST", "/v1/jobs",
                    body=f'{{"files": {json.dumps(files)}, "priority": {literal}}}',
                )
                response = conn.getresponse()
                status, body = response.status, response.read()
            finally:
                conn.close()
            assert status == 400
            assert "priority" in json.loads(body)["error"]
            assert arrivals.read_bytes() == before
            assert state.next_job == 1
            status, _, body = _get(svc.port, "/v1/jobs", "POST", {"files": files})
            assert status == 200 and json.loads(body)["outcome"]["job"] == 1
        for line in arrivals.read_text().splitlines():
            json.loads(line, parse_constant=_reject_constant)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_submit_refuses_non_finite_priority(self, workload_path, tmp_path, value):
        from repro.errors import ConfigError

        with CoordinatorState.create(
            _config(workload_path, tmp_path / "run")
        ) as state:
            files = sorted(state.sizes)[:1]
            arrivals = tmp_path / "run" / "arrivals.jsonl"
            before = arrivals.read_bytes()
            with pytest.raises(ConfigError, match="finite"):
                state.submit(files, priority=value)
            assert arrivals.read_bytes() == before
            assert state.next_job == 0


class TestManifest:
    """The service manifest records the fault spec field by field."""

    @staticmethod
    def _hand_listed(config):
        # the manifest as written when every FaultSpec field was listed
        doc = _config_to_manifest(_simulation_config(config), config.durability)
        doc["kind"] = "service"
        fault = config.fault
        doc["fault"] = {
            "seed": fault.seed,
            "drive_failure_rate": fault.drive_failure_rate,
            "transfer_failure_rate": fault.transfer_failure_rate,
            "latency_spike_rate": fault.latency_spike_rate,
            "latency_spike_factor": fault.latency_spike_factor,
            "site_downtime_rate": fault.site_downtime_rate,
            "mean_downtime": fault.mean_downtime,
        }
        return doc

    @pytest.mark.parametrize(
        "fault",
        [
            FaultSpec(),
            FaultSpec(
                seed=9,
                drive_failure_rate=0.01,
                transfer_failure_rate=0.25,
                latency_spike_rate=0.5,
                latency_spike_factor=3,
                site_downtime_rate=0.125,
                mean_downtime=30.0,
            ),
        ],
        ids=["default", "non-default"],
    )
    def test_manifest_bytes_match_the_hand_listed_form(
        self, workload_path, tmp_path, fault
    ):
        run_dir = tmp_path / "run"
        config = _config(workload_path, run_dir, fault=fault)
        CoordinatorState.create(config).close()
        expected = json.dumps(self._hand_listed(config), indent=2, sort_keys=True)
        assert (run_dir / "manifest.json").read_text() == expected + "\n"
        with CoordinatorState.resume(run_dir) as resumed:
            assert resumed.config.fault == fault


class TestTornArrivalsTail:
    """A kill mid-append leaves the arrivals record's final line torn:
    resume drops it, truncates the file to the intact prefix and serves
    on, and the finished trace matches an uninterrupted run's."""

    SERVED = CKPT_EVERY + 5  # jobs served before the tear, past a checkpoint

    @staticmethod
    def _submit(state, requests):
        for r in requests:
            state.submit(sorted(r.bundle.files), priority=r.priority)

    @pytest.fixture(scope="class")
    def reference(self, trace, workload_path, tmp_path_factory):
        run_dir = tmp_path_factory.mktemp("uninterrupted") / "run"
        with CoordinatorState.create(_config(workload_path, run_dir)) as state:
            self._submit(state, trace)
        return (
            (run_dir / "arrivals.jsonl").read_bytes(),
            (run_dir / "trace.jsonl").read_bytes(),
        )

    @pytest.mark.parametrize("cut", ["first-byte", "mid-line", "before-newline"])
    def test_resume_truncates_the_torn_line_and_serves_on(
        self, trace, workload_path, tmp_path, reference, cut
    ):
        ref_arrivals, ref_trace = reference
        requests = list(trace)
        run_dir = tmp_path / "run"
        with CoordinatorState.create(_config(workload_path, run_dir)) as state:
            self._submit(state, requests[: self.SERVED])
        arrivals = run_dir / "arrivals.jsonl"
        data = arrivals.read_bytes()
        intact = data.rindex(b"\n", 0, len(data) - 1) + 1
        last = len(data) - intact  # the final line's length, newline included
        keep = {"first-byte": 1, "mid-line": last // 2, "before-newline": last - 1}
        arrivals.write_bytes(data[: intact + keep[cut]])

        resumed = CoordinatorState.resume(run_dir)
        try:
            # the torn arrival was never acknowledged: it is served again
            assert resumed.next_job == self.SERVED - 1
            assert arrivals.read_bytes() == data[:intact]
            self._submit(resumed, requests[self.SERVED - 1 : self.SERVED])
            assert arrivals.read_bytes() == data
            self._submit(resumed, requests[self.SERVED :])
        finally:
            resumed.close()
        assert arrivals.read_bytes() == ref_arrivals
        assert (run_dir / "trace.jsonl").read_bytes() == ref_trace


def _reject_constant(name):
    raise AssertionError(f"non-JSON constant {name} in the arrivals record")
