"""Crash-recovery integration tests: kill → resume → byte-identical.

The durability contract is that a run interrupted at *any* journal
commit and resumed produces a telemetry trace byte-identical to (and
final metrics equal to) the same run left uninterrupted.  The kill
sweep here exercises that contract for **every** registered policy,
with crash points on both sides of a checkpoint boundary and in both
clean (``raise``) and half-written-frame (``torn``) modes; separate
cases cover a real SIGKILL through the CLI, queue mode, a lost trace
tail, tampered journals and manifest collision.
"""

import os
import signal
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from repro.cache.registry import POLICY_REGISTRY
from repro.cli import main
from repro.durability import DurabilityConfig, resume_run, run_durable
from repro.durability.journal import (
    JOURNAL_MAGIC,
    _HEADER,
    _encode_payload,
    list_segments,
    read_journal_dir,
)
from repro.errors import (
    DurabilityError,
    InjectedCrashError,
    ReplayDivergenceError,
)
from repro.faults.crash import CrashSpec
from repro.service import CoordinatorState, ServiceConfig
from repro.sim.simulator import SimulationConfig
from repro.types import MB
from repro.workload.generator import WorkloadSpec, generate_trace

CACHE = 64 * MB

#: checkpoint cadence for every drill below; crash points straddle it
CKPT_EVERY = 40

#: pre-checkpoint and just-past-checkpoint commit indices
CRASH_POINTS = ((10, "raise"), (CKPT_EVERY + 5, "torn"))


@pytest.fixture(scope="module")
def trace():
    return generate_trace(
        WorkloadSpec(
            cache_size=CACHE,
            n_files=100,
            n_request_types=60,
            n_jobs=160,
            popularity="zipf",
            max_file_fraction=0.05,
            max_bundle_fraction=0.25,
            seed=0,
        )
    )


def _crash_then_resume(trace, tmp, crash_at, mode, *, resume_kw=None, **sim_kw):
    """Run reference + crashed + resumed copies; return both reports.

    ``sim_kw`` goes to :class:`SimulationConfig` (policy, queue_length…).
    """
    config = SimulationConfig(cache_size=CACHE, **sim_kw)
    reference = run_durable(
        trace,
        config,
        DurabilityConfig(run_dir=tmp / "reference", checkpoint_every=CKPT_EVERY),
    )
    crashed_dir = tmp / "crashed"
    with pytest.raises(InjectedCrashError):
        run_durable(
            trace,
            config,
            DurabilityConfig(
                run_dir=crashed_dir,
                checkpoint_every=CKPT_EVERY,
                crash=CrashSpec(at_mutation=crash_at, mode=mode),
            ),
        )
    resumed = resume_run(crashed_dir, **(resume_kw or {}))
    return reference, resumed


def _assert_exact(reference, resumed):
    assert resumed.trace_path.read_bytes() == reference.trace_path.read_bytes()
    assert resumed.result.metrics == reference.result.metrics


class TestKillSweepAllPolicies:
    @pytest.mark.parametrize("policy", sorted(POLICY_REGISTRY))
    def test_resume_is_byte_identical(self, trace, tmp_path, policy):
        for crash_at, mode in CRASH_POINTS:
            sub = tmp_path / f"at{crash_at}-{mode}"
            reference, resumed = _crash_then_resume(
                trace, sub, crash_at, mode, policy=policy
            )
            _assert_exact(reference, resumed)
            if crash_at > CKPT_EVERY:
                assert resumed.resumed_from_job >= CKPT_EVERY
            else:
                assert resumed.resumed_from_job == 0


class TestRecoveryModes:
    def test_queue_mode_resume(self, trace, tmp_path):
        reference, resumed = _crash_then_resume(
            trace,
            tmp_path,
            CKPT_EVERY + 5,
            "raise",
            policy="optbundle",
            queue_length=4,
        )
        _assert_exact(reference, resumed)

    def test_fsync_always_mode(self, trace, tmp_path):
        config = SimulationConfig(cache_size=CACHE, policy="landlord")
        reference = run_durable(
            trace,
            config,
            DurabilityConfig(run_dir=tmp_path / "ref", checkpoint_every=CKPT_EVERY),
        )
        crashed_dir = tmp_path / "crashed"
        with pytest.raises(InjectedCrashError):
            run_durable(
                trace,
                config,
                DurabilityConfig(
                    run_dir=crashed_dir,
                    checkpoint_every=CKPT_EVERY,
                    fsync="always",
                    crash=CrashSpec(at_mutation=CKPT_EVERY + 5, mode="torn"),
                ),
            )
        resumed = resume_run(crashed_dir)
        # strict mode journals every commit: the replay tail is verified
        # frame-by-frame, not just re-executed
        assert resumed.replayed_jobs > 0
        _assert_exact(reference, resumed)

    def test_lost_trace_tail_is_reexecuted(self, trace, tmp_path):
        """Chop buffered trace bytes a kill would have lost; frames whose
        evidence vanished must be dropped, not trusted."""
        config = SimulationConfig(cache_size=CACHE, policy="optbundle")
        reference = run_durable(
            trace,
            config,
            DurabilityConfig(run_dir=tmp_path / "ref", checkpoint_every=CKPT_EVERY),
        )
        crashed_dir = tmp_path / "crashed"
        with pytest.raises(InjectedCrashError):
            run_durable(
                trace,
                config,
                DurabilityConfig(
                    run_dir=crashed_dir,
                    checkpoint_every=CKPT_EVERY,
                    crash=CrashSpec(at_mutation=CKPT_EVERY + 9, mode="torn"),
                ),
            )
        trace_file = crashed_dir / "trace.jsonl"
        data = trace_file.read_bytes()
        trace_file.write_bytes(data[:-200])
        resumed = resume_run(crashed_dir)
        _assert_exact(reference, resumed)


class TestCorruptionAndMisuse:
    def test_refuses_existing_manifest(self, trace, tmp_path):
        config = SimulationConfig(cache_size=CACHE, policy="lru")
        durability = DurabilityConfig(run_dir=tmp_path, checkpoint_every=CKPT_EVERY)
        run_durable(trace, config, durability)
        with pytest.raises(DurabilityError):
            run_durable(trace, config, durability)

    def test_tampered_journal_frame_diverges(self, trace, tmp_path):
        config = SimulationConfig(cache_size=CACHE, policy="optbundle")
        crashed_dir = tmp_path / "crashed"
        with pytest.raises(InjectedCrashError):
            run_durable(
                trace,
                config,
                DurabilityConfig(
                    run_dir=crashed_dir,
                    checkpoint_every=CKPT_EVERY,
                    fsync="always",
                    crash=CrashSpec(at_mutation=CKPT_EVERY + 5, mode="raise"),
                ),
            )
        journal_dir = crashed_dir / "journal"
        frames, torn = read_journal_dir(journal_dir)
        assert frames and not torn
        # rewrite the journal with one frame's request_id altered — CRCs
        # intact, content wrong: replay must catch the divergence
        frames[0].payload["request_id"] += 1
        for seg in list_segments(journal_dir):
            seg.unlink()
        blob = bytearray(JOURNAL_MAGIC)
        for frame in frames:
            data = _encode_payload(frame.payload)
            blob += _HEADER.pack(len(data), zlib.crc32(data)) + data
        (journal_dir / "wal-000000.log").write_bytes(bytes(blob))
        with pytest.raises(ReplayDivergenceError):
            resume_run(crashed_dir)


def _snapshot(run_dir):
    return {
        p.relative_to(run_dir): p.read_bytes()
        for p in sorted(run_dir.rglob("*"))
        if p.is_file()
    }


class TestDriverKinds:
    """Each driver refuses the other's run directory before touching it."""

    def test_resume_run_refuses_a_service_run(self, trace, tmp_path):
        workload = tmp_path / "workload.jsonl"
        trace.dump(workload)
        run_dir = tmp_path / "service"
        state = CoordinatorState.create(
            ServiceConfig(
                workload=workload,
                cache_size=CACHE,
                run_dir=run_dir,
                checkpoint_every=CKPT_EVERY,
            )
        )
        requests = list(trace)
        for request in requests[:60]:
            state.submit(sorted(request.bundle.files))
        state.close()
        before = _snapshot(run_dir)
        assert {"trace.jsonl", "arrivals.jsonl"} <= {p.name for p in before}
        assert any(p.parts[0] == "journal" for p in before)
        assert any(p.parts[0] == "checkpoints" for p in before)

        with pytest.raises(DurabilityError, match="serve --resume"):
            resume_run(run_dir)
        assert _snapshot(run_dir) == before

        resumed = CoordinatorState.resume(run_dir)
        assert resumed.next_job == 60
        resumed.close()

    def test_service_resume_refuses_a_batch_run(self, trace, tmp_path):
        config = SimulationConfig(cache_size=CACHE, policy="landlord")
        run_dir = tmp_path / "batch"
        with pytest.raises(InjectedCrashError):
            run_durable(
                trace,
                config,
                DurabilityConfig(
                    run_dir=run_dir,
                    checkpoint_every=CKPT_EVERY,
                    crash=CrashSpec(at_mutation=CKPT_EVERY + 5, mode="raise"),
                ),
            )
        before = _snapshot(run_dir)

        with pytest.raises(DurabilityError, match="repro-fbc resume"):
            CoordinatorState.resume(run_dir)
        assert _snapshot(run_dir) == before

        resumed = resume_run(run_dir)
        assert resumed.resumed_from_job == CKPT_EVERY


class TestCliSigkill:
    def test_sigkill_crash_and_cli_resume(self, trace, tmp_path):
        """A real SIGKILL (no teardown at all) through the CLI, resumed
        through the CLI, against an uninterrupted CLI reference."""
        workload = tmp_path / "workload.jsonl"
        trace.dump(workload)
        common = [
            "checkpoint",
            str(workload),
            "--cache-size",
            str(CACHE),
            "--policy",
            "optbundle",
            "--checkpoint-every",
            str(CKPT_EVERY),
        ]
        ref_dir = tmp_path / "ref"
        assert main(common + ["--run-dir", str(ref_dir)]) == 0

        crashed_dir = tmp_path / "crashed"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))",
            ]
            + common
            + [
                "--run-dir",
                str(crashed_dir),
                "--crash-at",
                str(CKPT_EVERY + 7),
                "--crash-mode",
                "sigkill",
            ],
            env=env,
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode in (-signal.SIGKILL, 128 + signal.SIGKILL)

        assert main(["resume", str(crashed_dir)]) == 0
        assert (crashed_dir / "trace.jsonl").read_bytes() == (
            ref_dir / "trace.jsonl"
        ).read_bytes()
