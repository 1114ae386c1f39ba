"""Command-line interface: ``repro-fbc`` (or ``python -m repro.cli``).

Subcommands
-----------
* ``list``      — list experiments and policies.
* ``run``       — run a paper experiment at a chosen scale (``--jobs N``
  fans sweep work items out over worker processes, same results;
  ``--telemetry jsonl:<path>`` records an event trace alongside).
* ``trace``     — run an experiment with a JSONL event trace + span profile.
* ``bench``     — record jobs/sec + selection latency to ``BENCH_<name>.json``.
* ``simulate``  — one-off simulation of a synthetic workload
  (``--telemetry jsonl:TRACE_{policy}.jsonl`` records one telemetry
  trace per policy).
* ``generate``  — write a synthetic workload trace to a JSONL file.
* ``replay``    — replay a JSONL workload trace under one or more policies.
* ``chaos``     — policy comparison under seeded grid fault injection.
* ``analyze``   — forensics on a recorded telemetry trace: cache-state
  reconstruction, invariant checks, anomaly detection.
* ``diff-traces``   — first divergent decision between two same-workload
  telemetry traces.
* ``export-chrome`` — convert a telemetry trace to Chrome trace-event
  JSON (Perfetto / ``chrome://tracing``).
* ``lint``      — determinism & conformance linter (RPR001–RPR005) over
  Python source; non-zero exit on findings.
* ``serve``     — run the online cache-coordinator HTTP service (durable
  run directory, checkpoint/resume, chaos injection, request tracing
  + debug endpoints, live SLO monitoring).
* ``loadgen``   — replay a workload trace against a running coordinator,
  reporting throughput, latency percentiles (client vs server split)
  and byte-miss ratio.
* ``slo``       — SLO report: query a live coordinator (``--port``) or
  run the windowed anomaly detector over a finished telemetry trace.

Argument errors (unknown subcommand, malformed flags) uniformly print
``error: <message>`` to stderr and exit with status 2; ``--version``
prints the package version.

Two kinds of JSONL file flow through this tool and the metavars keep
them apart: a ``WORKLOAD_TRACE`` is an *input* to simulation (requests +
file catalog, written by ``generate``, consumed by ``replay`` /
``profile``), while a ``TELEMETRY_TRACE`` is an *output* of simulation
(the event log written by ``trace`` / ``--telemetry``, consumed by
``analyze`` / ``diff-traces`` / ``export-chrome``).
"""

from __future__ import annotations

import argparse
import sys
from typing import NoReturn, Sequence

from repro import __version__
from repro.cache.registry import POLICY_REGISTRY
from repro.errors import ConfigError, ReproError
from repro.experiments import EXPERIMENTS, run_experiment
from repro.sim.simulator import SimulationConfig, simulate_trace
from repro.utils.tables import render_table
from repro.utils.units import format_size, parse_size
from repro.workload.generator import WorkloadSpec, generate_trace
from repro.workload.trace import Trace

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """ArgumentParser with the CLI's uniform error contract.

    Malformed arguments and unknown subcommands print
    ``error: <message>`` to stderr and exit with status 2 — the same
    shape :func:`main` uses for runtime :class:`ReproError` failures, so
    scripts can match one prefix.  (Subparsers inherit this class via
    argparse's ``parser_class`` default.)
    """

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)  # repro: allow[RPR004] argparse's exit contract; the process boundary, not a catchable simulation error


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro-fbc",
        description="File-bundle caching for data grids (SC'04 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and policies")

    p_run = sub.add_parser("run", help="run a paper experiment")
    p_run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    p_run.add_argument(
        "--scale", default="quick", choices=("smoke", "quick", "paper")
    )
    p_run.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for sweep fan-out (default: serial); "
        "results are identical to a serial run",
    )
    p_run.add_argument(
        "--telemetry",
        default=None,
        metavar="SPEC",
        help="event-trace sink: 'null', 'jsonl:<path>' or 'ring[:capacity]' "
        "(default: no tracing)",
    )

    p_trace = sub.add_parser(
        "trace", help="run an experiment with a JSONL event trace"
    )
    p_trace.add_argument("experiment", choices=sorted(EXPERIMENTS))
    p_trace.add_argument(
        "--scale", default="smoke", choices=("smoke", "quick", "paper")
    )
    p_trace.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for sweep fan-out; the trace is identical "
        "to a serial run",
    )
    p_trace.add_argument(
        "--out",
        default=None,
        metavar="TELEMETRY_TRACE",
        help="telemetry trace path (default: TRACE_<experiment>.jsonl)",
    )
    p_trace.add_argument(
        "--validate",
        action="store_true",
        help="validate every trace line against the event schema after the run",
    )

    p_bench = sub.add_parser(
        "bench", help="record throughput/latency to BENCH_<name>.json"
    )
    p_bench.add_argument(
        "--scale", default="smoke", choices=("smoke", "quick", "paper")
    )
    p_bench.add_argument("--name", default="core")
    p_bench.add_argument(
        "--policy",
        action="append",
        choices=sorted(POLICY_REGISTRY),
        default=None,
        help="policies to time (default: optbundle, landlord)",
    )
    p_bench.add_argument("--out-dir", default=".")
    p_bench.add_argument("--seed", type=int, default=0)

    p_sim = sub.add_parser("simulate", help="simulate a synthetic workload")
    p_sim.add_argument("--cache-size", default="1GB")
    p_sim.add_argument(
        "--policy", action="append", choices=sorted(POLICY_REGISTRY), default=None
    )
    p_sim.add_argument("--jobs", type=int, default=2000)
    p_sim.add_argument("--files", type=int, default=300)
    p_sim.add_argument("--request-types", type=int, default=300)
    p_sim.add_argument("--popularity", default="zipf", choices=("uniform", "zipf"))
    p_sim.add_argument("--zipf-alpha", type=float, default=1.0)
    p_sim.add_argument("--max-file-frac", type=float, default=0.01)
    p_sim.add_argument("--max-bundle-frac", type=float, default=0.125)
    p_sim.add_argument("--queue-length", type=int, default=1)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument(
        "--telemetry",
        default=None,
        metavar="SPEC",
        help="per-policy event-trace sink: 'null', 'jsonl:<path>' or "
        "'ring[:capacity]'; a '{policy}' placeholder in a jsonl path is "
        "replaced by each policy name (required when simulating more "
        "than one policy to a jsonl sink)",
    )

    p_gen = sub.add_parser(
        "generate", help="write a synthetic workload trace (JSONL)"
    )
    p_gen.add_argument(
        "output",
        metavar="WORKLOAD_TRACE",
        help="output path for the workload trace (requests + file catalog; "
        "not a telemetry event trace)",
    )
    p_gen.add_argument("--cache-size", default="1GB")
    p_gen.add_argument("--jobs", type=int, default=2000)
    p_gen.add_argument("--files", type=int, default=300)
    p_gen.add_argument("--request-types", type=int, default=300)
    p_gen.add_argument("--popularity", default="zipf", choices=("uniform", "zipf"))
    p_gen.add_argument("--zipf-alpha", type=float, default=1.0)
    p_gen.add_argument("--max-file-frac", type=float, default=0.01)
    p_gen.add_argument("--max-bundle-frac", type=float, default=0.125)
    p_gen.add_argument("--arrival-rate", type=float, default=None)
    p_gen.add_argument("--seed", type=int, default=0)

    p_rep = sub.add_parser("replay", help="replay a JSONL workload trace")
    p_rep.add_argument(
        "trace",
        metavar="WORKLOAD_TRACE",
        help="workload trace written by 'generate' (not a telemetry "
        "event trace — analyze those with 'analyze')",
    )
    p_rep.add_argument("--cache-size", default="1GB")
    p_rep.add_argument(
        "--policy", action="append", choices=sorted(POLICY_REGISTRY), default=None
    )
    p_rep.add_argument("--queue-length", type=int, default=1)

    p_timed = sub.add_parser(
        "timed", help="timed SRM simulation (response time / throughput)"
    )
    p_timed.add_argument("--cache-size", default="1GB")
    p_timed.add_argument(
        "--policy", action="append", choices=sorted(POLICY_REGISTRY), default=None
    )
    p_timed.add_argument("--jobs", type=int, default=500)
    p_timed.add_argument("--files", type=int, default=300)
    p_timed.add_argument("--request-types", type=int, default=200)
    p_timed.add_argument("--popularity", default="zipf", choices=("uniform", "zipf"))
    p_timed.add_argument("--zipf-alpha", type=float, default=1.0)
    p_timed.add_argument("--max-file-frac", type=float, default=0.05)
    p_timed.add_argument("--max-bundle-frac", type=float, default=0.2)
    p_timed.add_argument("--arrival-rate", type=float, default=0.05)
    p_timed.add_argument("--service-slots", type=int, default=1)
    p_timed.add_argument("--seed", type=int, default=0)

    p_chaos = sub.add_parser(
        "chaos", help="timed SRM comparison under fault injection"
    )
    p_chaos.add_argument("--cache-size", default="1GB")
    p_chaos.add_argument(
        "--policy",
        action="append",
        choices=sorted(POLICY_REGISTRY),
        default=None,
        help="policies to compare (default: optbundle, landlord)",
    )
    p_chaos.add_argument(
        "--fault-rate",
        action="append",
        type=float,
        default=None,
        help="repeatable; per-operation fault probability "
        "(default: 0.0 0.05 0.15)",
    )
    p_chaos.add_argument("--jobs", type=int, default=200)
    p_chaos.add_argument("--files", type=int, default=300)
    p_chaos.add_argument("--request-types", type=int, default=150)
    p_chaos.add_argument("--max-retries", type=int, default=3)
    p_chaos.add_argument(
        "--staging-timeout",
        type=float,
        default=600.0,
        help="per-file staging attempt timeout in seconds (0 disables)",
    )
    p_chaos.add_argument("--seed", type=int, default=0)

    p_prof = sub.add_parser("profile", help="profile a JSONL workload trace")
    p_prof.add_argument(
        "trace",
        metavar="WORKLOAD_TRACE",
        help="workload trace written by 'generate' (not a telemetry "
        "event trace)",
    )

    p_an = sub.add_parser(
        "analyze",
        help="forensics on a telemetry trace: reconstruction, invariant "
        "checks, anomaly detection",
    )
    p_an.add_argument(
        "trace",
        metavar="TELEMETRY_TRACE",
        help="telemetry event trace written by 'trace' or '--telemetry'",
    )
    p_an.add_argument(
        "--capacity",
        default=None,
        help="cache capacity (e.g. '1GB') enabling the occupancy invariant",
    )
    p_an.add_argument(
        "--check-invariants",
        action="store_true",
        help="exit non-zero if the trace violates any invariant",
    )
    p_an.add_argument("--anomaly-window", type=int, default=9)
    p_an.add_argument("--anomaly-threshold", type=float, default=3.5)

    p_diff = sub.add_parser(
        "diff-traces",
        help="first divergent decision between two same-workload "
        "telemetry traces",
    )
    p_diff.add_argument("trace_a", metavar="TELEMETRY_TRACE_A")
    p_diff.add_argument("trace_b", metavar="TELEMETRY_TRACE_B")
    p_diff.add_argument(
        "--segment",
        type=int,
        default=0,
        help="trace segment (simulation run) to compare (default: 0)",
    )

    p_chrome = sub.add_parser(
        "export-chrome",
        help="convert a telemetry trace to Chrome trace-event JSON "
        "(Perfetto / chrome://tracing)",
    )
    p_chrome.add_argument(
        "trace",
        metavar="TELEMETRY_TRACE",
        help="telemetry event trace written by 'trace' or '--telemetry'",
    )
    p_chrome.add_argument(
        "--out",
        default=None,
        help="output path (default: <TELEMETRY_TRACE stem>.chrome.json)",
    )
    p_chrome.add_argument(
        "--spans",
        action="store_true",
        help="treat the input as a /v1/debug/requests JSON dump and "
        "render its request span trees instead of a telemetry trace",
    )

    p_lint = sub.add_parser(
        "lint",
        help="determinism & conformance linter (RPR rules) over Python "
        "source; exits 1 on findings",
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to lint (default: the installed "
        "repro package source)",
    )
    p_lint.add_argument(
        "--format",
        dest="fmt",
        default="text",
        choices=("text", "json"),
        help="report format (json is the versioned CI-artifact shape)",
    )
    p_lint.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="RULE",
        help="repeatable; run only these rule ids (e.g. RPR003)",
    )
    p_lint.add_argument(
        "--ignore",
        action="append",
        default=None,
        metavar="RULE",
        help="repeatable; skip these rule ids",
    )
    p_lint.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="parallelise per-file checking over N processes "
        "(output is identical to serial)",
    )
    p_lint.add_argument(
        "--effects",
        default=None,
        metavar="PATH",
        help="write the whole-program effect map (versioned JSON: "
        "per-function effect sets + unresolved dynamic calls) to PATH",
    )

    p_cmp = sub.add_parser(
        "compare", help="paired statistical comparison of two policies"
    )
    p_cmp.add_argument("policy_a", choices=sorted(POLICY_REGISTRY))
    p_cmp.add_argument("policy_b", choices=sorted(POLICY_REGISTRY))
    p_cmp.add_argument("--cache-size", default="1GB")
    p_cmp.add_argument("--jobs", type=int, default=1000)
    p_cmp.add_argument("--files", type=int, default=300)
    p_cmp.add_argument("--request-types", type=int, default=300)
    p_cmp.add_argument("--popularity", default="zipf", choices=("uniform", "zipf"))
    p_cmp.add_argument("--zipf-alpha", type=float, default=1.0)
    p_cmp.add_argument("--max-file-frac", type=float, default=0.01)
    p_cmp.add_argument("--max-bundle-frac", type=float, default=0.125)
    p_cmp.add_argument("--seeds", type=int, default=8)
    p_cmp.add_argument("--seed", type=int, default=0)

    p_ckpt = sub.add_parser(
        "checkpoint",
        help="replay a workload durably: write-ahead journal + periodic "
        "checkpoints in a resumable run directory",
    )
    p_ckpt.add_argument(
        "trace",
        metavar="WORKLOAD_TRACE",
        help="workload trace written by 'generate' (not a telemetry "
        "event trace)",
    )
    p_ckpt.add_argument(
        "--run-dir",
        required=True,
        help="run directory (journal, checkpoints, telemetry trace); "
        "must not already hold another run",
    )
    p_ckpt.add_argument("--cache-size", default="1GB")
    p_ckpt.add_argument(
        "--policy", default="optbundle", choices=sorted(POLICY_REGISTRY)
    )
    p_ckpt.add_argument("--queue-length", type=int, default=1)
    p_ckpt.add_argument(
        "--checkpoint-every",
        type=int,
        default=100,
        help="snapshot full state every N jobs (bounds recovery replay)",
    )
    p_ckpt.add_argument(
        "--fsync",
        default="rotate",
        choices=("rotate", "always"),
        help="'rotate' buffers between checkpoints (kill-safe); 'always' "
        "fsyncs every frame (power-failure-proof, slow)",
    )
    p_ckpt.add_argument(
        "--crash-at",
        type=int,
        default=None,
        metavar="N",
        help="inject a deterministic crash at the Nth state mutation "
        "(chaos testing; resume afterwards with 'resume')",
    )
    p_ckpt.add_argument(
        "--crash-mode",
        default="raise",
        choices=("raise", "sigkill", "torn"),
        help="how the injected crash dies (torn also half-writes a "
        "journal frame)",
    )

    p_res = sub.add_parser(
        "resume",
        help="recover an interrupted durable run (last valid checkpoint "
        "+ journal replay) and drive it to completion",
    )
    p_res.add_argument(
        "run_dir",
        metavar="RUN_DIR",
        help="run directory of an interrupted 'checkpoint' run",
    )
    p_res.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the post-resume forensics reconstruction check",
    )

    p_serve = sub.add_parser(
        "serve",
        help="run the online cache-coordinator HTTP service (durable run "
        "directory, checkpoint/resume, POST /v1/jobs decisions)",
    )
    p_serve.add_argument(
        "workload",
        metavar="WORKLOAD_TRACE",
        nargs="?",
        default=None,
        help="workload trace written by 'generate'; supplies the file "
        "catalog and the optimal policies' future knowledge (omit with "
        "--resume, which reads it from the run directory)",
    )
    p_serve.add_argument(
        "--run-dir",
        required=True,
        help="durable run directory (manifest, arrivals, trace, journal, "
        "checkpoints); a fresh serve refuses a directory that already "
        "holds a run — use --resume for that",
    )
    p_serve.add_argument(
        "--resume",
        action="store_true",
        help="recover an interrupted service run from --run-dir and keep "
        "serving from the first unserviced job",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="listening port (0 picks an ephemeral port; the chosen one "
        "is printed as 'listening on http://HOST:PORT')",
    )
    p_serve.add_argument("--cache-size", default="1GB")
    p_serve.add_argument(
        "--policy", default="optbundle", choices=sorted(POLICY_REGISTRY)
    )
    p_serve.add_argument("--warmup", type=int, default=0)
    p_serve.add_argument(
        "--check-invariants",
        action="store_true",
        help="verify telemetry invariants while recording (slower)",
    )
    p_serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=100,
        help="snapshot full state every N jobs (bounds recovery replay)",
    )
    p_serve.add_argument(
        "--fsync",
        default="rotate",
        choices=("rotate", "always"),
        help="'rotate' buffers between checkpoints (kill-safe); 'always' "
        "fsyncs every frame (power-failure-proof, slow)",
    )
    p_serve.add_argument(
        "--crash-at",
        type=int,
        default=None,
        metavar="N",
        help="inject a deterministic crash at the Nth journal commit "
        "(chaos testing; restart with --resume afterwards)",
    )
    p_serve.add_argument(
        "--crash-mode",
        default="raise",
        choices=("raise", "sigkill", "torn"),
        help="how the injected crash dies (torn also half-writes a "
        "journal frame)",
    )
    p_serve.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="probability a demand transfer fails and is retried "
        "(surfaces as 'retries' in responses, never in the trace)",
    )
    p_serve.add_argument("--fault-seed", type=int, default=0)
    p_serve.add_argument(
        "--latency-spike-rate",
        type=float,
        default=0.0,
        help="probability a staged file hits a simulated latency spike "
        "(feeds the SLO latency signal only, never the trace)",
    )
    p_serve.add_argument(
        "--latency-spike-factor",
        type=float,
        default=10.0,
        help="multiplier a latency spike applies to the nominal staging "
        "time",
    )
    p_serve.add_argument(
        "--debug-ring",
        type=int,
        default=256,
        help="request-tracing ring capacity behind /v1/debug/requests "
        "(0 disables tracing; the decision trace is identical either way)",
    )
    p_serve.add_argument(
        "--slow-threshold-ms",
        type=float,
        default=100.0,
        help="requests at or over this server-side latency land in "
        "/v1/debug/slow",
    )
    p_serve.add_argument(
        "--profile-stream",
        action="store_true",
        help="append one JSON line per traced request to "
        "<run-dir>/profile.jsonl (host timings, separate from trace.jsonl)",
    )
    p_serve.add_argument(
        "--slo-window-jobs",
        type=int,
        default=50,
        help="jobs per SLO evaluation window",
    )
    p_serve.add_argument(
        "--slo-byte-miss-target",
        type=float,
        default=0.5,
        help="byte-miss-ratio SLO target (burn rate = window value / target)",
    )
    p_serve.add_argument(
        "--slo-latency-target-ms",
        type=float,
        default=50.0,
        help="mean request-latency SLO target per window, in ms",
    )

    p_load = sub.add_parser(
        "loadgen",
        help="replay a workload trace against a running coordinator and "
        "report throughput, latency percentiles and byte-miss ratio",
    )
    p_load.add_argument(
        "workload",
        metavar="WORKLOAD_TRACE",
        help="workload trace to replay (normally the same one the "
        "server was started with)",
    )
    p_load.add_argument("--host", default="127.0.0.1")
    p_load.add_argument("--port", type=int, required=True)
    p_load.add_argument(
        "--concurrency",
        type=int,
        default=1,
        help="closed-loop workers (1 preserves trace order exactly)",
    )
    p_load.add_argument(
        "--rate",
        type=float,
        default=None,
        metavar="JOBS_PER_S",
        help="open-loop offered rate; job i is released at i/rate "
        "seconds regardless of completions (default: closed loop)",
    )
    p_load.add_argument(
        "--limit", type=int, default=None, help="replay at most N jobs"
    )
    p_load.add_argument(
        "--start-job",
        default="0",
        metavar="N|auto",
        help="skip jobs the server already serviced; 'auto' asks the "
        "server via GET /healthz (the crash-resume driving mode)",
    )
    p_load.add_argument(
        "--json",
        action="store_true",
        help="print the full report as JSON instead of a summary",
    )

    p_slo = sub.add_parser(
        "slo",
        help="SLO report: query a live coordinator (--port) or run the "
        "windowed anomaly detector over a finished telemetry trace",
    )
    p_slo.add_argument(
        "trace",
        metavar="TELEMETRY_TRACE",
        nargs="?",
        default=None,
        help="finished telemetry trace to analyse offline (omit with "
        "--port to query a live server's /healthz SLO block)",
    )
    p_slo.add_argument("--host", default="127.0.0.1")
    p_slo.add_argument(
        "--port",
        type=int,
        default=None,
        help="query the coordinator listening on this port instead of "
        "reading a trace file",
    )
    p_slo.add_argument(
        "--window",
        type=int,
        default=9,
        help="anomaly detector window (windows of trailing history)",
    )
    p_slo.add_argument(
        "--threshold",
        type=float,
        default=3.5,
        help="robust z-score threshold for flagging a window",
    )
    p_slo.add_argument(
        "--byte-miss-target",
        type=float,
        default=0.5,
        help="byte-miss-ratio target used for offline burn-rate reporting",
    )
    p_slo.add_argument(
        "--json",
        action="store_true",
        help="print the report as JSON instead of a summary",
    )
    return parser


def _spec_from_args(args: argparse.Namespace) -> WorkloadSpec:
    return WorkloadSpec(
        cache_size=parse_size(args.cache_size),
        n_files=args.files,
        n_request_types=args.request_types,
        n_jobs=args.jobs,
        popularity=args.popularity,
        zipf_alpha=args.zipf_alpha,
        max_file_fraction=args.max_file_frac,
        max_bundle_fraction=args.max_bundle_frac,
        arrival_rate=getattr(args, "arrival_rate", None),
        seed=args.seed,
    )


def _report(
    trace: Trace,
    cache_size: int,
    policies,
    queue_length: int,
    *,
    telemetry: str | None = None,
) -> str:
    if (
        telemetry
        and telemetry.startswith("jsonl:")
        and len(policies) > 1
        and "{policy}" not in telemetry
    ):
        raise ConfigError(
            "simulating multiple policies to one jsonl telemetry path would "
            "overwrite it; add a '{policy}' placeholder, e.g. "
            "--telemetry jsonl:TRACE_{policy}.jsonl"
        )
    rows = []
    for policy in policies:
        config = SimulationConfig(
            cache_size=cache_size,
            policy=policy,
            queue_length=queue_length,
        )
        if telemetry:
            from repro.telemetry import recorder_from_spec, use_recorder

            spec = telemetry.replace("{policy}", policy)
            with recorder_from_spec(spec) as recorder:
                with use_recorder(recorder):
                    result = simulate_trace(trace, config, recorder=recorder)
        else:
            result = simulate_trace(trace, config)
        m = result.metrics
        rows.append(
            [
                policy,
                m.byte_miss_ratio,
                m.request_hit_ratio,
                m.mean_volume_per_request / (1024 * 1024),
                result.cache_evictions,
            ]
        )
    rows.sort(key=lambda r: r[1])
    return render_table(
        ["policy", "byte_miss_ratio", "request_hit_ratio", "MB/request", "evictions"],
        rows,
    )


def _run_serve(args: argparse.Namespace) -> None:
    """Handler for ``repro-fbc serve`` (fresh start or ``--resume``)."""
    import asyncio
    import signal
    from pathlib import Path

    from repro.faults.crash import CrashSpec
    from repro.faults.spec import FaultSpec
    from repro.service import CoordinatorService, CoordinatorState, ServiceConfig
    from repro.service.slo import SloConfig

    crash = (
        CrashSpec(at_mutation=args.crash_at, mode=args.crash_mode)
        if args.crash_at is not None
        else None
    )
    slo = SloConfig(
        window_jobs=args.slo_window_jobs,
        byte_miss_target=args.slo_byte_miss_target,
        latency_target_ms=args.slo_latency_target_ms,
    )
    if args.resume:
        state = CoordinatorState.resume(
            Path(args.run_dir),
            crash=crash,
            debug_ring=args.debug_ring,
            slow_threshold_ms=args.slow_threshold_ms,
            profile_stream=args.profile_stream,
            slo=slo,
        )
        print(
            f"resumed from job {state.resumed_from_job} "
            f"({state.next_job} jobs already serviced)",
            flush=True,
        )
    else:
        if args.workload is None:
            raise ConfigError(
                "serve needs a WORKLOAD_TRACE unless --resume is given"
            )
        fault = (
            FaultSpec(
                seed=args.fault_seed,
                transfer_failure_rate=args.fault_rate,
                latency_spike_rate=args.latency_spike_rate,
                latency_spike_factor=args.latency_spike_factor,
            )
            if args.fault_rate > 0 or args.latency_spike_rate > 0
            else None
        )
        state = CoordinatorState.create(
            ServiceConfig(
                workload=Path(args.workload),
                cache_size=parse_size(args.cache_size),
                run_dir=Path(args.run_dir),
                policy=args.policy,
                warmup=args.warmup,
                check_invariants=args.check_invariants,
                checkpoint_every=args.checkpoint_every,
                fsync=args.fsync,
                crash=crash,
                fault=fault,
                debug_ring=args.debug_ring,
                slow_threshold_ms=args.slow_threshold_ms,
                profile_stream=args.profile_stream,
                slo=slo,
            )
        )
    service = CoordinatorService(state)

    async def _serve() -> None:
        server = await service.start(args.host, args.port)
        addr = server.sockets[0].getsockname()
        # machine-readable startup line: CI and scripts parse the port
        print(f"listening on http://{addr[0]}:{addr[1]}", flush=True)
        print(f"run dir: {state.run_dir}", flush=True)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, service.stop)
        await service.run(server)

    asyncio.run(_serve())
    served = state.next_job - state.resumed_from_job
    print(
        f"shut down cleanly: {served} jobs serviced this run, "
        f"{state.checkpoints_written} checkpoints"
    )


def _run_loadgen(args: argparse.Namespace) -> None:
    """Handler for ``repro-fbc loadgen``."""
    import json

    from repro.service import run_loadgen

    if args.start_job == "auto":
        start_job: int | str = "auto"
    else:
        try:
            start_job = int(args.start_job)
        except ValueError:
            raise ConfigError(
                f"--start-job must be an integer or 'auto', "
                f"got {args.start_job!r}"
            ) from None
    trace = Trace.load(args.workload)
    report = run_loadgen(
        trace,
        args.host,
        args.port,
        concurrency=args.concurrency,
        rate=args.rate,
        limit=args.limit,
        start_job=start_job,
    )
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
        return
    rate = "closed-loop" if report.rate is None else f"{report.rate:g}/s"
    print(
        f"loadgen: {report.jobs} jobs in {report.duration_s:.2f}s "
        f"({report.throughput_jobs_per_s:.1f} jobs/s, "
        f"concurrency {report.concurrency}, {rate})"
    )
    print(
        f"  errors {report.errors}, retries {report.retries}, "
        f"unserviceable {report.unserviceable}"
    )
    print(
        f"  hit ratio {report.request_hit_ratio:.4f}, "
        f"byte miss ratio {report.byte_miss_ratio:.4f}"
    )
    print(
        f"  latency ms: p50 {report.latency_p50_ms:.2f}, "
        f"p90 {report.latency_p90_ms:.2f}, "
        f"p99 {report.latency_p99_ms:.2f}, "
        f"max {report.latency_max_ms:.2f}"
    )
    if report.server_mean_ms > 0:
        print(
            f"  server ms: p50 {report.server_p50_ms:.2f}, "
            f"p99 {report.server_p99_ms:.2f}, mean {report.server_mean_ms:.2f} "
            f"(queue {report.queue_wait_mean_ms:.2f}, "
            f"plan {report.plan_mean_ms:.2f}, "
            f"apply {report.apply_mean_ms:.2f}); "
            f"net overhead mean {report.net_overhead_mean_ms:.2f}"
        )


def _run_slo(args: argparse.Namespace) -> None:
    """Handler for ``repro-fbc slo`` (live server or finished trace)."""
    import json

    if (args.port is None) == (args.trace is None):
        raise ConfigError(
            "slo needs exactly one of --port (live server) or a "
            "TELEMETRY_TRACE file (offline analysis)"
        )
    if args.port is not None:
        import asyncio

        from repro.service.loadgen import _request_json

        health = asyncio.run(
            _request_json(args.host, args.port, "GET", "/healthz")
        )
        slo = health.get("slo", {})
        if args.json:
            print(json.dumps(slo, indent=2, sort_keys=True))
            return
        alerting = slo.get("alerting", False)
        print(
            f"slo: {'ALERTING' if alerting else 'ok'} "
            f"(window {slo.get('window_jobs')} jobs, "
            f"{health.get('jobs')} jobs serviced)"
        )
        for name, sig in sorted(slo.get("signals", {}).items()):
            state_txt = "ALERT" if sig.get("alert") else "ok"
            print(
                f"  {name}: {state_txt}, value {sig.get('value', 0.0):.4f} "
                f"vs target {sig.get('target', 0.0):.4f} "
                f"(burn rate {sig.get('burn_rate', 0.0):.2f}, "
                f"robust z {sig.get('score', 0.0):.1f}, "
                f"{sig.get('windows', 0)} windows)"
            )
        return

    from repro.telemetry.forensics import TraceLog, window_anomalies

    log = TraceLog.load(args.trace)
    runs = log.windows()
    anomalies = window_anomalies(
        log, window=args.window, threshold=args.threshold
    )
    burn_windows = 0
    total_windows = 0
    for run in runs:
        for w in run:
            total_windows += 1
            if w.byte_miss_ratio > args.byte_miss_target:
                burn_windows += 1
    if args.json:
        print(
            json.dumps(
                {
                    "trace": args.trace,
                    "windows": total_windows,
                    "byte_miss_target": args.byte_miss_target,
                    "windows_over_target": burn_windows,
                    "anomalies": [
                        {
                            "run": wa.run,
                            "window_index": wa.window_index,
                            "value": wa.anomaly.value,
                            "median": wa.anomaly.median,
                            "score": wa.anomaly.score,
                        }
                        for wa in anomalies
                    ],
                },
                indent=2,
                sort_keys=True,
            )
        )
        return
    print(
        f"slo: {total_windows} windows, {burn_windows} over byte-miss "
        f"target {args.byte_miss_target:g}, {len(anomalies)} anomalies"
    )
    for wa in anomalies:
        a = wa.anomaly
        print(
            f"  run {wa.run} window {wa.window_index}: byte_miss_ratio "
            f"{a.value:.4f} vs median {a.median:.4f} (robust z = {a.score:.1f})"
        )


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            print("experiments:")
            for name in sorted(EXPERIMENTS):
                print(f"  {name}")
            print("policies:")
            for name in sorted(POLICY_REGISTRY):
                print(f"  {name}")
        elif args.command == "run":
            if args.telemetry:
                from repro.telemetry import recorder_from_spec, use_recorder

                # the recorder context manager closes (and flushes a
                # JsonlSink) even when the run raises mid-experiment
                with recorder_from_spec(args.telemetry) as recorder:
                    with use_recorder(recorder):
                        output = run_experiment(
                            args.experiment, args.scale, jobs=args.jobs
                        )
                print(output.render())
                if recorder.active:
                    print(
                        f"telemetry: {recorder.events_emitted} events "
                        f"({args.telemetry})"
                    )
            else:
                print(
                    run_experiment(
                        args.experiment, args.scale, jobs=args.jobs
                    ).render()
                )
        elif args.command == "trace":
            from repro.telemetry import (
                JsonlSink,
                TraceRecorder,
                span_profile,
                use_recorder,
                validate_trace_file,
            )

            out = args.out or f"TRACE_{args.experiment}.jsonl"
            with TraceRecorder(JsonlSink(out)) as recorder:
                with use_recorder(recorder):
                    output = run_experiment(
                        args.experiment, args.scale, jobs=args.jobs
                    )
            print(output.render())
            print(f"wrote {recorder.events_emitted} events to {out}")
            profile_rows = span_profile(recorder.registry)
            if profile_rows:
                print(
                    render_table(
                        ["span", "calls", "mean [s]", "max [s]", "total [s]"],
                        [
                            [
                                r["span"],
                                r["calls"],
                                r["mean_s"],
                                r["max_s"],
                                r["total_s"],
                            ]
                            for r in profile_rows
                        ],
                        title="profiling spans (host time, not in the trace)",
                    )
                )
            if args.validate:
                n = validate_trace_file(out)
                print(f"validated {n} events against the schema")
        elif args.command == "bench":
            from repro.experiments.bench import render_bench, run_bench

            record = run_bench(
                args.scale,
                policies=tuple(args.policy or ("optbundle", "landlord")),
                name=args.name,
                out_dir=args.out_dir,
                seed=args.seed,
            )
            print(render_bench(record))
            print(f"wrote {record['path']}")
        elif args.command == "simulate":
            trace = generate_trace(_spec_from_args(args))
            policies = args.policy or ["optbundle", "landlord"]
            print(
                f"workload: {len(trace)} jobs, {len(trace.catalog)} files "
                f"({format_size(trace.catalog.total_bytes())}), cache "
                f"{format_size(parse_size(args.cache_size))}"
            )
            print(
                _report(
                    trace,
                    parse_size(args.cache_size),
                    policies,
                    args.queue_length,
                    telemetry=args.telemetry,
                )
            )
            if args.telemetry and args.telemetry.startswith("jsonl:"):
                for policy in policies:
                    path = args.telemetry.replace("{policy}", policy)[
                        len("jsonl:") :
                    ]
                    print(f"telemetry ({policy}): {path}")
        elif args.command == "generate":
            trace = generate_trace(_spec_from_args(args))
            trace.dump(args.output)
            print(
                f"wrote {len(trace)} jobs / {len(trace.catalog)} files to "
                f"{args.output}"
            )
        elif args.command == "replay":
            trace = Trace.load(args.trace)
            policies = args.policy or ["optbundle", "landlord"]
            print(
                _report(
                    trace, parse_size(args.cache_size), policies, args.queue_length
                )
            )
        elif args.command == "timed":
            from repro.grid.srm import SRMConfig, run_timed_simulation

            trace = generate_trace(_spec_from_args(args))
            rows = []
            for policy in args.policy or ["optbundle", "landlord", "lru"]:
                r = run_timed_simulation(
                    trace,
                    SRMConfig(
                        cache_size=parse_size(args.cache_size),
                        policy=policy,
                        service_slots=args.service_slots,
                    ),
                )
                rows.append(
                    [
                        policy,
                        r.mean_response_time,
                        r.throughput * 3600,
                        r.bytes_staged / (1024 * 1024),
                        r.request_hit_ratio,
                    ]
                )
            rows.sort(key=lambda row: row[1])
            print(
                render_table(
                    ["policy", "resp [s]", "jobs/h", "staged MB", "hit ratio"],
                    rows,
                )
            )
        elif args.command == "chaos":
            from repro.experiments.chaos import chaos_trace, run_chaos_once

            cache_size = parse_size(args.cache_size)
            policies = args.policy or ["optbundle", "landlord"]
            rates = args.fault_rate or [0.0, 0.05, 0.15]
            timeout = args.staging_timeout if args.staging_timeout > 0 else None
            trace = chaos_trace(
                cache_size=cache_size,
                n_files=args.files,
                n_request_types=args.request_types,
                n_jobs=args.jobs,
                seed=args.seed,
            )
            print(
                f"chaos: {len(trace)} jobs, {len(trace.catalog)} files, "
                f"cache {format_size(cache_size)}, seed {args.seed}, "
                f"fault rates {', '.join(f'{r:g}' for r in rates)}"
            )
            rows = []
            for rate in rates:
                for policy in policies:
                    r = run_chaos_once(
                        trace,
                        policy,
                        rate,
                        cache_size=cache_size,
                        fault_seed=args.seed,
                        max_retries=args.max_retries,
                        staging_timeout=timeout,
                    )
                    rows.append(
                        [
                            f"{rate:g}",
                            policy,
                            r.mean_response_time,
                            r.byte_miss_ratio,
                            r.retries,
                            r.failovers,
                            r.timeouts,
                            r.failed_jobs,
                            r.time_lost_to_faults,
                        ]
                    )
            print(
                render_table(
                    [
                        "rate",
                        "policy",
                        "resp [s]",
                        "byte miss",
                        "retries",
                        "failovers",
                        "timeouts",
                        "failed",
                        "lost [s]",
                    ],
                    rows,
                )
            )
        elif args.command == "profile":
            from repro.workload.analytics import hot_set_drift, profile_trace

            trace = Trace.load(args.trace)
            print(profile_trace(trace).render())
            drift = hot_set_drift(trace)
            if drift:
                mean_drift = sum(drift) / len(drift)
                print(f"hot-set stability (windowed Jaccard): {mean_drift:.3f}")
        elif args.command == "analyze":
            from repro.telemetry.forensics import (
                TraceLog,
                reconstruct,
                window_anomalies,
            )

            log = TraceLog.load(args.trace)
            capacity = parse_size(args.capacity) if args.capacity else None
            report = reconstruct(log, capacity=capacity)
            print(f"trace: {args.trace}")
            print(report.render())
            anomalies = window_anomalies(
                log,
                window=args.anomaly_window,
                threshold=args.anomaly_threshold,
            )
            if anomalies:
                print(f"anomalies ({len(anomalies)}):")
                for wa in anomalies:
                    a = wa.anomaly
                    print(
                        f"  run {wa.run} window {wa.window_index}: "
                        f"byte_miss_ratio {a.value:.4f} vs median "
                        f"{a.median:.4f} (robust z = {a.score:.1f})"
                    )
            elif log.windows():
                print("anomalies: none")
            if args.check_invariants:
                report.raise_if_violations()
                print("invariants: ok")
        elif args.command == "diff-traces":
            from repro.telemetry.forensics import diff_traces

            print(
                diff_traces(
                    args.trace_a, args.trace_b, segment=args.segment
                ).render()
            )
        elif args.command == "export-chrome":
            import json as _json
            from pathlib import Path

            from repro.telemetry.forensics import export_chrome, spans_to_chrome

            out = args.out or str(Path(args.trace).with_suffix("")) + ".chrome.json"
            if args.spans:
                from repro.errors import TelemetryError

                try:
                    with open(args.trace, encoding="utf-8") as fh:
                        requests = _json.load(fh)
                except OSError as exc:
                    raise TelemetryError(
                        f"cannot read span dump {args.trace!r}: {exc}"
                    ) from exc
                except _json.JSONDecodeError as exc:
                    raise TelemetryError(
                        f"span dump {args.trace!r} is not valid JSON: {exc}"
                    ) from exc
                doc = spans_to_chrome(requests)
                try:
                    with open(out, "w", encoding="utf-8") as fh:
                        _json.dump(
                            doc, fh, separators=(",", ":"), sort_keys=True
                        )
                        fh.write("\n")
                except OSError as exc:
                    raise TelemetryError(
                        f"cannot write Chrome trace {out!r}: {exc}"
                    ) from exc
                n = len(doc["traceEvents"])
            else:
                n = export_chrome(args.trace, out)
            print(f"wrote {n} Chrome trace events to {out}")
        elif args.command == "lint":
            from pathlib import Path

            import repro
            from repro.analysis.lint import (
                LintConfig,
                format_json,
                format_text,
                lint_paths,
            )
            from repro.errors import LintError

            paths = args.paths or [Path(repro.__file__).parent]
            result = lint_paths(
                paths,
                LintConfig.from_cli(args.select, args.ignore),
                jobs=args.jobs,
                collect_effects=args.effects is not None,
            )
            formatter = format_json if args.fmt == "json" else format_text
            print(
                formatter(result.findings, files_checked=result.files_checked)
            )
            if args.effects is not None:
                import json as _json

                effects_out = Path(args.effects)
                try:
                    effects_out.write_text(
                        _json.dumps(result.effect_map, indent=2) + "\n"
                    )
                except OSError as exc:
                    raise LintError(
                        f"cannot write effect map {args.effects!r}: {exc}"
                    ) from exc
            if not result.ok:
                return 1
        elif args.command == "compare":
            from repro.analysis.compare import compare_paired

            a_vals, b_vals = [], []
            for seed in range(args.seed, args.seed + args.seeds):
                spec = _spec_from_args(args).with_seed(seed)
                trace = generate_trace(spec)
                for policy, sink in (
                    (args.policy_a, a_vals),
                    (args.policy_b, b_vals),
                ):
                    result = simulate_trace(
                        trace,
                        SimulationConfig(
                            cache_size=parse_size(args.cache_size), policy=policy
                        ),
                    )
                    sink.append(result.byte_miss_ratio)
            comparison = compare_paired(a_vals, b_vals)
            print("byte miss ratio, paired across seeds:")
            print(comparison.summary(args.policy_a, args.policy_b))
        elif args.command == "checkpoint":
            from pathlib import Path

            from repro.durability import DurabilityConfig, run_durable
            from repro.faults.crash import CrashSpec

            trace = Trace.load(args.trace)
            crash = (
                CrashSpec(at_mutation=args.crash_at, mode=args.crash_mode)
                if args.crash_at is not None
                else None
            )
            report = run_durable(
                trace,
                SimulationConfig(
                    cache_size=parse_size(args.cache_size),
                    policy=args.policy,
                    queue_length=args.queue_length,
                ),
                DurabilityConfig(
                    run_dir=Path(args.run_dir),
                    checkpoint_every=args.checkpoint_every,
                    fsync=args.fsync,
                    crash=crash,
                ),
                workload_source=args.trace,
            )
            print(
                f"durable run complete: {report.jobs_executed} jobs, "
                f"{report.checkpoints_written} checkpoints, "
                f"byte miss ratio "
                f"{report.result.metrics.byte_miss_ratio:.4f}"
            )
            print(f"run dir: {report.run_dir}")
            print(f"telemetry trace: {report.trace_path}")
        elif args.command == "resume":
            from repro.durability import resume_run

            report = resume_run(args.run_dir, verify=not args.no_verify)
            print(
                f"resumed from job {report.resumed_from_job}: "
                f"re-executed {report.jobs_executed} jobs "
                f"({report.replayed_jobs} verified against the journal), "
                f"byte miss ratio "
                f"{report.result.metrics.byte_miss_ratio:.4f}"
            )
            if not args.no_verify:
                print("verify: stitched trace reconstruction ok")
            print(f"telemetry trace: {report.trace_path}")
        elif args.command == "serve":
            _run_serve(args)
        elif args.command == "loadgen":
            _run_loadgen(args)
        elif args.command == "slo":
            _run_slo(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
