"""Profiling hooks: ambient ``span()`` blocks and their summary table.

Timings are host wall-clock and therefore never enter the deterministic
event stream — they land in the ambient recorder's
:class:`~repro.telemetry.metrics.MetricsRegistry` as
``span_<name>_seconds`` histograms, exported by ``repro-fbc trace`` and
the registry's Prometheus/JSON exporters.
"""

from __future__ import annotations

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.recorder import current_recorder

__all__ = ["span", "span_profile"]


def span(name: str):
    """Time a ``with`` block into the ambient recorder's registry.

    A no-op (one context-var read) when no profiling recorder is
    installed::

        with span("optbundle.plan"):
            plan = planner.plan(bundle, resident)
    """
    return current_recorder().span(name)


def span_profile(registry: MetricsRegistry) -> list[dict[str, object]]:
    """Tabulate the ``span_*_seconds`` histograms of a registry.

    Returns one row per span: name, call count, mean/max seconds plus
    the bucket-estimated p50/p95/p99 — the summary ``repro-fbc trace``
    prints and ``GET /v1/debug/profile`` serves.
    """
    rows: list[dict[str, object]] = []
    for name in registry.names():
        if not (name.startswith("span_") and name.endswith("_seconds")):
            continue
        hist = registry.get(name)
        rows.append(
            {
                "span": name[len("span_") : -len("_seconds")],
                "calls": hist.count,
                "mean_s": hist.mean,
                "p50_s": hist.quantile(0.5),
                "p95_s": hist.quantile(0.95),
                "p99_s": hist.quantile(0.99),
                "max_s": hist.max,
                "total_s": hist.sum,
            }
        )
    return rows
