"""Unified telemetry for the reproduction: metrics, events, manifests.

The simulation substrate answers *what happened* through execution
traces and their round records; this package answers *what it cost* — where wall time went, how
much channel work each round performed, how an experiment's trials
progressed — and makes every run reconstructible after the fact.

Three layers, each usable on its own:

``registry``
    A zero-dependency metrics registry (:class:`Counter`, :class:`Gauge`,
    :class:`Histogram` with fixed log-spaced buckets). A process-global
    default registry is **disabled** by default: the hot paths guard on
    one attribute read, so an uninstrumented run pays effectively
    nothing.

``events`` / ``manifest``
    A structured JSONL event sink plus a run manifest (seed, config,
    package version, git SHA, platform, timestamps) so any experiment run
    is diffable and replayable.

``telemetry``
    :class:`TelemetrySession` ties the layers together: it enables a
    registry, opens an event sink in a target directory, writes the
    manifest at start and the metrics snapshot at exit. The experiments
    CLI exposes it as ``python -m repro.experiments <id> --telemetry-dir
    DIR``.

``bench``
    The machine-readable benchmark harness behind ``BENCH_core.json`` —
    see :mod:`repro.obs.bench` and ``tools/bench_diff.py``.

``probe`` / ``monitors`` / ``analyze``
    The round-level flight recorder: a zero-cost-when-disabled probe bus
    the simulation paths publish per-round records to, a columnar
    recorder (``probes.npz``), live theory-invariant monitors that flag
    violations as ``warning`` events, and an offline analyzer CLI
    (``python -m repro.obs.analyze DIR``).

``profiling``
    ``--profile`` support: cProfile condensed into per-phase timing and
    hot-function reports recorded in ``manifest.json``.

Per-round analysis code (link classes, knockout accounting) replays an
execution's round records (``keep_records=True``); telemetry is the
orthogonal, always-available layer for cost and progress. See
docs/observability.md.
"""

from repro.obs.events import (
    EventSink,
    JsonlEventSink,
    NullEventSink,
    QueueEventSink,
    get_sink,
    read_events,
    set_sink,
)
from repro.obs.atomic import atomic_write_bytes, atomic_write_json, atomic_write_text
from repro.obs.manifest import RunManifest, collect_environment, collect_git_sha
from repro.obs.monitors import (
    ActiveSetGrowthMonitor,
    Corollary7KnockoutMonitor,
    SINRDeliveryMonitor,
    default_monitors,
)
from repro.obs.probe import (
    ExecutionProbe,
    ProbeBus,
    ProbeRecorder,
    RoundProbe,
    SINRProbe,
    get_probe_bus,
    load_probes,
    set_probe_bus,
)
from repro.obs.profiling import build_profile_report, format_profile_report
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    log_spaced_buckets,
    set_registry,
)
from repro.obs.telemetry import TelemetrySession

__all__ = [
    "ActiveSetGrowthMonitor",
    "Corollary7KnockoutMonitor",
    "Counter",
    "EventSink",
    "ExecutionProbe",
    "Gauge",
    "Histogram",
    "JsonlEventSink",
    "MetricsRegistry",
    "NullEventSink",
    "ProbeBus",
    "ProbeRecorder",
    "QueueEventSink",
    "RoundProbe",
    "RunManifest",
    "SINRDeliveryMonitor",
    "SINRProbe",
    "TelemetrySession",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "build_profile_report",
    "collect_environment",
    "collect_git_sha",
    "default_monitors",
    "format_profile_report",
    "get_probe_bus",
    "get_registry",
    "get_sink",
    "load_probes",
    "log_spaced_buckets",
    "read_events",
    "set_probe_bus",
    "set_registry",
    "set_sink",
]
