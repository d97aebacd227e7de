"""Zero-dependency metrics: counters, gauges, histograms.

Everything here is plain Python on purpose — the registry must be
importable from the innermost simulation loops without dragging numpy
allocations or third-party clients into them, and it must cost *nothing*
when telemetry is off. The contract the hot paths rely on:

* :func:`get_registry` returns the process-global registry; its
  ``enabled`` attribute is a plain bool, so ``if obs.enabled:`` is the
  whole disabled-mode overhead.
* Instruments are memoized by name: ``registry.counter("sim.rounds")``
  returns the same object every call, so call sites may either cache the
  instrument or look it up per execution, whichever reads better.
* ``snapshot()`` renders the whole registry as one JSON-safe dict — the
  ``metrics.json`` artefact of a telemetry session.

Histograms use **fixed log-spaced buckets** (default: 9 decades from 1e-7
up, two buckets per decade). Log spacing matches the quantities we
measure — round counts and wall times both span orders of magnitude — and
fixed boundaries make snapshots from different runs directly comparable,
which is what ``tools/bench_diff.py`` needs.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Dict, List, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "log_spaced_buckets",
    "get_registry",
    "set_registry",
]


def log_spaced_buckets(
    low: float = 1e-7, decades: int = 9, per_decade: int = 2
) -> List[float]:
    """Fixed log-spaced bucket upper bounds starting at ``low``.

    Returns ``decades * per_decade + 1`` boundaries; values above the last
    boundary land in the overflow bucket. Defaults cover 100 ns .. 100 s —
    appropriate for both per-call wall times and per-round work counts.
    """
    if low <= 0.0:
        raise ValueError(f"low must be positive (got {low})")
    if decades < 1 or per_decade < 1:
        raise ValueError("decades and per_decade must be positive")
    exponent0 = math.log10(low)
    return [
        10.0 ** (exponent0 + i / per_decade)
        for i in range(decades * per_decade + 1)
    ]


class Counter:
    """A monotonically increasing count (events, rounds, knockouts)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def to_dict(self) -> Dict[str, object]:
        return {"type": "counter", "value": self.value}

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """A point-in-time value (active population, queue depth)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def to_dict(self) -> Dict[str, object]:
        return {"type": "gauge", "value": self.value}

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self.value})"


class Histogram:
    """A distribution over fixed log-spaced buckets.

    ``bucket_counts[i]`` counts observations ``<= bounds[i]``; the final
    slot is the overflow bucket. ``sum`` / ``count`` / ``min`` / ``max``
    are tracked exactly regardless of bucketing.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "sum", "min", "max")

    def __init__(self, name: str, bounds: Optional[Sequence[float]] = None) -> None:
        self.name = name
        self.bounds = list(bounds) if bounds is not None else log_spaced_buckets()
        if any(b <= a for a, b in zip(self.bounds, self.bounds[1:])):
            raise ValueError("histogram bounds must be strictly increasing")
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else float("nan")

    def merge(self, snapshot: Dict[str, object]) -> None:
        """Fold another histogram's ``to_dict`` snapshot into this one.

        Requires identical bucket boundaries — which the fixed log-spaced
        defaults guarantee across processes. This is how the parallel
        runner folds worker-side histograms into the parent registry.
        """
        if list(snapshot["bounds"]) != self.bounds:
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bucket bounds differ"
            )
        for index, count in enumerate(snapshot["bucket_counts"]):
            self.bucket_counts[index] += int(count)
        self.count += int(snapshot["count"])
        self.sum += float(snapshot["sum"])
        if snapshot.get("min") is not None:
            self.min = min(self.min, float(snapshot["min"]))
        if snapshot.get("max") is not None:
            self.max = max(self.max, float(snapshot["max"]))

    def to_dict(self) -> Dict[str, object]:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "bounds": self.bounds,
            "bucket_counts": list(self.bucket_counts),
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count}, sum={self.sum:g})"


class MetricsRegistry:
    """A named collection of instruments with one enabled/disabled switch.

    Instrument creation is thread-safe (benchmark harnesses run trials
    from worker threads); individual updates are plain attribute writes —
    the usual CPython-atomicity caveats apply, which is acceptable for
    telemetry.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._instruments: Dict[str, object] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, kind, *args):
        instrument = self._instruments.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(name)
                if instrument is None:
                    instrument = kind(name, *args)
                    self._instruments[name] = instrument
        if not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        if bounds is None:
            return self._get(name, Histogram)
        return self._get(name, Histogram, bounds)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """All instruments as a JSON-safe ``{name: {type, ...}}`` mapping."""
        with self._lock:
            items = sorted(self._instruments.items())
        return {name: instrument.to_dict() for name, instrument in items}

    def merge_snapshot(self, snapshot: Dict[str, Dict[str, object]]) -> None:
        """Fold a ``snapshot()`` from another registry into this one.

        Counters add, histograms merge bucket-wise (identical bounds
        required), gauges take the incoming value (last write wins — a
        point-in-time reading has no meaningful cross-process sum).
        Worker processes in :mod:`repro.sim.parallel` record into local
        registries and ship their snapshots back; merging them here keeps
        a telemetry session's ``metrics.json`` totals identical to a
        serial run's.
        """
        for name, data in snapshot.items():
            kind = data.get("type")
            if kind == "counter":
                self.counter(name).inc(int(data["value"]))
            elif kind == "gauge":
                self.gauge(name).set(data["value"])
            elif kind == "histogram":
                self.histogram(name, data["bounds"]).merge(data)
            else:
                raise ValueError(
                    f"cannot merge metric {name!r}: unknown type {kind!r}"
                )

    def reset(self) -> None:
        """Drop every instrument (state and registration)."""
        with self._lock:
            self._instruments.clear()

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"MetricsRegistry({state}, instruments={len(self._instruments)})"


#: The process-global registry. Disabled by default: importing the library
#: and running simulations records nothing until a TelemetrySession (or an
#: explicit ``get_registry().enabled = True``) switches it on.
_default_registry = MetricsRegistry(enabled=False)


def get_registry() -> MetricsRegistry:
    """The process-global registry the instrumented hot paths consult."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the process-global one; returns the old one.

    :class:`repro.obs.telemetry.TelemetrySession` uses this to scope a
    fresh, enabled registry to one run and restore the previous registry
    afterwards. Tests use it to inject isolated instances.
    """
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous
