"""Lightweight metrics registry: counters, gauges, histograms.

The observability layer's first rule is *do no harm*: attaching metrics to
a simulation must never change its results, and leaving metrics detached
must cost (almost) nothing. Detached, instrumented code holds ``None`` and
guards with a single ``if obs is not None`` test — the pattern the
simulator hot loop uses, identical to the ``fault_hook`` guard.

All instruments are process-local, deterministic accumulators — no clocks,
no randomness — so a metrics snapshot is a pure function of the
instrumented code path.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple, Union


def _plain(value: float) -> Union[int, float]:
    """Render integral floats as ints (nicer JSON: ``4`` not ``4.0``)."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease by {amount}")
        self.value += amount


class Gauge:
    """A value that can go up and down; records the last value set."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, amount: float) -> None:
        self.value += amount


class Histogram:
    """Streaming distribution summary with power-of-two buckets.

    Keeps count/sum/min/max exactly plus a coarse shape: each observation
    lands in the bucket ``2**k`` that is the smallest power of two >= the
    value (negative and zero observations share the ``0`` bucket). That is
    enough to replot coarse distributions from a telemetry file without
    retaining every sample.
    """

    __slots__ = ("name", "count", "total", "minimum", "maximum", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self.buckets: Dict[str, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        bucket = self._bucket(value)
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @staticmethod
    def _bucket(value: float) -> str:
        if value <= 0:
            return "0"
        bound = 1
        while bound < value:
            bound *= 2
        return str(bound)

    @property
    def mean(self) -> float:
        if self.count == 0:
            return 0.0
        return self.total / self.count

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total": _plain(self.total),
            "min": _plain(self.minimum) if self.count else 0,
            "max": _plain(self.maximum) if self.count else 0,
            "mean": self.mean,
            "buckets": dict(sorted(self.buckets.items(), key=lambda kv: int(kv[0]))),
        }


class MetricsRegistry:
    """Names → instruments, created lazily on first use.

    Instruments are keyed by dotted name (``"gc.collections"``,
    ``"cache.result.hits"``); asking for the same name twice returns the
    same instrument. :meth:`snapshot` renders everything into a plain
    JSON-compatible dict with deterministic (sorted) ordering.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Instrument access
    # ------------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    # ------------------------------------------------------------------
    # Bulk recording
    # ------------------------------------------------------------------

    def set_many(self, values: dict, prefix: str = "") -> None:
        """Set one gauge per ``(name, value)`` pair, optionally prefixed.

        The bridge from existing stats objects (``IOStats``, ``BufferStats``,
        ``WalStats``, ``TraceCacheStats``) into the registry: each exposes an
        ``as_metrics()`` flat dict that lands here.
        """
        for name, value in values.items():
            self.gauge(prefix + name if prefix else name).set(float(value))

    def __iter__(self) -> Iterator[Tuple[str, float]]:
        for name in sorted(self._counters):
            yield name, self._counters[name].value
        for name in sorted(self._gauges):
            yield name, self._gauges[name].value

    def snapshot(self) -> dict:
        """JSON-compatible rendering of every instrument, sorted by name."""
        return {
            "counters": {
                name: _plain(self._counters[name].value)
                for name in sorted(self._counters)
            },
            "gauges": {
                name: _plain(self._gauges[name].value)
                for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].as_dict()
                for name in sorted(self._histograms)
            },
        }
