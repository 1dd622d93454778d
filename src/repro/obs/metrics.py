"""Metric instruments: counters, gauges and fixed-bucket histograms.

The second layer of the telemetry subsystem. A :class:`Metrics`
registry hands out named instruments (get-or-create, so call sites can
stay declaration-free) and snapshots the whole registry to one plain
dict — the form persisted inside run manifests and printed by the CLI's
``--metrics`` flag.

Histograms use fixed bucket bounds (an exponential grid sized for
seconds-scale latencies by default) and estimate percentiles by linear
interpolation inside the owning bucket — the standard fixed-bucket
estimator, cheap to merge and serialise, accurate to bucket width.

Instruments are thread-safe and picklable (locks are dropped and
rebuilt), so a registry can ride inside the engine across a process
boundary; increments made in worker processes stay in the worker's
copy, which is why the executors report worker timings back through
their *results* instead.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Counter names the K-DB crash-recovery path maintains (PR 10).
#: Pre-registered when a registry is bound to a sharded store, so
#: snapshots always carry them — a clean open reports explicit zeros
#: rather than absent keys. ``torn_tail`` and ``stale_log`` count
#: *expected* crash signatures (repaired silently); ``quarantined``,
#: ``seq_gap`` and ``gen_mismatch`` count damage that flags the
#: collection degraded.
KDB_RECOVERY_COUNTERS: Tuple[str, ...] = (
    "kdb.recovery.torn_tail",
    "kdb.recovery.quarantined",
    "kdb.recovery.stale_log",
    "kdb.recovery.seq_gap",
    "kdb.recovery.gen_mismatch",
)

#: Default histogram bounds: exponential grid for seconds-scale timings.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
    math.inf,
)

#: Byte-scale histogram bounds for payload-size accounting (e.g. the
#: executors' ``cloud.payload_bytes``): 128 B up to 128 MiB, then +inf.
PAYLOAD_BUCKETS: Tuple[float, ...] = (
    128.0,
    512.0,
    2048.0,
    8192.0,
    32768.0,
    131072.0,
    524288.0,
    float(2**21),
    float(2**23),
    float(2**25),
    float(2**27),
    math.inf,
)

#: Microsecond-to-second bounds for K-DB query latencies
#: (``kdb.query.latency``): indexed point reads land in the tens of
#: microseconds, full scans of large collections in whole seconds.
QUERY_BUCKETS: Tuple[float, ...] = (
    0.00001,
    0.000025,
    0.00005,
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    math.inf,
)


class _Instrument:
    """Lock management shared by every instrument type."""

    def __init__(self) -> None:
        self._lock = threading.Lock()

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("_lock", None)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()


class Counter(_Instrument):
    """A monotonically increasing count."""

    def __init__(self) -> None:
        super().__init__()
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        with self._lock:
            self.value += amount


class Gauge(_Instrument):
    """A value that can go up and down (last write wins)."""

    def __init__(self) -> None:
        super().__init__()
        self.value: float = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount


class Histogram(_Instrument):
    """Fixed-bucket distribution with interpolated percentiles.

    ``bounds`` are the inclusive upper edges of each bucket; the last
    bound may be ``inf`` (one is appended when missing, so no
    observation is ever dropped).
    """

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        super().__init__()
        bounds = tuple(sorted(float(b) for b in bounds))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if bounds[-1] != math.inf:
            bounds = bounds + (math.inf,)
        self.bounds = bounds
        self.counts = [0] * len(bounds)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            for index, bound in enumerate(self.bounds):
                if value <= bound:
                    self.counts[index] += 1
                    break
            self.count += 1
            self.total += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)

    def percentile(self, q: float) -> Optional[float]:
        """Estimated ``q``-quantile (``q`` in [0, 1]); None when empty.

        Linear interpolation inside the bucket holding the target rank;
        the overflow bucket reports the observed maximum.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return None
        target = q * self.count
        cumulative = 0
        lower = self.min if self.min is not None else 0.0
        for index, bound in enumerate(self.bounds):
            bucket = self.counts[index]
            if bucket:
                if cumulative + bucket >= target:
                    if not math.isfinite(bound):
                        return self.max
                    low = max(
                        lower,
                        self.bounds[index - 1] if index else 0.0,
                    )
                    fraction = (
                        (target - cumulative) / bucket if bucket else 1.0
                    )
                    return low + (bound - low) * min(1.0, fraction)
                cumulative += bucket
        return self.max  # pragma: no cover - unreachable by construction

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able summary (counts, extrema, p50/p90/p99, buckets)."""
        buckets: List[Dict[str, Any]] = []
        for bound, count in zip(self.bounds, self.counts):
            if count:
                buckets.append(
                    {
                        "le": bound if math.isfinite(bound) else "inf",
                        "count": count,
                    }
                )
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(0.5),
            "p90": self.percentile(0.9),
            "p99": self.percentile(0.99),
            "buckets": buckets,
        }


class Metrics:
    """A named registry of instruments, snapshot-able to a dict."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- pickling --------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        return {
            "counters": self._counters,
            "gauges": self._gauges,
            "histograms": self._histograms,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self._lock = threading.Lock()
        self._counters = state["counters"]
        self._gauges = state["gauges"]
        self._histograms = state["histograms"]

    # -- instruments -----------------------------------------------------
    def counter(self, name: str) -> Counter:
        """Get or create the named counter."""
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter()
            return instrument

    def counter_value(self, name: str) -> int:
        """The named counter's current value (0 when never created).

        Unlike :meth:`counter`, this never creates the instrument —
        safe for delta snapshots around a phase that may or may not
        touch the counter.
        """
        with self._lock:
            instrument = self._counters.get(name)
            return instrument.value if instrument is not None else 0

    def gauge(self, name: str) -> Gauge:
        """Get or create the named gauge."""
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge()
            return instrument

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        """Get or create the named histogram (bounds only apply on
        first creation)."""
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(
                    bounds if bounds is not None else DEFAULT_BUCKETS
                )
            return instrument

    # -- export ----------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """The whole registry as one JSON-able dict."""
        with self._lock:
            return {
                "counters": {
                    name: counter.value
                    for name, counter in sorted(self._counters.items())
                },
                "gauges": {
                    name: gauge.value
                    for name, gauge in sorted(self._gauges.items())
                },
                "histograms": {
                    name: histogram.snapshot()
                    for name, histogram in sorted(
                        self._histograms.items()
                    )
                },
            }
