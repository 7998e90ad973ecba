"""A process-local metrics registry with Prometheus text rendering.

The serving tiers already aggregate telemetry into
:class:`~repro.api.MetricsSnapshot`; this module is the export side: named
counters, gauges, and histograms that those snapshots (or any caller) feed,
rendered in the Prometheus text exposition format for the stdlib HTTP
exporter (:mod:`repro.obs.exporter`) to serve.

The registry is thread-safe under one :func:`checked_lock`, so the same
``REPRO_LOCKCHECK=1`` soak discipline that guards the gateway telemetry
also covers the export path.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.lockcheck import checked_lock, guarded_by
from repro.api.telemetry import COUNTER_KEYS

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "feed_snapshot",
    "registry",
]

#: default latency buckets (seconds) — tuned to the serving stack's
#: microsecond-to-second spread rather than Prometheus's web defaults
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


def _sanitise(name: str) -> str:
    """Coerce a metric/label name to the Prometheus grammar."""
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    cleaned = "".join(out)
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned or "_"


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: Optional[Mapping[str, object]]) -> str:
    if not labels:
        return ""
    parts = [f'{_sanitise(str(key))}="{value}"'
             for key, value in sorted(labels.items())]
    return "{" + ",".join(parts) + "}"


class Counter:
    """Monotonically non-decreasing count."""

    kind = "counter"

    def __init__(self, name: str, help_text: str = ""):
        self.name = name
        self.help_text = help_text
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def set_to_at_least(self, value: float) -> None:
        """Raise the counter to ``value`` if it is below it.

        Snapshot feeding uses this: the tiers report cumulative totals, so
        re-feeding a snapshot must never rewind the exported series.
        """
        if value > self.value:
            self.value = value

    def render(self) -> Iterable[str]:
        yield f"{self.name} {_format_value(self.value)}"


class Gauge:
    """A value that can go up and down (queue depth, cache size, ...)."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str = ""):
        self.name = name
        self.help_text = help_text
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def render(self) -> Iterable[str]:
        yield f"{self.name} {_format_value(self.value)}"


class Histogram:
    """Cumulative-bucket histogram in the Prometheus layout."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str = "",
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        self.name = name
        self.help_text = help_text
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        self.counts: List[int] = [0] * (len(self.buckets) + 1)  # +Inf tail
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.total += value
        self.count += 1

    def render(self) -> Iterable[str]:
        cumulative = 0
        for bound, count in zip(self.buckets, self.counts):
            cumulative += count
            yield (f'{self.name}_bucket{{le="{_format_value(bound)}"}} '
                   f"{cumulative}")
        yield f'{self.name}_bucket{{le="+Inf"}} {self.count}'
        yield f"{self.name}_sum {_format_value(self.total)}"
        yield f"{self.name}_count {self.count}"


@guarded_by("_lock", "_metrics")
class MetricsRegistry:
    """Named metrics, registered on first use, rendered on demand."""

    def __init__(self, prefix: str = "repro"):
        self.prefix = prefix
        self._lock = checked_lock("MetricsRegistry._lock")
        self._metrics: Dict[str, object] = {}

    def _get(self, factory, name: str, help_text: str, **kwargs):
        full = f"{self.prefix}_{_sanitise(name)}" if self.prefix \
            else _sanitise(name)
        with self._lock:
            metric = self._metrics.get(full)
            if metric is None:
                metric = self._metrics[full] = factory(full, help_text,
                                                       **kwargs)
            elif not isinstance(metric, factory):
                raise TypeError(
                    f"metric {full!r} already registered as "
                    f"{type(metric).__name__}, not {factory.__name__}")
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get(Gauge, name, help_text)

    def histogram(self, name: str, help_text: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get(Histogram, name, help_text, buckets=buckets)

    def reset(self) -> None:
        """Drop every registered metric (tests)."""
        with self._lock:
            self._metrics.clear()

    def render(self) -> str:
        """The full registry in Prometheus text exposition format."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        lines: List[str] = []
        for name, metric in metrics:
            if metric.help_text:
                lines.append(f"# HELP {name} {metric.help_text}")
            lines.append(f"# TYPE {name} {metric.kind}")
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"


#: the default process-wide registry the exporter serves
_default = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _default


def feed_snapshot(snapshot: Mapping[str, object],
                  reg: Optional[MetricsRegistry] = None) -> None:
    """Mirror one :class:`MetricsSnapshot` into registry metrics.

    Scalar keys become ``repro_<source>_<key>`` series: the recorder's
    cumulative counts (:data:`repro.api.telemetry.COUNTER_KEYS`) are
    counters, every other number is a gauge.  The per-lane and shard
    sub-dicts fan out as gauges with the lane/shard folded into the metric
    name (stdlib-only rendering keeps label support minimal).  Counters
    use :meth:`Counter.set_to_at_least`, so feeding the same snapshot
    twice is idempotent.
    """
    reg = reg or _default
    # MetricsSnapshot's dict form deliberately omits "source" (legacy wire
    # keys), so read the attribute first and fall back to the mapping.
    raw_source = getattr(snapshot, "source", None) \
        or snapshot.get("source") or "serving"
    source = _sanitise(str(raw_source))
    for key, value in dict(snapshot).items():
        if key == "source":
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            if isinstance(value, Mapping):
                for sub_key, sub_value in value.items():
                    if isinstance(sub_value, (int, float)) \
                            and not isinstance(sub_value, bool):
                        gauge = reg.gauge(f"{source}_{key}_{sub_key}")
                        gauge.set(float(sub_value))
            continue
        name = f"{source}_{key}"
        if key in COUNTER_KEYS:
            reg.counter(name).set_to_at_least(float(value))
        else:
            reg.gauge(name).set(float(value))
