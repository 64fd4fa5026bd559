"""Serving metrics: latency quantiles, throughput, batch fill, NB-SMT stats.

Every endpoint accumulates its own :class:`EndpointMetrics`; the server
exposes the JSON snapshot under ``GET /v1/metrics``.  Latency quantiles are
estimated from geometric histograms (fixed memory, ~9% relative resolution
per bucket) while counts, sums and extrema stay exact.  The per-layer
:class:`~repro.core.smt.SMTStatistics` produced by the NB-SMT engines are
merged across batches, so an endpoint's aggregated statistics over a set of
requests equal what one harness evaluation of the same images would report.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque

from repro.core.smt import SMTStatistics

#: Histogram range: 1 microsecond .. 120 seconds, geometric buckets.
_LATENCY_MIN = 1e-6
_LATENCY_MAX = 120.0
_BUCKETS_PER_DECADE = 25
#: Samples the sliding latency window keeps, and the age past which a
#: sample no longer counts towards the recent p99 and rates.
_RECENT_WINDOW = 256
_RECENT_MAX_AGE_S = 10.0


class LatencyHistogram:
    """Geometric latency histogram with quantile estimation.

    Bucket upper bounds grow by ``10 ** (1 / 25)`` (~9.6% steps), so a
    quantile estimate is within one bucket width of the true order
    statistic.  Counts, the sum and the min/max are tracked exactly.
    """

    def __init__(self):
        self.low = _LATENCY_MIN
        self.ratio = 10.0 ** (1.0 / _BUCKETS_PER_DECADE)
        self._log_ratio = math.log(self.ratio)
        span = math.log(_LATENCY_MAX / self.low) / self._log_ratio
        num = int(math.ceil(span)) + 1
        self.counts = [0] * (num + 1)  # +1 overflow bucket
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = 0.0

    def _bucket(self, seconds: float) -> int:
        if seconds <= self.low:
            return 0
        index = int(math.log(seconds / self.low) / self._log_ratio) + 1
        return min(index, len(self.counts) - 1)

    def _upper_bound(self, index: int) -> float:
        return self.low * self.ratio**index

    def record(self, seconds: float) -> None:
        seconds = max(float(seconds), 0.0)
        self.counts[self._bucket(seconds)] += 1
        self.count += 1
        self.sum += seconds
        self.min = min(self.min, seconds)
        self.max = max(self.max, seconds)

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (upper bucket bound), clamped to max."""
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank:
                return min(self._upper_bound(index), self.max)
        return self.max

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "mean_s": self.mean,
            "min_s": self.min if self.count else 0.0,
            "max_s": self.max,
            "p50_s": self.quantile(0.50),
            "p90_s": self.quantile(0.90),
            "p99_s": self.quantile(0.99),
        }

    # -- cross-process merging (front-end sharding) -------------------------
    def to_payload(self) -> dict:
        """Exact, mergeable state (bucket counts, not quantile estimates)."""
        return {
            "low": self.low,
            "ratio": self.ratio,
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max,
        }

    def merge_payload(self, payload: dict) -> None:
        """Fold another histogram's payload in (same bucket geometry)."""
        if (
            len(payload["counts"]) != len(self.counts)
            or not math.isclose(payload["ratio"], self.ratio)
            or not math.isclose(payload["low"], self.low)
        ):
            raise ValueError("histogram payloads have different geometries")
        for index, bucket_count in enumerate(payload["counts"]):
            self.counts[index] += bucket_count
        self.count += payload["count"]
        self.sum += payload["sum"]
        if payload["count"]:
            self.min = min(self.min, payload["min"])
            self.max = max(self.max, payload["max"])

    @classmethod
    def from_payload(cls, payload: dict) -> "LatencyHistogram":
        histogram = cls()
        histogram.merge_payload(payload)
        return histogram


class EndpointMetrics:
    """Counters and histograms of one served model endpoint.

    ``batch_capacity`` is the endpoint's configured maximum batch size; the
    *batch fill* is the mean fraction of that capacity realized by executed
    batches -- the figure of merit of the dynamic batcher.
    """

    def __init__(
        self,
        name: str,
        batch_capacity: int = 1,
        latency_budget_ms: float = 0.0,
    ):
        self.name = name
        self.batch_capacity = max(1, int(batch_capacity))
        self.latency_budget_ms = float(latency_budget_ms)
        self._lock = threading.Lock()
        self.started_at = time.monotonic()
        self.requests = 0
        self.images = 0
        self.rejected_requests = 0
        self.rejected_images = 0
        self.failed_requests = 0
        self.expired_requests = 0
        self.expired_images = 0
        self.batches = 0
        self.batched_images = 0
        self.latency = LatencyHistogram()
        self.queue_wait = LatencyHistogram()
        self.batch_service = LatencyHistogram()
        self.layer_stats: dict[str, SMTStatistics] = {}
        #: Sliding window of (recorded_at, latency, images): the QoS
        #: controller's overload/recovery signal must reflect *recent*
        #: traffic, not the whole (cumulative) histogram -- and entries age
        #: out by time too, or an idle endpoint would stare at its
        #: overload-era p99 forever and never recover.
        self.recent_latencies: deque[tuple[float, float, int]] = deque(
            maxlen=_RECENT_WINDOW
        )
        #: Images served per ladder rung, plus the current rung gauge.
        self.points_served: dict[int, int] = {}
        self.operating_point_level = 0
        self.operating_point: dict | None = None
        self.transitions = 0
        self.recent_transitions: deque[dict] = deque(maxlen=64)

    # -- recording ---------------------------------------------------------
    def record_request(self, latency_seconds: float, images: int = 1) -> None:
        """One completed request (end-to-end latency, admission to reply)."""
        with self._lock:
            self.requests += 1
            self.images += int(images)
            self.latency.record(latency_seconds)
            self.recent_latencies.append(
                (time.monotonic(), float(latency_seconds), int(images))
            )

    def record_rejection(self, images: int = 1) -> None:
        """One request turned away by admission control (backpressure)."""
        with self._lock:
            self.rejected_requests += 1
            self.rejected_images += int(images)

    def record_failure(self) -> None:
        with self._lock:
            self.failed_requests += 1

    def record_expiry(self, images: int = 1) -> None:
        """One request cancelled because its deadline passed (shed, not
        failed: the client was told ``deadline_exceeded``, and the engine
        never spent capacity on it)."""
        with self._lock:
            self.expired_requests += 1
            self.expired_images += int(images)

    def record_batch(self, report) -> None:
        """One executed batch (a :class:`repro.serve.batcher.BatchReport`)."""
        with self._lock:
            self.batches += 1
            self.batched_images += report.num_images
            self.batch_service.record(report.service_seconds)
            for wait in report.queue_waits:
                self.queue_wait.record(wait)

    def merge_layer_stats(self, layer_stats: dict[str, SMTStatistics]) -> None:
        """Fold one batch's per-layer NB-SMT statistics into the endpoint."""
        with self._lock:
            for layer_name, stats in layer_stats.items():
                self.layer_stats.setdefault(layer_name, SMTStatistics()).merge(stats)

    def record_served_level(self, level: int, images: int) -> None:
        """Count images served at one ladder rung (per-rung breakdown)."""
        with self._lock:
            self.points_served[int(level)] = (
                self.points_served.get(int(level), 0) + int(images)
            )

    def set_operating_point(self, level: int, description: dict | None) -> None:
        """Gauge: the rung this endpoint currently serves at."""
        with self._lock:
            self.operating_point_level = int(level)
            self.operating_point = description

    def record_transition(self, transition) -> None:
        """One QoS ladder transition (a :class:`repro.serve.qos.Transition`)."""
        with self._lock:
            self.transitions += 1
            self.recent_transitions.append(transition.describe())

    def recent_p99(self) -> float:
        """The p99 of the sliding latency window (the QoS signal).

        Entries older than ``_RECENT_MAX_AGE_S`` are ignored: the signal
        must go quiet when traffic does, or recovery would wait forever on
        a p99 frozen at its overload-era value.
        """
        horizon = time.monotonic() - _RECENT_MAX_AGE_S
        with self._lock:
            ordered = sorted(
                entry[1]
                for entry in self.recent_latencies
                if entry[0] >= horizon
            )
        if not ordered:
            return 0.0
        index = min(len(ordered) - 1, int(math.ceil(0.99 * len(ordered))) - 1)
        return ordered[max(0, index)]

    def recent_rates(self) -> dict:
        """Request and goodput rates over the sliding latency window.

        Goodput counts requests whose latency fit the endpoint's budget;
        with no budget configured every completed request is good.  Used
        by the telemetry health tick -- the dashboard shows *recent*
        behaviour, not lifetime averages.

        The window spans ``_RECENT_MAX_AGE_S`` and holds at most
        ``_RECENT_WINDOW`` samples; when it is full the effective window
        shrinks to the span the retained samples actually cover, so
        high-traffic endpoints report their true rate instead of a
        ``_RECENT_WINDOW / _RECENT_MAX_AGE_S`` plateau.
        """
        now = time.monotonic()
        horizon = now - _RECENT_MAX_AGE_S
        budget_s = (
            self.latency_budget_ms / 1000.0 if self.latency_budget_ms else None
        )
        with self._lock:
            full = len(self.recent_latencies) == self.recent_latencies.maxlen
            if full and self.recent_latencies:
                horizon = max(horizon, self.recent_latencies[0][0])
            recent = [
                entry[1:] for entry in self.recent_latencies
                if entry[0] >= horizon
            ]
        window = max(1e-9, now - horizon)
        within_images = sum(
            images
            for latency, images in recent
            if budget_s is None or latency <= budget_s
        )
        return {
            "requests_per_s": len(recent) / window,
            # Goodput is in *images* (matching the throughput gauge): a
            # request contributes its whole batch when it fit the budget.
            "goodput_images_per_s": within_images / window,
        }

    # -- derived -----------------------------------------------------------
    @property
    def batch_fill(self) -> float:
        """Mean executed batch size over the configured maximum batch size."""
        if self.batches == 0:
            return 0.0
        return self.batched_images / (self.batches * self.batch_capacity)

    @property
    def mean_batch_size(self) -> float:
        return self.batched_images / self.batches if self.batches else 0.0

    def throughput(self) -> float:
        """Served images per second since this endpoint started."""
        elapsed = time.monotonic() - self.started_at
        return self.images / elapsed if elapsed > 0 else 0.0

    def merged_smt_stats(self) -> dict[str, SMTStatistics]:
        """Copy of the aggregated per-layer NB-SMT statistics."""
        with self._lock:
            copies: dict[str, SMTStatistics] = {}
            for layer_name, stats in self.layer_stats.items():
                copy = SMTStatistics()
                copy.merge(stats)
                copies[layer_name] = copy
            return copies

    def snapshot(self) -> dict:
        with self._lock:
            smt = {
                layer_name: stats.to_payload()
                for layer_name, stats in self.layer_stats.items()
            }
            return {
                "name": self.name,
                "requests": self.requests,
                "images": self.images,
                "rejected_requests": self.rejected_requests,
                "rejected_images": self.rejected_images,
                "failed_requests": self.failed_requests,
                "expired_requests": self.expired_requests,
                "expired_images": self.expired_images,
                "throughput_images_per_s": self.throughput(),
                "batches": self.batches,
                "mean_batch_size": self.mean_batch_size,
                "batch_fill": self.batch_fill,
                "latency": self.latency.snapshot(),
                "queue_wait": self.queue_wait.snapshot(),
                "batch_service": self.batch_service.snapshot(),
                "smt_layer_stats": smt,
                "operating_point": {
                    "level": self.operating_point_level,
                    "point": self.operating_point,
                    "transitions": self.transitions,
                    "recent_transitions": list(self.recent_transitions),
                },
                "points_served_images": {
                    str(level): images
                    for level, images in sorted(self.points_served.items())
                },
            }

    # -- cross-process merging (front-end sharding) -------------------------
    def to_payload(self) -> dict:
        """Exact, mergeable state of this endpoint (one shard's share)."""
        with self._lock:
            return {
                "name": self.name,
                "batch_capacity": self.batch_capacity,
                "elapsed_s": time.monotonic() - self.started_at,
                "requests": self.requests,
                "images": self.images,
                "rejected_requests": self.rejected_requests,
                "rejected_images": self.rejected_images,
                "failed_requests": self.failed_requests,
                "expired_requests": self.expired_requests,
                "expired_images": self.expired_images,
                "batches": self.batches,
                "batched_images": self.batched_images,
                "latency": self.latency.to_payload(),
                "queue_wait": self.queue_wait.to_payload(),
                "batch_service": self.batch_service.to_payload(),
                "smt_layer_stats": {
                    layer_name: stats.to_payload()
                    for layer_name, stats in self.layer_stats.items()
                },
                "operating_point_level": self.operating_point_level,
                "operating_point": self.operating_point,
                "transitions": self.transitions,
                "points_served_images": {
                    str(level): images
                    for level, images in self.points_served.items()
                },
            }


def merge_endpoint_payloads(payloads: list[dict]) -> dict:
    """One endpoint's merged snapshot across front-end shards.

    Counters and bucket counts are summed exactly; throughput uses the
    longest shard uptime (shards start together); the operating-point gauge
    reports the *worst* (highest, most degraded) rung any shard serves at,
    plus the per-shard levels -- each shard runs its own QoS controller.
    """
    if not payloads:
        raise ValueError("nothing to merge")
    merged = EndpointMetrics(
        payloads[0]["name"], batch_capacity=payloads[0]["batch_capacity"]
    )
    elapsed = 0.0
    levels = []
    transitions = 0
    for payload in payloads:
        elapsed = max(elapsed, payload["elapsed_s"])
        merged.requests += payload["requests"]
        merged.images += payload["images"]
        merged.rejected_requests += payload["rejected_requests"]
        merged.rejected_images += payload["rejected_images"]
        merged.failed_requests += payload["failed_requests"]
        merged.expired_requests += payload["expired_requests"]
        merged.expired_images += payload["expired_images"]
        merged.batches += payload["batches"]
        merged.batched_images += payload["batched_images"]
        merged.latency.merge_payload(payload["latency"])
        merged.queue_wait.merge_payload(payload["queue_wait"])
        merged.batch_service.merge_payload(payload["batch_service"])
        for layer_name, stats_payload in payload["smt_layer_stats"].items():
            merged.layer_stats.setdefault(layer_name, SMTStatistics()).merge(
                SMTStatistics.from_payload(stats_payload)
            )
        for level, images in payload["points_served_images"].items():
            merged.points_served[int(level)] = (
                merged.points_served.get(int(level), 0) + images
            )
        levels.append(payload["operating_point_level"])
        transitions += payload["transitions"]
    merged.started_at = time.monotonic() - elapsed
    merged.operating_point_level = max(levels)
    merged.transitions = transitions
    snapshot = merged.snapshot()
    snapshot["operating_point"]["shard_levels"] = levels
    return snapshot


def merge_registry_payloads(payloads: list[dict]) -> dict:
    """Merged ``/v1/metrics`` body across shard payload documents."""
    by_endpoint: dict[str, list[dict]] = {}
    for payload in payloads:
        for name, endpoint_payload in payload.get("endpoints", {}).items():
            by_endpoint.setdefault(name, []).append(endpoint_payload)
    return {
        "endpoints": {
            name: merge_endpoint_payloads(entries)
            for name, entries in sorted(by_endpoint.items())
        }
    }


class MetricsRegistry:
    """All endpoint metrics of one server instance."""

    def __init__(self):
        self._lock = threading.Lock()
        self._endpoints: dict[str, EndpointMetrics] = {}

    def endpoint(
        self,
        name: str,
        batch_capacity: int = 1,
        latency_budget_ms: float = 0.0,
    ) -> EndpointMetrics:
        with self._lock:
            entry = self._endpoints.get(name)
            if entry is None:
                entry = EndpointMetrics(
                    name,
                    batch_capacity=batch_capacity,
                    latency_budget_ms=latency_budget_ms,
                )
                self._endpoints[name] = entry
            return entry

    def snapshot(self) -> dict:
        with self._lock:
            endpoints = list(self._endpoints.values())
        return {
            "endpoints": {entry.name: entry.snapshot() for entry in endpoints}
        }

    def to_payload(self) -> dict:
        """This process's mergeable share of the metrics (one shard)."""
        with self._lock:
            endpoints = list(self._endpoints.values())
        return {
            "endpoints": {entry.name: entry.to_payload() for entry in endpoints}
        }
