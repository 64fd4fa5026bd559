"""Endpoint metrics: quantile estimation, batch fill, stats aggregation."""

import pytest

from repro.core.smt import SMTStatistics
from repro.serve.batcher import BatchReport
from repro.serve.metrics import EndpointMetrics, LatencyHistogram, MetricsRegistry


def test_latency_histogram_quantiles_bracket_true_values():
    histogram = LatencyHistogram()
    samples = [0.001 * i for i in range(1, 1001)]  # 1ms .. 1s uniform
    for sample in samples:
        histogram.record(sample)
    assert histogram.count == 1000
    assert histogram.min == pytest.approx(0.001)
    assert histogram.max == pytest.approx(1.0)
    # Geometric buckets grow ~9.6% per step: estimates are within one step.
    assert histogram.quantile(0.50) == pytest.approx(0.5, rel=0.12)
    assert histogram.quantile(0.99) == pytest.approx(0.99, rel=0.12)
    assert histogram.quantile(0.50) <= histogram.quantile(0.99)
    assert histogram.mean == pytest.approx(sum(samples) / len(samples))


def test_latency_histogram_empty_and_extremes():
    histogram = LatencyHistogram()
    assert histogram.quantile(0.99) == 0.0
    histogram.record(0.0)  # below range -> first bucket
    histogram.record(1e9)  # above range -> overflow bucket, max exact
    assert histogram.count == 2
    assert histogram.max == 1e9
    assert histogram.quantile(0.25) <= histogram.quantile(0.99)


def test_endpoint_batch_fill_and_counts():
    metrics = EndpointMetrics("resnet18", batch_capacity=8)
    metrics.record_batch(BatchReport(2, 8, 0.1, [0.0, 0.01]))
    metrics.record_batch(BatchReport(1, 4, 0.1, [0.02]))
    metrics.record_request(0.05, images=8)
    metrics.record_request(0.07, images=4)
    metrics.record_rejection(images=2)
    assert metrics.batches == 2
    assert metrics.batched_images == 12
    assert metrics.batch_fill == pytest.approx(12 / 16)
    assert metrics.mean_batch_size == pytest.approx(6.0)
    assert metrics.requests == 2
    assert metrics.images == 12
    assert metrics.rejected_requests == 1
    snapshot = metrics.snapshot()
    assert snapshot["batch_fill"] == pytest.approx(12 / 16)
    assert snapshot["latency"]["count"] == 2
    assert snapshot["queue_wait"]["count"] == 3
    assert snapshot["rejected_images"] == 2
    assert snapshot["throughput_images_per_s"] >= 0.0


def test_endpoint_merges_layer_stats_exactly():
    metrics = EndpointMetrics("m", batch_capacity=4)
    first = SMTStatistics(mac_total=10, mac_active=6, sum_sq_error=1.5)
    second = SMTStatistics(mac_total=5, mac_active=2, sum_sq_error=0.25)
    metrics.merge_layer_stats({"conv1": first})
    metrics.merge_layer_stats({"conv1": second, "conv2": first})
    merged = metrics.merged_smt_stats()
    assert merged["conv1"].mac_total == 15
    assert merged["conv1"].mac_active == 8
    assert merged["conv1"].sum_sq_error == pytest.approx(1.75)
    assert merged["conv2"].mac_total == 10
    # merged_smt_stats returns copies: mutating them leaves the endpoint alone.
    merged["conv1"].mac_total = 0
    assert metrics.merged_smt_stats()["conv1"].mac_total == 15
    snapshot = metrics.snapshot()
    assert snapshot["smt_layer_stats"]["conv1"]["mac_total"] == 15


def test_registry_reuses_endpoint_entries():
    registry = MetricsRegistry()
    entry = registry.endpoint("a", batch_capacity=4)
    assert registry.endpoint("a") is entry
    registry.endpoint("b").record_request(0.01)
    snapshot = registry.snapshot()
    assert set(snapshot["endpoints"]) == {"a", "b"}
    assert snapshot["endpoints"]["b"]["requests"] == 1


def test_histogram_payload_merge_is_exact():
    from repro.serve.metrics import LatencyHistogram

    left, right, reference = (
        LatencyHistogram(), LatencyHistogram(), LatencyHistogram()
    )
    for index in range(1, 200):
        sample = 0.0005 * index
        (left if index % 2 else right).record(sample)
        reference.record(sample)
    merged = LatencyHistogram.from_payload(left.to_payload())
    merged.merge_payload(right.to_payload())
    merged_snapshot = merged.snapshot()
    reference_snapshot = reference.snapshot()
    # The sum is accumulated in a different order across shards: the mean
    # is float-equal only up to rounding, everything else is exact.
    assert merged_snapshot.pop("mean_s") == pytest.approx(
        reference_snapshot.pop("mean_s")
    )
    assert merged_snapshot == reference_snapshot


def test_histogram_merge_rejects_a_peer_with_another_low():
    ours, peer = LatencyHistogram(), LatencyHistogram()
    peer.record(0.01)
    payload = peer.to_payload()
    payload["low"] = ours.low * 2
    # Everything else about the geometry matches: only ``low`` differs.
    assert len(payload["counts"]) == len(ours.counts)
    assert payload["ratio"] == ours.ratio
    with pytest.raises(ValueError, match="different geometries"):
        ours.merge_payload(payload)
    assert ours.count == 0 and sum(ours.counts) == 0


def test_endpoint_payload_merge_across_shards():
    from repro.serve.metrics import (
        EndpointMetrics,
        merge_endpoint_payloads,
        merge_registry_payloads,
    )

    shards = []
    for shard in range(3):
        metrics = EndpointMetrics("m", batch_capacity=8)
        for index in range(10 * (shard + 1)):
            metrics.record_request(0.01 * (index + 1), images=2)
        metrics.record_batch(BatchReport(2, 8, 0.05, [0.0, 0.01]))
        metrics.record_rejection(images=shard)
        metrics.merge_layer_stats(
            {"conv": SMTStatistics(mac_total=100, mac_active=60 + shard)}
        )
        metrics.record_served_level(shard % 2, 10)
        metrics.set_operating_point(shard % 2, {"level": shard % 2})
        shards.append(metrics)

    merged = merge_endpoint_payloads([m.to_payload() for m in shards])
    assert merged["requests"] == 60
    assert merged["images"] == 120
    assert merged["rejected_images"] == 3
    assert merged["batches"] == 3
    assert merged["latency"]["count"] == 60
    # Exact SMT statistics counters, summed across shards.
    assert merged["smt_layer_stats"]["conv"]["mac_total"] == 300
    assert merged["smt_layer_stats"]["conv"]["mac_active"] == 60 + 61 + 62
    assert merged["points_served_images"] == {"0": 20, "1": 10}
    # The gauge reports the most-degraded shard, plus the per-shard levels.
    assert merged["operating_point"]["level"] == 1
    assert sorted(merged["operating_point"]["shard_levels"]) == [0, 0, 1]

    registry_merge = merge_registry_payloads(
        [{"endpoints": {"m": m.to_payload()}} for m in shards]
    )
    assert registry_merge["endpoints"]["m"]["requests"] == 60


def test_recent_p99_tracks_the_sliding_window():
    metrics = EndpointMetrics("m")
    window = metrics.recent_latencies.maxlen
    for _ in range(window):
        metrics.record_request(1.0)
    assert metrics.recent_p99() == pytest.approx(1.0)
    # The slow epoch ages out of the window; the signal recovers.
    for _ in range(window):
        metrics.record_request(0.01)
    assert metrics.recent_p99() == pytest.approx(0.01)
    # The cumulative histogram still remembers the slow epoch.
    assert metrics.latency.quantile(0.99) > 0.5


def test_recent_p99_expires_stale_entries():
    metrics = EndpointMetrics("m")
    metrics.record_request(2.0)
    assert metrics.recent_p99() == pytest.approx(2.0)
    # An idle endpoint must not stare at its overload-era p99 forever:
    # backdate the entry past the freshness horizon.
    recorded_at, latency, images = metrics.recent_latencies[0]
    metrics.recent_latencies[0] = (recorded_at - 60.0, latency, images)
    assert metrics.recent_p99() == 0.0


def test_recent_rates_not_capped_by_window_size():
    """A full sample buffer shrinks the effective window, not the rate."""
    import time

    metrics = EndpointMetrics("m", latency_budget_ms=500.0)
    now = time.monotonic()
    # A full buffer spanning only 0.1s -- thousands of req/s.  A fixed 10s
    # denominator would report a rate below 100/s.
    window = metrics.recent_latencies.maxlen
    step = 0.1 / window
    for index in range(window):
        metrics.recent_latencies.append((now - 0.1 + index * step, 0.1, 1))
    rates = metrics.recent_rates()
    assert rates["requests_per_s"] > 1000.0
    assert rates["goodput_images_per_s"] == rates["requests_per_s"]  # 1 image each
    # A sparse buffer (not full) keeps the honest wide window.
    sparse = EndpointMetrics("m")
    sparse.recent_latencies.append((now - 1.0, 0.1, 4))
    sparse_rates = sparse.recent_rates()
    assert sparse_rates["requests_per_s"] == pytest.approx(0.1, rel=0.1)
    # Goodput is image-weighted: one 4-image request = 4 good images.
    assert sparse_rates["goodput_images_per_s"] == pytest.approx(0.4, rel=0.1)
