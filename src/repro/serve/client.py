"""HTTP load generator for the NB-SMT inference server.

``repro.cli client`` drives a running server with synthetic zoo images in
one of two arrival modes:

* **closed loop** (the default): ``concurrency`` worker threads each keep
  one keep-alive connection open and issue requests back to back, so
  offered load scales with concurrency until the server's admission
  controller starts shedding.  A closed loop self-throttles -- slow
  responses slow the clients -- which is great for measuring capacity but
  cannot overload the server.
* **open loop** (``mode="open"``): requests are issued on a fixed arrival
  schedule (``rate`` requests/second) regardless of completions, which is
  how real traffic behaves and the only way to generate sustained
  overload.  Arrivals that find every worker busy are sent late and
  counted (``late_arrivals``); with ``latency_budget_ms`` set, the report
  additionally tracks *goodput* -- responses completed within the budget
  per second -- the figure of merit of the adaptive QoS controller.

Latencies are measured end-to-end per request; the summary reports p50/p99,
throughput, goodput, the rejection rate and (when labels are supplied)
top-1 accuracy of the served predictions.

Request lifelines (PR 7): requests may carry a deadline
(``X-Deadline-Ms``) and retries ride a :class:`RetryPolicy` --
capped-exponential backoff with seeded jitter, honoring the server's
``Retry-After``/``retry_after_ms`` shed advice, budgeted by the deadline
(no retry is ever sent after the deadline would already have passed), and
keyed by a stable idempotency key so a retried request never
double-resolves server-side.  Terminal sheds (429) and expiries (504)
are counted separately from errors in the goodput summary.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
import uuid
from dataclasses import dataclass, field
from urllib.parse import urlsplit

import numpy as np

from repro.serve.deadline import DEADLINE_HEADER, IDEMPOTENCY_HEADER


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with jitter, deadline-budgeted.

    ``base_delay_ms(attempt)`` is the *monotone* capped-exponential
    schedule (attempt 0 = first retry); :meth:`delay_ms` layers the
    server's ``Retry-After`` advice (never retry sooner than asked) and
    seeded jitter (de-synchronizing a thundering herd) on top.
    """

    max_retries: int = 0
    base_backoff_ms: float = 25.0
    multiplier: float = 2.0
    max_backoff_ms: float = 2000.0
    jitter: float = 0.1

    def base_delay_ms(self, attempt: int) -> float:
        """The un-jittered backoff of retry ``attempt`` (monotone, capped)."""
        exponent = max(0, int(attempt))
        return float(
            min(
                self.max_backoff_ms,
                self.base_backoff_ms * (self.multiplier**exponent),
            )
        )

    def delay_ms(
        self,
        attempt: int,
        rng: random.Random | None = None,
        retry_after_ms: float | None = None,
    ) -> float:
        """The actual sleep before retry ``attempt``.

        The server's advice is a *floor* (it knows its own load);
        jitter spreads the base backoff by ``±jitter``.
        """
        delay = self.base_delay_ms(attempt)
        if rng is not None and self.jitter > 0:
            delay *= 1.0 + rng.uniform(-self.jitter, self.jitter)
        if retry_after_ms is not None:
            delay = max(delay, float(retry_after_ms))
        return max(0.0, delay)

    def should_retry(
        self,
        attempt: int,
        delay_ms: float,
        deadline_remaining_ms: float | None,
    ) -> bool:
        """Whether retry ``attempt`` fits the budget.

        A retry is pointless (and forbidden) once the request's deadline
        would already have passed when the retry lands.
        """
        if attempt >= self.max_retries:
            return False
        if deadline_remaining_ms is not None:
            return delay_ms < deadline_remaining_ms
        return True


def _retry_after_ms(payload: dict, headers) -> float | None:
    """The server's shed advice: ``retry_after_ms`` body field wins over
    the coarser (whole-seconds) ``Retry-After`` header."""
    value = payload.get("retry_after_ms") if isinstance(payload, dict) else None
    if value is not None:
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raw = headers.get("Retry-After") if headers is not None else None
    if raw is not None:
        try:
            return float(raw) * 1000.0
        except (TypeError, ValueError):
            pass
    return None


@dataclass
class LoadReport:
    """Outcome of one load-generation run."""

    requests: int
    images: int
    rejected: int
    errors: int
    elapsed_seconds: float
    latencies_seconds: list[float] = field(default_factory=list)
    correct: int = 0
    labeled: int = 0
    mode: str = "closed"
    offered_rate: float | None = None
    latency_budget_s: float | None = None
    within_budget: int = 0
    late_arrivals: int = 0
    #: Requests the server answered ``deadline_exceeded`` (504) for --
    #: shed work, distinct from transport/server *errors*.
    expired: int = 0
    #: Retry attempts sent on top of the first attempts (backoff-paced).
    retries_sent: int = 0
    #: Requests whose retry budget ran out on sheds (terminal 429s).
    retry_exhausted: int = 0

    @property
    def throughput_images_per_s(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.images / self.elapsed_seconds

    @property
    def goodput_per_s(self) -> float:
        """Responses completed within the latency budget, per second.

        Falls back to plain request throughput when no budget was set.
        """
        if self.elapsed_seconds <= 0:
            return 0.0
        if self.latency_budget_s is None:
            return self.requests / self.elapsed_seconds
        return self.within_budget / self.elapsed_seconds

    def latency_quantile(self, q: float) -> float:
        if not self.latencies_seconds:
            return 0.0
        ordered = sorted(self.latencies_seconds)
        index = min(len(ordered) - 1, max(0, int(q * len(ordered)) - 1))
        return ordered[index]

    @property
    def accuracy(self) -> float | None:
        return self.correct / self.labeled if self.labeled else None

    def summary(self) -> dict:
        summary = {
            "mode": self.mode,
            "requests": self.requests,
            "images": self.images,
            # Sheds (429 backpressure) and expiries (504 deadline) are the
            # server working as designed under overload; "errors" is
            # reserved for transport failures and 5xx surprises.
            "rejected": self.rejected,
            "sheds": self.rejected,
            "expired": self.expired,
            "errors": self.errors,
            "retries_sent": self.retries_sent,
            "retry_exhausted": self.retry_exhausted,
            "elapsed_s": self.elapsed_seconds,
            "throughput_images_per_s": self.throughput_images_per_s,
            "latency_p50_ms": self.latency_quantile(0.50) * 1000.0,
            "latency_p99_ms": self.latency_quantile(0.99) * 1000.0,
            "accuracy": self.accuracy,
        }
        if self.mode == "open":
            summary["offered_rate_per_s"] = self.offered_rate
            summary["late_arrivals"] = self.late_arrivals
        if self.latency_budget_s is not None:
            summary["latency_budget_ms"] = self.latency_budget_s * 1000.0
            summary["within_budget"] = self.within_budget
            summary["goodput_per_s"] = self.goodput_per_s
        return summary


def predict_detailed(
    connection: http.client.HTTPConnection,
    endpoint: str,
    images: np.ndarray,
    *,
    deadline_ms: float | None = None,
    idempotency_key: str | None = None,
):
    """One ``:predict`` call; returns ``(status, payload, headers)``."""
    body = json.dumps({"inputs": images.tolist()})
    headers = {"Content-Type": "application/json"}
    if deadline_ms is not None:
        headers[DEADLINE_HEADER] = f"{float(deadline_ms):g}"
    if idempotency_key is not None:
        headers[IDEMPOTENCY_HEADER] = idempotency_key
    connection.request(
        "POST",
        f"/v1/models/{endpoint}:predict",
        body=body,
        headers=headers,
    )
    response = connection.getresponse()
    payload = json.loads(response.read().decode("utf-8"))
    return response.status, payload, response.headers


def predict_once(
    connection: http.client.HTTPConnection,
    endpoint: str,
    images: np.ndarray,
    *,
    deadline_ms: float | None = None,
    idempotency_key: str | None = None,
) -> tuple[int, dict]:
    """Issue one ``:predict`` call on an open keep-alive connection."""
    status, payload, _headers = predict_detailed(
        connection,
        endpoint,
        images,
        deadline_ms=deadline_ms,
        idempotency_key=idempotency_key,
    )
    return status, payload


def fetch_json(url: str, path: str) -> dict:
    """GET a JSON document (e.g. ``/v1/metrics``) from the server."""
    parts = urlsplit(url)
    connection = http.client.HTTPConnection(
        parts.hostname, parts.port or 80, timeout=30
    )
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


def run_load(
    url: str,
    endpoint: str,
    images: np.ndarray,
    labels: np.ndarray | None = None,
    *,
    requests: int = 100,
    concurrency: int = 8,
    batch_size: int = 1,
    timeout: float = 120.0,
    mode: str = "closed",
    rate: float | None = None,
    latency_budget_ms: float | None = None,
    deadline_ms: float | None = None,
    retry: RetryPolicy | None = None,
    seed: int = 0,
) -> LoadReport:
    """Drive ``requests`` predictions and report latencies.

    Each request carries ``batch_size`` images drawn round-robin from
    ``images``; workers reuse one connection each.  Without a ``retry``
    policy a 429 response is terminal: counted as a rejection, consuming
    its slot of the request budget, so ``report.requests + rejected +
    expired + errors == requests``.  With one, sheds and transport errors
    are retried on the policy's backoff schedule (honoring the server's
    ``Retry-After`` advice), each logical request keeps one idempotency
    key across its attempts, and no retry is sent once the request's
    deadline would already have passed.

    ``deadline_ms`` attaches a per-request deadline; each attempt carries
    the *remaining* budget, and a ``504 deadline_exceeded`` answer is
    counted in ``expired`` (shed accounting, separate from errors).

    ``mode="closed"`` (default) issues back to back; ``mode="open"``
    issues on the fixed arrival schedule ``rate`` requests/second -- a
    worker that picks its arrival up late (all workers were busy: the
    open-loop backlog) sends immediately and the lateness is counted.
    ``latency_budget_ms`` tracks within-budget completions (goodput).
    """
    if mode not in ("closed", "open"):
        raise ValueError(f"mode must be 'closed' or 'open', not {mode!r}")
    if mode == "open" and (rate is None or rate <= 0):
        raise ValueError("open-loop mode needs a positive arrival rate")
    parts = urlsplit(url)
    host, port = parts.hostname, parts.port or 80
    counter = {"issued": 0}
    budget_s = latency_budget_ms / 1000.0 if latency_budget_ms else None
    report = LoadReport(requests=0, images=0, rejected=0, errors=0,
                        elapsed_seconds=0.0, mode=mode, offered_rate=rate,
                        latency_budget_s=budget_s)
    lock = threading.Lock()
    start_barrier = threading.Barrier(max(1, concurrency) + 1)
    base_time = {"at": 0.0}

    def next_request_index() -> int | None:
        with lock:
            if counter["issued"] >= requests:
                return None
            counter["issued"] += 1
            return counter["issued"] - 1

    def worker(worker_index: int) -> None:
        connection = http.client.HTTPConnection(host, port, timeout=timeout)
        rng = random.Random((seed * 1_000_003) ^ worker_index)
        start_barrier.wait()
        try:
            while True:
                index = next_request_index()
                if index is None:
                    return
                if mode == "open":
                    arrival = base_time["at"] + index / rate
                    delay = arrival - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                    elif delay < -0.001:
                        with lock:
                            report.late_arrivals += 1
                start = (index * batch_size) % images.shape[0]
                stop = start + batch_size
                batch = images[start:stop]
                if batch.shape[0] < batch_size:  # wrap around
                    batch = np.concatenate(
                        [batch, images[: batch_size - batch.shape[0]]], axis=0
                    )
                issued = time.monotonic()
                deadline_at = (
                    issued + deadline_ms / 1000.0 if deadline_ms else None
                )
                # One idempotency key per *logical* request, stable across
                # every retry attempt (the server dedupes on it).
                key = (
                    uuid.uuid4().hex
                    if retry is not None and retry.max_retries > 0
                    else None
                )
                attempt = 0
                while True:
                    remaining_ms = None
                    if deadline_at is not None:
                        remaining_ms = (deadline_at - time.monotonic()) * 1000.0
                        if remaining_ms <= 0:
                            # Dead before sending: the client gives up
                            # without spending server capacity.
                            with lock:
                                report.expired += 1
                            break
                    try:
                        status, payload, response_headers = predict_detailed(
                            connection,
                            endpoint,
                            batch,
                            deadline_ms=remaining_ms,
                            idempotency_key=key,
                        )
                    except (OSError, http.client.HTTPException):
                        connection.close()
                        connection = http.client.HTTPConnection(
                            host, port, timeout=timeout
                        )
                        if retry is not None:
                            delay_ms = retry.delay_ms(attempt, rng)
                            budget_left = (
                                (deadline_at - time.monotonic()) * 1000.0
                                if deadline_at is not None
                                else None
                            )
                            if retry.should_retry(attempt, delay_ms, budget_left):
                                with lock:
                                    report.retries_sent += 1
                                time.sleep(delay_ms / 1000.0)
                                attempt += 1
                                continue
                        with lock:
                            report.errors += 1
                        break
                    latency = time.monotonic() - issued
                    if status == 429 and retry is not None:
                        delay_ms = retry.delay_ms(
                            attempt,
                            rng,
                            _retry_after_ms(payload, response_headers),
                        )
                        budget_left = (
                            (deadline_at - time.monotonic()) * 1000.0
                            if deadline_at is not None
                            else None
                        )
                        if retry.should_retry(attempt, delay_ms, budget_left):
                            with lock:
                                report.retries_sent += 1
                            time.sleep(delay_ms / 1000.0)
                            attempt += 1
                            continue
                        with lock:
                            report.rejected += 1
                            report.retry_exhausted += 1
                        break
                    with lock:
                        if status == 200:
                            report.requests += 1
                            report.images += batch.shape[0]
                            report.latencies_seconds.append(latency)
                            if budget_s is not None and latency <= budget_s:
                                report.within_budget += 1
                            if labels is not None:
                                expected = [
                                    int(
                                        labels[
                                            (start + offset) % images.shape[0]
                                        ]
                                    )
                                    for offset in range(batch.shape[0])
                                ]
                                report.labeled += len(expected)
                                report.correct += sum(
                                    int(a == b)
                                    for a, b in zip(payload["argmax"], expected)
                                )
                        elif status == 429:
                            report.rejected += 1
                        elif status == 504:
                            report.expired += 1
                        else:
                            report.errors += 1
                    break
        finally:
            connection.close()

    threads = [
        threading.Thread(
            target=worker, args=(index,), name=f"load-{index}", daemon=True
        )
        for index in range(max(1, concurrency))
    ]
    for thread in threads:
        thread.start()
    started = time.monotonic()
    base_time["at"] = started
    start_barrier.wait()
    for thread in threads:
        thread.join()
    report.elapsed_seconds = time.monotonic() - started
    return report
