"""Distributed request tracing: spans from the socket to the systolic array.

A :class:`TraceContext` (trace id + current span id + sampling verdict)
is minted at the serving front door -- honoring an inbound ``X-Trace-Id``
header and echoed on the response -- and threaded through admission, the
dynamic batcher, the engine pool (across the fork boundary: the replica
serializes its engine-compute timing back with the result) and across
machines on cluster frames.  Every finished span publishes as a ``span``
event on the telemetry bus, so the existing fork-safe spools, the SSE
dashboard and the relay/aggregator machinery carry traces for free.

Sampling is *consistent head sampling*: the verdict is a deterministic
hash of the trace id against the sampling rate, so every process and
every machine that sees the same trace id keeps (or drops) the same
trace without coordination.  Unsampled traces are not discarded
outright: their spans sit in a bounded tail-sampling ring, and
:meth:`Tracer.keep` retroactively publishes them when the request turns
out to be interesting (budget breach, expiry, shed, error) -- the
*exemplar* policy, so the p99 meter always has concrete slow traces
behind it.

:class:`TraceStore` persists ``span`` events to a ring file (a
:class:`~repro.cluster.spool.RingStore`) for ``repro.cli trace`` offline
inspection; :func:`build_tree` / :func:`render_waterfall` turn a span
list back into the per-trace waterfall.
"""

from __future__ import annotations

import os
import threading
import time
import zlib
from collections import OrderedDict

from repro.cluster.spool import RingStore

#: Request header carrying (and response header echoing) the trace id.
#: Lower-case on the wire contract: the front-end normalizes header
#: names *and values* to lower case, and ids are minted as lower-case
#: hex, so the round trip is loss-free.
TRACE_HEADER = "x-trace-id"

#: Event type every finished span publishes under.
SPAN_EVENT = "span"

#: Ring-file rotation size for :class:`TraceStore` (spans are chattier
#: than alerts, so the ring is larger than the alert history's).
TRACE_ROTATE_BYTES = 1024 * 1024

#: Default head-sampling rate (the served fraction of calm traces).
DEFAULT_SAMPLE_RATE = 0.1


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (lower case, header-safe)."""
    return os.urandom(8).hex()


def new_span_id() -> str:
    """A fresh 8-hex-char span id."""
    return os.urandom(4).hex()


def sample_decision(trace_id: str, rate: float) -> bool:
    """Deterministic head-sampling verdict for ``trace_id`` at ``rate``.

    Hash-based, so every process/machine reaches the same verdict for
    the same id without coordination (an upstream's sampled trace stays
    sampled downstream at equal-or-higher rates).
    """
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    bucket = zlib.crc32(trace_id.encode("utf-8", "replace")) / 0x100000000
    return bucket < rate


class TraceContext:
    """One hop's view of a trace: trace id, parent span id, verdict."""

    __slots__ = ("trace_id", "span_id", "sampled")

    def __init__(self, trace_id: str, span_id: str, sampled: bool):
        self.trace_id = trace_id
        self.span_id = span_id
        self.sampled = bool(sampled)

    def child(self, span_id: str) -> "TraceContext":
        """The context below ``span_id`` (for nesting deeper spans)."""
        return TraceContext(self.trace_id, span_id, self.sampled)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceContext({self.trace_id}/{self.span_id}"
            f"{' sampled' if self.sampled else ''})"
        )


class Span:
    """An in-flight span; :meth:`finish` publishes (or buffers) it."""

    __slots__ = (
        "_tracer", "context", "span_id", "parent_id", "name",
        "start", "_mono0", "data", "_done",
    )

    def __init__(self, tracer, context, span_id, parent_id, name,
                 start, mono0, data):
        self._tracer = tracer
        self.context = context
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self._mono0 = mono0
        self.data = data
        self._done = False

    def annotate(self, **fields) -> None:
        self.data.update(fields)

    def child_context(self) -> TraceContext:
        """A context whose spans nest under this one."""
        return self.context.child(self.span_id)

    def finish(self, status: str = "ok", **fields) -> dict:
        """End the span now; idempotent (the first finish wins)."""
        if self._done:
            return {}
        self._done = True
        if fields:
            self.data.update(fields)
        duration_s = max(0.0, self._tracer._mono() - self._mono0)
        return self._tracer._finish(
            self.context, self.span_id, self.parent_id, self.name,
            self.start, duration_s, status, self.data,
        )


class Tracer:
    """Mints contexts, records spans, applies the sampling/exemplar policy.

    ``publish`` is the telemetry-bus entry point
    (``bus.publish(type, **data)``).  Spans of sampled traces publish
    immediately; spans of unsampled traces go to a bounded ring
    (``exemplar_traces`` traces x ``max_spans_per_trace`` spans) where
    :meth:`keep` can retroactively publish them -- requests that breach
    their budget, expire, get shed or error are always retained, no
    matter the sampling rate.
    """

    def __init__(self, publish, *, sample_rate: float = DEFAULT_SAMPLE_RATE,
                 exemplar_traces: int = 128, max_spans_per_trace: int = 128,
                 clock=time.monotonic, wall=time.time):
        self._publish = publish
        self.sample_rate = float(sample_rate)
        self.exemplar_traces = int(exemplar_traces)
        self.max_spans_per_trace = int(max_spans_per_trace)
        self._mono = clock
        self._wall = wall
        self._lock = threading.Lock()
        self._ring: OrderedDict[str, list[dict]] = OrderedDict()
        self._kept: OrderedDict[str, str] = OrderedDict()
        self.published_spans = 0
        self.buffered_spans = 0
        self.exemplars_kept = 0
        self.dropped_traces = 0

    # -- contexts ----------------------------------------------------------
    def trace(self, trace_id: str | None = None,
              sampled: bool | None = None) -> TraceContext:
        """A root context; honors an inbound id, decides sampling."""
        tid = (trace_id or "").strip().lower() or new_trace_id()
        if sampled is None:
            sampled = sample_decision(tid, self.sample_rate)
        return TraceContext(tid, new_span_id(), sampled)

    # -- spans -------------------------------------------------------------
    def start_span(self, context: TraceContext | None, name: str, *,
                   root: bool = False, **data) -> Span | None:
        """Open a span under ``context`` (its ``span_id`` is the parent).

        ``root=True`` claims the context's own span id with no parent --
        the front door's request span.  Returns ``None`` for a ``None``
        context so call sites stay one-liners when tracing is off.
        """
        if context is None:
            return None
        span_id = context.span_id if root else new_span_id()
        parent_id = None if root else context.span_id
        return Span(self, context, span_id, parent_id, name,
                    self._wall(), self._mono(), dict(data))

    def emit(self, context: TraceContext | None, name: str, *,
             start: float, duration_s: float, parent_id: str | None = None,
             span_id: str | None = None, status: str = "ok", **data) -> dict:
        """Record an externally measured span (queue waits, engine layers).

        ``start`` is wall-clock seconds; ``parent_id`` defaults to the
        context's current span id.
        """
        if context is None:
            return {}
        if parent_id is None:
            parent_id = context.span_id
        return self._finish(
            context, span_id or new_span_id(), parent_id, name,
            start, max(0.0, duration_s), status, dict(data),
        )

    def _finish(self, context, span_id, parent_id, name, start,
                duration_s, status, data) -> dict:
        payload = {
            "trace_id": context.trace_id,
            "span_id": span_id,
            "parent_id": parent_id,
            "name": name,
            "start": start,
            "duration_ms": duration_s * 1000.0,
            "status": status,
        }
        for key, value in data.items():
            payload.setdefault(key, value)
        self._record(context.trace_id, context.sampled, payload)
        return payload

    def _record(self, trace_id: str, sampled: bool, payload: dict) -> None:
        if sampled:
            self.published_spans += 1
            self._publish(SPAN_EVENT, **payload)
            return
        with self._lock:
            reason = self._kept.get(trace_id)
            if reason is None:
                bucket = self._ring.get(trace_id)
                if bucket is None:
                    bucket = self._ring[trace_id] = []
                    while len(self._ring) > self.exemplar_traces:
                        _, dropped = self._ring.popitem(last=False)
                        self.dropped_traces += 1
                        self.buffered_spans -= len(dropped)
                else:
                    self._ring.move_to_end(trace_id)
                if len(bucket) < self.max_spans_per_trace:
                    bucket.append(payload)
                    self.buffered_spans += 1
                return
        # Trace already kept as an exemplar: late spans publish directly.
        payload["exemplar"] = reason
        self.published_spans += 1
        self._publish(SPAN_EVENT, **payload)

    # -- exemplar policy ---------------------------------------------------
    def keep(self, context, reason: str) -> int:
        """Retroactively publish an unsampled trace's buffered spans.

        ``context`` is a :class:`TraceContext` or a bare trace id.  The
        id is remembered (bounded), so spans that finish *after* the
        keep decision publish too.  Returns the number of spans flushed.
        Sampled traces are already published -- a no-op.
        """
        trace_id = getattr(context, "trace_id", context)
        if getattr(context, "sampled", False):
            return 0
        with self._lock:
            spans = self._ring.pop(trace_id, [])
            self.buffered_spans -= len(spans)
            if trace_id not in self._kept:
                self._kept[trace_id] = reason
                self.exemplars_kept += 1
                while len(self._kept) > self.exemplar_traces:
                    self._kept.popitem(last=False)
        for payload in spans:
            payload["exemplar"] = reason
            self.published_spans += 1
            self._publish(SPAN_EVENT, **payload)
        return len(spans)

    def discard(self, context) -> int:
        """Drop an unsampled trace's buffer early (it ended calm).

        Optional -- the ring evicts oldest traces anyway -- but the
        front door calls it on clean fast responses to keep the ring
        full of *recent* candidates rather than already-fine history.
        """
        trace_id = getattr(context, "trace_id", context)
        with self._lock:
            spans = self._ring.pop(trace_id, None)
            if spans is None:
                return 0
            self.buffered_spans -= len(spans)
            return len(spans)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "sample_rate": self.sample_rate,
                "published_spans": self.published_spans,
                "buffered_spans": self.buffered_spans,
                "buffered_traces": len(self._ring),
                "exemplars_kept": self.exemplars_kept,
                "dropped_traces": self.dropped_traces,
            }


class TraceStore(RingStore):
    """Ring-file persistence of ``span`` events for offline inspection.

    A :class:`~repro.cluster.spool.RingStore` -- per-process spool
    writer with size rotation, skew-proof merged replay, dead writers'
    files folded exactly once -- selecting ``span`` events into its own
    subdirectory (``<telemetry-dir>/traces``).
    """

    def __init__(self, directory: str):
        super().__init__(directory, "traces", (SPAN_EVENT,), TRACE_ROTATE_BYTES)

    def load_traces(self, compact: bool = True) -> "OrderedDict[str, list[dict]]":
        """Replay the ring into ``{trace_id: [span payloads by start]}``."""
        return group_spans(
            event.data for event in self.load(compact=compact)
        )


# -- span-tree utilities (dashboard waterfall + CLI) -----------------------

def group_spans(payloads) -> "OrderedDict[str, list[dict]]":
    """Group span payloads by trace id (dedup span ids, sort by start)."""
    traces: OrderedDict[str, list[dict]] = OrderedDict()
    seen: set[tuple[str, str]] = set()
    for payload in payloads:
        trace_id = payload.get("trace_id")
        span_id = payload.get("span_id")
        if not trace_id or not span_id:
            continue
        if (trace_id, span_id) in seen:
            continue
        seen.add((trace_id, span_id))
        traces.setdefault(trace_id, []).append(payload)
    for spans in traces.values():
        spans.sort(key=lambda p: (p.get("start", 0.0), p.get("span_id", "")))
    return traces


def summarize_trace(trace_id: str, spans: list[dict]) -> dict:
    """One row of the trace listing (dashboard table / CLI list)."""
    roots = [s for s in spans if not s.get("parent_id")]
    root = roots[0] if roots else (spans[0] if spans else {})
    start = min((s.get("start", 0.0) for s in spans), default=0.0)
    end = max(
        (s.get("start", 0.0) + s.get("duration_ms", 0.0) / 1000.0
         for s in spans),
        default=start,
    )
    exemplar = next(
        (s["exemplar"] for s in spans if s.get("exemplar")), None
    )
    status = "ok"
    if any(s.get("status") not in (None, "ok") for s in spans):
        status = next(
            s["status"] for s in spans if s.get("status") not in (None, "ok")
        )
    return {
        "trace_id": trace_id,
        "start": start,
        "duration_ms": (end - start) * 1000.0,
        "spans": len(spans),
        "root": root.get("name", "?"),
        "endpoint": next(
            (s["endpoint"] for s in spans if s.get("endpoint")), None
        ),
        "status": status,
        "exemplar": exemplar,
    }


def build_tree(spans: list[dict]) -> list[dict]:
    """Nest one trace's spans: ``[{span, children: [...]}, ...]`` roots.

    Spans whose ``parent_id`` is missing from the trace are promoted to
    roots (annotated ``orphan``) instead of vanishing -- a visibly
    broken tree beats a silently pruned one.
    """
    by_id = {s["span_id"]: {"span": s, "children": []} for s in spans}
    roots: list[dict] = []
    for span in spans:
        node = by_id[span["span_id"]]
        parent = span.get("parent_id")
        if parent and parent in by_id and parent != span["span_id"]:
            by_id[parent]["children"].append(node)
        else:
            if parent:
                node["span"] = dict(span, orphan=True)
            roots.append(node)
    def order(nodes):
        nodes.sort(key=lambda n: (n["span"].get("start", 0.0),
                                  n["span"].get("span_id", "")))
        for entry in nodes:
            order(entry["children"])
    order(roots)
    return roots


def render_waterfall(spans: list[dict], width: int = 48) -> list[str]:
    """ASCII waterfall of one trace (the CLI's ``--id`` view)."""
    if not spans:
        return ["(no spans)"]
    t0 = min(s.get("start", 0.0) for s in spans)
    t1 = max(s.get("start", 0.0) + s.get("duration_ms", 0.0) / 1000.0
             for s in spans)
    total = max(t1 - t0, 1e-9)
    lines: list[str] = []

    def walk(node, depth):
        span = node["span"]
        off = max(0.0, span.get("start", 0.0) - t0)
        dur = max(0.0, span.get("duration_ms", 0.0) / 1000.0)
        left = int(round(off / total * width))
        bar = max(1, int(round(dur / total * width)))
        bar = min(bar, width - min(left, width - 1))
        gutter = " " * min(left, width - 1)
        label = "  " * depth + span.get("name", "?")
        suffix = ""
        if span.get("status") not in (None, "ok"):
            suffix += f" !{span['status']}"
        if span.get("exemplar"):
            suffix += f" [exemplar:{span['exemplar']}]"
        if span.get("orphan"):
            suffix += " [orphan]"
        lines.append(
            f"{label:<28.28} |{gutter}{'#' * bar:<{width - len(gutter)}}| "
            f"{span.get('duration_ms', 0.0):8.2f} ms{suffix}"
        )
        for child in node["children"]:
            walk(child, depth + 1)

    for root in build_tree(spans):
        walk(root, 0)
    return lines
